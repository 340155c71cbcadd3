"""Declarative query specs: the logical plan the strategies rewrite.

A ``QuerySpec`` is the select-join-aggregate block the paper's
techniques operate on: spec tables (base DataFrames with optional local
predicates — aliases of the same base table are distinct spec tables
with renamed columns), join-graph edges, a left-deep join order, and a
``finalize`` projection/aggregation. Sub-query blocks (§3.4: single-
table group-bys feeding the main join, scalar aggregates that block
transfer) are nested ``QuerySpec``s executed first with the same
strategy.

Column names are globally unique inside a spec (TPC-H prefixes; aliases
rename with ``rename_prefix``), so join conditions are derived purely
from edge column names, for *any* join order — which is what makes the
Figure-4 robustness experiment a one-liner.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from pyspark.sql import Column, DataFrame

from repro.bloom.spark_bloom import hash_type

#: (left_side_df, right_side_df) -> extra non-equi join condition.
#: The first argument always holds the edge's *left* table's columns.
ExtraCond = Callable[[DataFrame, DataFrame], Column]

#: (joined_df, scalars) -> final result.
Finalize = Callable[[DataFrame, Dict[str, float]], Column]


@dataclass(frozen=True)
class Edge:
    """One equi-join edge of the join graph.

    ``how`` is the join type used when the *right* table is folded into
    the accumulated plan ('inner' | 'semi' | 'anti'). ``transfer``
    restricts predicate-transfer direction per §3.4: 'both', 'ltr'
    (left→right only — e.g. the outer side of an ANTI join may filter
    the inner side but never the reverse), 'rtl', or 'none'.
    """

    left: str
    left_cols: Tuple[str, ...]
    right: str
    right_cols: Tuple[str, ...]
    how: str = "inner"
    transfer: str = "both"
    extra: Optional[ExtraCond] = None

    def __post_init__(self):
        if self.left == self.right:
            # ``left_deep`` never joins it; a transfer would filter the table by itself.
            raise ValueError(f"edge {self.left}-{self.right}: a self-edge joins a table to itself")
        if len(self.left_cols) != len(self.right_cols) or not self.left_cols:
            raise ValueError(f"edge {self.left}-{self.right}: key arity mismatch")
        if self.how not in ("inner", "semi", "anti"):
            raise ValueError(f"unsupported join type {self.how!r}")
        if self.transfer not in ("both", "ltr", "rtl", "none"):
            raise ValueError(f"unsupported transfer mode {self.transfer!r}")
        if self.how == "anti" and self.transfer != "ltr":
            # Filtering the outer side by the anti side's keys is unsound.
            raise ValueError("anti edges must declare transfer='ltr'")

    def other(self, table: str) -> str:
        if table == self.left:
            return self.right
        if table == self.right:
            return self.left
        raise KeyError(f"{table} not on edge {self.left}-{self.right}")

    def cols_of(self, table: str) -> Tuple[str, ...]:
        if table == self.left:
            return self.left_cols
        if table == self.right:
            return self.right_cols
        raise KeyError(f"{table} not on edge {self.left}-{self.right}")

    def can_transfer_from(self, table: str) -> bool:
        """May a filter built on ``table`` be applied to the other side?"""
        if self.transfer == "none":
            return False
        if self.transfer == "both":
            return True
        return (self.transfer == "ltr") == (table == self.left)


@dataclass
class TableRef:
    """A spec table: a concrete DataFrame (or a sub-query result, when
    ``subquery`` names one) plus an optional local predicate."""

    df: Optional[DataFrame] = None
    predicate: Optional[Column] = None
    subquery: Optional[str] = None

    def __post_init__(self):
        if (self.df is None) == (self.subquery is None):
            raise ValueError("TableRef needs exactly one of df / subquery")


@dataclass
class SubQuery:
    """A block executed before the main block, with the same strategy.

    ``scalar=True`` collects a single value exposed to ``finalize`` via
    the scalars dict (scalar aggregation blocks transfer, §3.4);
    otherwise the result DataFrame becomes spec table ``name``.
    """

    name: str
    spec: "QuerySpec"
    scalar: bool = False


@dataclass
class QuerySpec:
    name: str
    tables: Dict[str, TableRef]
    edges: List[Edge]
    join_order: List[str]
    finalize: Finalize
    oracle_sql: Optional[str] = None
    subqueries: List[SubQuery] = field(default_factory=list)

    def edges_of(self, table: str) -> List[Edge]:
        return [e for e in self.edges if table in (e.left, e.right)]

    @property
    def filtered(self) -> Set[str]:
        """Tables with a predicate of their own to transfer: a local
        predicate, or a sub-query's output in place of a base table."""
        return {
            t
            for t, ref in self.tables.items()
            if ref.predicate is not None or ref.subquery is not None
        }


def rename_prefix(df: DataFrame, old: str, new: str) -> DataFrame:
    """Alias a base table by rewriting its column prefix, e.g.
    ``rename_prefix(lineitem, "l_", "l2_")`` — fresh attribute ids, so
    Spark self-joins resolve unambiguously."""
    from pyspark.sql import functions as F

    return df.select(
        *[
            F.col(c).alias(new + c[len(old):] if c.startswith(old) else c)
            for c in df.columns
        ]
    )


def left_deep(edges: Sequence[Edge], order: Sequence[str]) -> List[Tuple[str, List[Edge]]]:
    """The left-deep plan of ``order``: each table after the first, with
    the edges joining it to the tables before it, in ``edges`` order."""
    return [
        (t, [e for e in edges if t in (e.left, e.right) and e.other(t) in order[:i]])
        for i, t in enumerate(order)
        if i
    ]


def validate(spec: QuerySpec) -> List[str]:
    """Structural sanity checks that read no DataFrame, so they run
    before any Spark job; returns a list of problems (empty = ok)."""
    problems: List[str] = []
    sub_names = {s.name for s in spec.subqueries}
    if dups := sorted({t for t in spec.join_order if spec.join_order.count(t) > 1}):
        problems.append(f"join_order has duplicates: {dups}")
    missing = sorted(set(spec.tables) - set(spec.join_order))
    unknown = sorted(set(spec.join_order) - set(spec.tables))
    if missing or unknown:
        problems.append(f"join_order does not cover tables exactly: missing {missing}, unknown {unknown}")
    for name, ref in spec.tables.items():
        if ref.subquery is not None and ref.subquery not in sub_names:
            problems.append(f"table {name} references unknown subquery {ref.subquery}")
    for e in spec.edges:
        problems += [f"edge references unknown table {t}" for t in (e.left, e.right) if t not in spec.tables]
    # A semi/anti edge's right table is a pure filter table: its columns
    # are dropped by the join, so it must not participate in any other
    # edge (they could never be satisfied afterwards).
    for t in dict.fromkeys(e.right for e in spec.edges if e.how != "inner"):
        if len(spec.edges_of(t)) != 1:
            problems.append(f"{t}: semi/anti table mixes with other edges (needs exactly one edge)")
    # Left-deep order must keep the plan connected, and semi/anti tables
    # must be folded in as the edge's right side.
    for t, conn in left_deep(spec.edges, spec.join_order):
        if not conn:
            problems.append(f"join_order disconnects at {t} (cross join)")
        problems += [
            f"{e.right}: semi/anti table must be joined after {e.left}, as the edge's right side"
            for e in conn
            if e.how != "inner" and e.right != t
        ]
    for sub in spec.subqueries:
        problems += [f"[{sub.name}] {p}" for p in validate(sub.spec)]
    return problems


def schema_problems(spec: QuerySpec, tables: Mapping[str, DataFrame]) -> List[str]:
    """Checks on the schemas of ``tables``, the spec tables a run joins
    (base tables and sub-query outputs alike), for a spec ``validate``
    accepts; returns a list of problems (empty = ok). Reading a schema
    runs no Spark job."""
    problems: List[str] = []
    types = {t: {f.name: f.dataType for f in df.schema.fields} for t, df in tables.items()}
    seen_cols: Dict[str, str] = {}
    for t, cols in types.items():
        for c in cols:
            if c in seen_cols:
                problems.append(f"column {c} appears in both {seen_cols[c]} and {t}")
            seen_cols[c] = t
    for e in spec.edges:
        lt, rt = types[e.left], types[e.right]
        for t, cols in ((e.left, e.left_cols), (e.right, e.right_cols)):
            if missing := sorted(set(cols) - set(types[t])):
                problems.append(f"table {t} lacks edge columns {missing}")
        # A Bloom filter hashes keys as their ``hash_type``: keys of two
        # hash types never match, so the filter would drop joinable rows.
        for a, b in zip(e.left_cols, e.right_cols):
            if a in lt and b in rt and hash_type(lt[a]) != hash_type(rt[b]):
                problems.append(
                    f"edge {e.left}-{e.right}: {a} ({lt[a].simpleString()}) and "
                    f"{b} ({rt[b].simpleString()}) hash as different types"
                )
    return problems
