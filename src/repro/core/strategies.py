"""The four join strategies from the paper's evaluation (§4.1), sharing
one join-phase executor:

- ``no_pred_trans`` — local predicates only, regular joins.
- ``bloom_join``    — one-hop: each join's build side (the incoming,
  locally-filtered table) builds a Bloom filter applied to the probe
  side immediately before that join. No transitive transfer.
- ``yannakakis``    — exact semi-join phase over a BFS join tree
  (forward + backward), then the join phase on the reduced tables.
- ``pred_trans``    — the paper's contribution: Bloom filters
  transferred across the whole join graph (forward + backward passes
  over the small→big DAG), then the join phase, whose scans apply the
  received filters (nothing is materialized in between).

``run_query`` is the "optimizer rule" of this reproduction: it takes
the logical block (``QuerySpec``) and emits/executes the rewritten
plan, timing the pre-filter phase and the join phase separately
(Figure 3's breakdown).
"""
from __future__ import annotations

import re
import time
from dataclasses import dataclass, field, replace
from functools import reduce as _reduce
from typing import Dict, List, Optional, Sequence, Set, Tuple

from pyspark.sql import DataFrame, Observation, SparkSession
from pyspark.sql import functions as F

# Unused here; perfbench's tracer (spans.WRAPS) still wraps this name.
from repro.bloom.spark_bloom import build_blooms  # noqa: F401
from repro.core.executor import JoinMeasure, execute_join_phase
from repro.core.graph import order_steps
from repro.core.spec import QuerySpec, validate
from repro.core.transfer import TransferStats, bloom_sender, predicate_transfer, yannakakis_reduce

STRATEGIES = ("no_pred_trans", "bloom_join", "yannakakis", "pred_trans")


@dataclass
class RunResult:
    """Outcome of one strategy run: result + phase timings + diagnostics."""

    query: str
    strategy: str
    df: DataFrame
    rows: Optional[list] = None
    pre_s: float = 0.0  # sub-query blocks (executed first, §3.4)
    #: Pre-filter phase: the size count, then Bloom filter builds or the
    #: materialized semi-joins. Pred-Trans's ends at its last filter
    #: build; the probe of the filters each table received runs in the
    #: join phase's scans and is charged to ``join_s``.
    transfer_s: float = 0.0
    join_s: float = 0.0  # join phase incl. finalize + collect
    measures: List[JoinMeasure] = field(default_factory=list)
    scalars: Dict[str, float] = field(default_factory=dict)  # scalar sub-queries
    sizes: Dict[str, int] = field(default_factory=dict)  # filtered inputs
    #: Rows left after the pre-filter phase (Yannakakis and Pred-Trans).
    #: Pred-Trans reads them from observations on the join phase's own
    #: action, so a run with ``collect=False`` (a sub-query) leaves this empty.
    reduced_sizes: Dict[str, int] = field(default_factory=dict)
    transfer_stats: Optional[TransferStats] = None
    _persisted: List[DataFrame] = field(default_factory=list)

    @property
    def total_s(self) -> float:
        return self.pre_s + self.transfer_s + self.join_s

    def cleanup(self) -> None:
        for df in self._persisted:
            df.unpersist()
        self._persisted.clear()


def _resolve_tables(
    spark: SparkSession,
    spec: QuerySpec,
    strategy: str,
    res: RunResult,
) -> Dict[str, DataFrame]:
    """Run sub-query blocks (same strategy), then apply local predicates."""
    sub_results: Dict[str, DataFrame] = {}
    scalars: Dict[str, float] = {}
    for sub in spec.subqueries:
        t0 = time.perf_counter()
        rr = run_query(spark, sub.spec, strategy, collect=sub.scalar)
        res._persisted.extend(rr._persisted)
        if sub.scalar:
            scalars[sub.name] = rr.rows[0][0]
        else:
            rr.df.persist()
            res._persisted.append(rr.df)
            rr.df.count()
            sub_results[sub.name] = rr.df
        res.pre_s += time.perf_counter() - t0
    res.scalars = scalars
    tables: Dict[str, DataFrame] = {}
    for name, ref in spec.tables.items():
        df = ref.df if ref.df is not None else sub_results[ref.subquery]
        if ref.predicate is not None:
            df = df.filter(ref.predicate)
        tables[name] = df
    return tables


def _count_all(tables: Dict[str, DataFrame]) -> Dict[str, int]:
    """Exact cardinality of every table in a *single* Spark action (a
    union of per-table count aggregates). One job instead of N: at small
    scale factors per-job scheduling overhead, not data volume, is the
    dominant cost of the pre-filter phase."""
    branches = [
        df.agg(F.count(F.lit(1)).alias("n")).select(F.lit(t).alias("t"), "n")
        for t, df in tables.items()
    ]
    return {r["t"]: r["n"] for r in _reduce(DataFrame.unionAll, branches).collect()}


def _observe_counts(
    tables: Dict[str, DataFrame],
) -> Tuple[Dict[str, DataFrame], Dict[str, Observation]]:
    """Each table with an ``Observation`` of its row count attached; the
    first action that runs a table's plan records its count."""
    observed, observations = {}, {}
    for t, df in tables.items():
        observations[t] = Observation()
        observed[t] = df.observe(observations[t], F.count(F.lit(1)).alias("n"))
    return observed, observations


#: Plan nodes that read all of their input: a stage's shuffle or broadcast write.
_STAGE_ENDS = {"Exchange", "BroadcastExchange"}


def _partly_read_observations(df: DataFrame) -> Set[str]:
    """Names of the ``CollectMetrics`` nodes in ``df``'s executed plan
    whose input may not all have been read: a join or a limit sits above
    them in the same stage. A sort-merge join, for one, never reads a
    partition of one input when that partition of the other is empty;
    an input reaches a join without a shuffle when it is already
    partitioned on the join keys (a persisted group-by, say)."""
    jvm = df.sparkSession._jvm
    plan = jvm.java.lang.StringBuilder().append(df._jdf.queryExecution().executedPlan())
    # Bloom filter literals make the plan text megabytes long at larger
    # scale factors; drop them before the text leaves the JVM.
    text = jvm.java.util.regex.Pattern.compile("0x[0-9A-F]+").matcher(plan).replaceAll("0x")
    partly: Set[str] = set()
    ancestors: List[Tuple[int, str]] = []  # (indent, node name) of the lines above
    for line in text.splitlines():
        body = line.lstrip(" :+-")
        indent = len(line) - len(body)
        fields = re.sub(r"^\*\(\d+\) ", "", body).split(" ", 2)
        while ancestors and ancestors[-1][0] >= indent:
            ancestors.pop()
        if fields[0] == "CollectMetrics":
            for _, node in reversed(ancestors):
                if node in _STAGE_ENDS:
                    break
                if node.endswith(("Join", "Limit")) or node == "CartesianProduct":
                    partly.add(fields[1].rstrip(","))
                    break
        ancestors.append((indent, fields[0]))
    return partly


def _observed_counts(
    tables: Dict[str, DataFrame], observations: Dict[str, Observation], action: DataFrame
) -> Dict[str, int]:
    """Exact row counts of ``tables``, once ``action`` (whose plan holds
    every observed table) has run. An observation is used when it saw
    all of its table: AQE drops an observed branch whenever a join input
    is empty at run time, leaving a zero-length row, and a branch that
    may have been read in part (``_partly_read_observations``) is
    skipped. Those tables alone are counted, in one action."""
    rows = {t: o._jo.getRow() for t, o in observations.items()}
    partly = _partly_read_observations(action)
    missed = {
        t: tables[t]
        for t, row in rows.items()
        if row.length() == 0 or observations[t]._jo.name() in partly
    }
    counted = _count_all(missed) if missed else {}
    return {t: counted[t] if t in missed else row.getLong(0) for t, row in rows.items()}


def _bloom_join_step_blooms(spec, tables, sizes, order):
    """One-hop blooms: each incoming table's filters for the tables
    already placed, built from its locally-filtered rows in one scan."""
    send = bloom_sender(sizes)
    return {t: send(t, tables[t], outs) for t, outs in order_steps(spec.edges, order)}


def run_query(
    spark: SparkSession,
    spec: QuerySpec,
    strategy: str,
    *,
    join_order: Optional[Sequence[str]] = None,
    measure: bool = False,
    collect: bool = True,
) -> RunResult:
    """Execute ``spec`` under ``strategy``. Bloom filters are sized for
    ``BloomSpec``'s false-positive rate, 0.01; the Yannakakis join tree is
    rooted at the first table of the join order. The caller should invoke
    ``result.cleanup()`` once done with ``result.df``; a run that raises
    releases what it persisted. Raises ``ValueError`` before any Spark
    job if the spec, with ``join_order`` in place of its own, is invalid."""
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    order = list(join_order or spec.join_order)
    problems = validate(replace(spec, join_order=order))
    if problems:
        raise ValueError(f"{spec.name}: " + "; ".join(problems))
    res = RunResult(query=spec.name, strategy=strategy, df=None)  # type: ignore[arg-type]
    try:
        tables = _resolve_tables(spark, spec, strategy, res)

        t0 = time.perf_counter()
        reduced, step_blooms = tables, None
        if strategy in ("bloom_join", "pred_trans"):
            # Exact filtered-input cardinalities: bloom sizing + (for
            # pred_trans) the small→big orientation heuristic. Counted
            # here because it is planning work of the pre-filter phase.
            res.sizes = _count_all(tables)
        if strategy == "pred_trans":
            reduced, res.transfer_stats = predicate_transfer(tables, spec.edges, res.sizes)
        elif strategy == "bloom_join":
            step_blooms = _bloom_join_step_blooms(spec, tables, res.sizes, order)
        elif strategy == "yannakakis":
            reduced, _ = yannakakis_reduce(tables, spec.edges, order[0])
            # Materialize the exact semi-join reductions, so the
            # pre-filter phase carries their cost (as the paper charges
            # it) and the join phase starts from them. One counting
            # action materializes every persisted table.
            for df in reduced.values():
                df.persist()
                res._persisted.append(df)
            res.reduced_sizes = _count_all(reduced)
        res.transfer_s = time.perf_counter() - t0

        # Pred-Trans hands its lazy reduced tables (base ∧ local predicate
        # ∧ received filters) to the join phase, whose scans then apply
        # the filters; their sizes are observed on the join phase's action.
        join_inputs, observations = reduced, {}
        if strategy == "pred_trans" and collect:
            join_inputs, observations = _observe_counts(reduced)
        t1 = time.perf_counter()
        joined, res.measures = execute_join_phase(
            spec, join_inputs, join_order=order, step_blooms=step_blooms, measure=measure
        )
        res.df = spec.finalize(joined, res.scalars)
        if collect:
            res.rows = res.df.collect()
        res.join_s = time.perf_counter() - t1
        if observations:
            res.reduced_sizes = _observed_counts(reduced, observations, res.df)
    except BaseException:
        res.cleanup()  # the caller gets no result to clean up
        raise
    return res
