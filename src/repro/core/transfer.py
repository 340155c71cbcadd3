"""The pre-filter phase: one walker over a schedule of directed
transfers, with a Bloom and an exact reduction.

A schedule lists steps ``(src, [DirectedEdge])``; every one is built
from ``graph.dag_steps`` passes, which keep only the transfers each
edge's mode allows (``graph.two_pass``, ``graph.tree_steps``,
``graph.order_steps``). At each step ``send`` turns ``src``, reduced by
all it has received so far, into one message per out-edge.
``run_steps`` queues each message for the edge's destination and
applies a table's queued messages once (``apply``): when the table
next sends, or at the end.

- **Pred-Trans** (the paper's contribution, §3.2): ``graph.two_pass``
  over the small→big DAG (``graph.small_to_big``), a forward pass up
  the tables' ``(size, name)`` order, then a backward pass down it over
  the reversed DAG; a §3.4 one-way edge is sent in the one pass that
  has its allowed direction. Less every transfer that carries no
  predicate (``graph.carrying_steps``):
  one from a table with no predicate of its own that has heard nothing,
  or only its destination over the same keys. A step builds one Bloom
  filter per distinct key set of its out-edges in a single scan
  (``bloom_sender``); ``apply_blooms`` probes them. The reduced tables
  stay lazy for the join phase's scans to probe. Sound by construction:
  a Bloom filter has no false negatives, so only rows whose join key is
  absent from the (already reduced) neighbour are dropped, and a
  transfer left out only keeps more rows.
- **Bloom Join** (§2.1) sends with the same ``bloom_sender`` over
  ``order_steps``, but its filters probe the accumulated join plan
  (``executor.execute_join_phase``), so it does not walk ``run_steps``.
- **Yannakakis** (§2.2, evaluated in §4): child→parent then
  parent→child over a BFS join tree (cycle edges dropped, the paper's
  §4.1 extension for cyclic queries), ``graph.two_pass`` over the
  tree's child→parent edges (``graph.tree_steps``). A message is the
  reduced source table and ``apply_semi_joins`` folds exact ``LEFT SEMI``
  joins; with broadcast joins disabled these shuffle both inputs, this
  substrate's analogue of the paper's "costly hash table probes".
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import and_
from typing import Callable, Dict, List, Mapping, Sequence, Set, Tuple

from pyspark.sql import DataFrame

from repro.bloom.spark_bloom import apply_blooms, build_blooms
from repro.core.graph import DirectedEdge, JoinTree, Step, bfs_join_tree, carrying_steps
from repro.core.graph import small_to_big, tree_steps, two_pass
from repro.core.spec import Edge


@dataclass
class TransferStats:
    """What the transfer phase did (for tests and EXPERIMENTS.md)."""

    dag: List[DirectedEdge]
    order: List[str]  # (size, name) order; the forward pass goes up it
    steps: List[Step]

    @property
    def received(self) -> Dict[str, int]:  # table -> #filters
        return {t: sum(d.dst == t for _, outs in self.steps for d in outs) for t in self.order}

    @property
    def n_scans(self) -> int:  # table scans used to build filters
        return len(self.steps)

    @property
    def n_filters_built(self) -> int:
        return sum(len({d.src_cols for d in outs}) for _, outs in self.steps)

    @property
    def n_filters_applied(self) -> int:
        return sum(self.received.values())


def run_steps(
    tables: Mapping[str, DataFrame], steps: Sequence[Step], send: Callable, apply: Callable
) -> Dict[str, DataFrame]:
    """Walk ``steps``; returns every table reduced by all it received,
    each message applied once."""
    current = dict(tables)
    pending: Dict[str, list] = {t: [] for t in tables}

    def reduced(t: str) -> DataFrame:
        if pending[t]:
            current[t], pending[t] = apply(current[t], pending[t]), []
        return current[t]

    for src, outs in steps:
        for d, msg in zip(outs, send(src, reduced(src), outs)):
            pending[d.dst].append(msg)
    return {t: reduced(t) for t in tables}


def bloom_sender(sizes: Mapping[str, int]) -> Callable:
    """The Bloom reduction's ``send``: one filter per distinct key set of
    the out-edges, all built in one scan and sized by the sender's
    ``sizes`` entry."""

    def send(src: str, df: DataFrame, outs: List[DirectedEdge]) -> list:
        key_sets = sorted({d.src_cols for d in outs})
        blooms = dict(zip(key_sets, build_blooms(df, key_sets, sizes.get(src, 1))))
        return [(d.dst_cols, blooms[d.src_cols]) for d in outs]

    return send


def predicate_transfer(
    tables: Mapping[str, DataFrame],
    edges: Sequence[Edge],
    sizes: Mapping[str, int],
    filtered: Set[str],
) -> Tuple[Dict[str, DataFrame], TransferStats]:
    """Run both passes with filters sized by ``sizes`` (``bloom_sender``),
    less the transfers that carry no predicate: ``filtered`` names the
    tables with a predicate of their own (``QuerySpec.filtered``), and
    ``graph.carrying_steps`` drops every transfer from another table that
    has heard nothing, or only its destination over the same keys.
    Returns per-table reduced DataFrames and the transfer statistics of
    the schedule that ran. The reduced tables are lazy: each is its input
    plus the filters over every Bloom filter it received, which the join
    phase's scans apply (nothing is materialized here)."""
    order, dag = small_to_big(list(tables), edges, sizes)
    steps = carrying_steps(two_pass(dag, order), filtered)
    reduced = run_steps(tables, steps, bloom_sender(sizes), apply_blooms)
    return reduced, TransferStats(dag, order, steps)


def send_tables(src: str, df: DataFrame, outs: List[DirectedEdge]) -> list:
    """The exact reduction's messages: the reduced source table, per edge."""
    return [(d, df) for d in outs]


def apply_semi_joins(df: DataFrame, received: Sequence[Tuple[DirectedEdge, DataFrame]]) -> DataFrame:
    """``df ⋉ src`` for every received ``(edge, src)``, on the equi keys
    only: an edge's extra non-equi condition is left out, which keeps a
    superset of the necessary rows and is still sound."""
    for d, src in received:
        cond = reduce(and_, [df[a] == src[b] for a, b in zip(d.dst_cols, d.src_cols)])
        df = df.join(src, cond, "leftsemi")
    return df


def yannakakis_reduce(
    tables: Mapping[str, DataFrame], edges: Sequence[Edge], root: str
) -> Tuple[Dict[str, DataFrame], JoinTree]:
    """Both semi-join passes over the BFS join tree from ``root``;
    returns the reduced (lazy) tables and the tree used."""
    tree = bfs_join_tree(list(tables), edges, root)
    return run_steps(tables, tree_steps(tree), send_tables, apply_semi_joins), tree
