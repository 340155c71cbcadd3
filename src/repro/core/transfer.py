"""The pre-filter phase of Pred-Trans and Yannakakis: one walker over a
schedule of directed transfers, with a Bloom and an exact reduction.

A schedule (``graph.dag_steps``, ``graph.tree_steps``) lists steps
``(src, [DirectedEdge])``. At each step ``run_steps`` reduces ``src`` by
all it has received so far (``apply``), and ``send`` turns that into one
message per out-edge, queued for the edge's destination. A table's
reduced form is ``apply`` over everything it received.

- **Pred-Trans** (the paper's contribution, §3.2): a forward pass over
  the small→big DAG in topological order, then a backward pass over the
  reversed DAG (minus §3.4 one-way edges). A step builds one Bloom filter
  per distinct key set of its out-edges in a single scan
  (``build_blooms``); ``apply_blooms`` probes them. The reduced tables
  stay lazy for the join phase's scans to probe. Sound by construction:
  a Bloom filter has no false negatives, so only rows whose join key is
  absent from the (already reduced) neighbour are dropped.
- **Yannakakis** (§2.2, evaluated in §4): child→parent then
  parent→child over a BFS join tree (cycle edges dropped, the paper's
  §4.1 extension for cyclic queries). A message is the reduced source
  table and ``apply_semi_joins`` folds exact ``LEFT SEMI`` joins; with
  broadcast joins disabled these shuffle both inputs, this substrate's
  analogue of the paper's "costly hash table probes".
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import and_
from typing import Callable, Dict, List, Mapping, Sequence, Tuple

from pyspark.sql import DataFrame

from repro.bloom.spark_bloom import BloomSpec, apply_blooms, build_blooms
from repro.core.graph import DirectedEdge, JoinTree, Step, bfs_join_tree, dag_steps, orient
from repro.core.graph import reverse_dag, topological_order, tree_steps
from repro.core.spec import Edge


@dataclass
class TransferStats:
    """What the transfer phase did (for tests and EXPERIMENTS.md)."""

    dag: List[DirectedEdge]
    topo: List[str]
    steps: List[Step]
    received: Dict[str, int]  # table -> #filters

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
) -> Dict[str, list]:
    """Walk ``steps``; returns every table's received messages in order."""
    received: Dict[str, list] = {t: [] for t in tables}
    for src, outs in steps:
        for d, msg in zip(outs, send(src, apply(tables[src], received[src]), outs)):
            received[d.dst].append(msg)
    return received


def predicate_transfer(
    tables: Mapping[str, DataFrame],
    edges: Sequence[Edge],
    sizes: Mapping[str, int],
    fpp: float = 0.01,
) -> Tuple[Dict[str, DataFrame], TransferStats]:
    """Run both passes; returns per-table reduced DataFrames and the
    transfer statistics. The reduced tables are lazy: each is its input
    plus one filter over every Bloom filter it received, which the join
    phase's scans apply (nothing is materialized here)."""
    dag = orient(edges, sizes)
    topo = topological_order(list(tables), dag)
    steps = dag_steps(dag, topo) + dag_steps(reverse_dag(dag), topo[::-1])

    def send(src: str, df: DataFrame, outs: List[DirectedEdge]) -> list:
        key_sets = sorted({d.src_cols for d in outs})
        specs = [BloomSpec(ks, sizes.get(src, 1), fpp) for ks in key_sets]
        blooms = dict(zip(key_sets, build_blooms(df, specs)))
        return [(d.dst_cols, blooms[d.src_cols]) for d in outs]

    received = run_steps(tables, steps, send, apply_blooms)
    reduced = {t: apply_blooms(df, received[t]) for t, df in tables.items()}
    return reduced, TransferStats(dag, topo, steps, {t: len(r) for t, r in received.items()})


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
    received = run_steps(tables, tree_steps(tree), send_tables, apply_semi_joins)
    return {t: apply_semi_joins(df, received[t]) for t, df in tables.items()}, tree
