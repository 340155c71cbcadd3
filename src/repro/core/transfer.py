"""The predicate transfer phase (the paper's core contribution, §3.2).

Given locally-filtered tables and the join-graph edges:

1. Orient every edge small→big → the predicate transfer graph (a DAG).
2. **Forward pass** in topological order: each node applies every Bloom
   filter received so far, then builds all outgoing filters in a single
   scan (``build_blooms``) and sends them along its out-edges.
3. **Backward pass**: all edges reversed (minus §3.4 one-way edges),
   same procedure in reverse topological order.

Each table's reduced form is its local-filtered base plus every filter
it received across both passes, left lazy for the join phase to probe. The reduction is sound by construction:
a Bloom filter has no false negatives, so only rows whose join key is
absent from the (already reduced) neighbour are dropped — rows that
could never reach the join result.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Sequence, Tuple

from pyspark.sql import DataFrame

from repro.bloom.spark_bloom import BloomSpec, SparkBloomFilter, apply_blooms, build_blooms
from repro.core.graph import DirectedEdge, orient, reverse_dag, topological_order
from repro.core.spec import Edge


@dataclass
class TransferStats:
    """What the transfer phase did (for tests and EXPERIMENTS.md)."""

    dag: List[DirectedEdge] = field(default_factory=list)
    topo: List[str] = field(default_factory=list)
    n_scans: int = 0  # table scans used to build filters
    n_filters_built: int = 0
    n_filters_applied: int = 0
    received: Dict[str, int] = field(default_factory=dict)  # table -> #filters


def _run_pass(
    pass_edges: Sequence[DirectedEdge],
    node_order: Sequence[str],
    tables: Mapping[str, DataFrame],
    received: Dict[str, List[Tuple[Tuple[str, ...], SparkBloomFilter]]],
    sizes: Mapping[str, int],
    fpp: float,
    stats: TransferStats,
) -> None:
    """One direction of transfer: walk ``node_order``; at each node with
    outgoing edges, apply received filters and build all outgoing
    filters with one scan (shared per distinct key set)."""
    by_src: Dict[str, List[DirectedEdge]] = {}
    for d in pass_edges:
        by_src.setdefault(d.src, []).append(d)
    for t in node_order:
        outs = by_src.get(t)
        if not outs:
            continue
        df = apply_blooms(tables[t], received[t])
        key_sets = sorted({d.src_cols for d in outs})
        specs = [
            BloomSpec(cols=ks, expected_items=sizes.get(t, 1), fpp=fpp)
            for ks in key_sets
        ]
        blooms = dict(zip(key_sets, build_blooms(df, specs)))
        stats.n_scans += 1
        stats.n_filters_built += len(specs)
        for d in outs:
            received[d.dst].append((d.dst_cols, blooms[d.src_cols]))
            stats.n_filters_applied += 1


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
    stats = TransferStats()
    nodes = list(tables)
    dag = orient(edges, sizes)
    topo = topological_order(nodes, dag)
    stats.dag, stats.topo = list(dag), list(topo)
    received: Dict[str, List[Tuple[Tuple[str, ...], SparkBloomFilter]]] = {
        t: [] for t in nodes
    }
    _run_pass(dag, topo, tables, received, sizes, fpp, stats)
    _run_pass(reverse_dag(dag), list(reversed(topo)), tables, received, sizes, fpp, stats)
    reduced: Dict[str, DataFrame] = {}
    for t in nodes:
        reduced[t] = apply_blooms(tables[t], received[t])
        stats.received[t] = len(received[t])
    return reduced, stats
