"""Join-phase executor: a left-deep plan derived from the spec's join
graph and a join order.

All four strategies share this executor — they differ only in how the
input tables were pre-filtered (and, for Bloom Join, in the per-step
probe-side filters). Join conditions are derived from whichever edges
connect the incoming table to the tables already placed, so alternative
join orders (Figure 4) need no per-order condition plumbing.

``measure=True`` counts each join's build-side (HT) and probe-side (PR)
input rows — the instrumentation behind the paper's Table 1.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from pyspark.sql import Column, DataFrame

from repro.bloom.spark_bloom import SparkBloomFilter, apply_blooms
from repro.core.spec import Edge, QuerySpec

_HOW = {"inner": "inner", "semi": "leftsemi", "anti": "left_anti"}


@dataclass
class JoinMeasure:
    """Input sizes of one join step (Table 1's HT / PR columns)."""

    step: int
    table: str
    how: str
    ht_rows: int  # build side = the incoming table
    pr_rows: int  # probe side = the accumulated plan (post step-filters)


#: Per-step probe-side filters for the Bloom Join strategy:
#: table being joined -> [(probe-side key cols, bloom filter)].
StepBlooms = Mapping[str, Sequence[Tuple[Tuple[str, ...], SparkBloomFilter]]]


def _edge_condition(e: Edge, acc: DataFrame, right: DataFrame, incoming: str) -> Column:
    """Equi condition (+ extra) for edge ``e`` when table ``incoming``
    is being folded into ``acc``. ``e.extra`` always receives the
    DataFrame holding the edge's *left* table first."""
    ldf, rdf = (right, acc) if e.left == incoming else (acc, right)
    cond = None
    for lc, rc in zip(e.left_cols, e.right_cols):
        c = ldf[lc] == rdf[rc]
        cond = c if cond is None else (cond & c)
    if e.extra is not None:
        cond = cond & e.extra(ldf, rdf)
    return cond


def execute_join_phase(
    spec: QuerySpec,
    tables: Mapping[str, DataFrame],
    join_order: Optional[Sequence[str]] = None,
    step_blooms: Optional[StepBlooms] = None,
    measure: bool = False,
) -> Tuple[DataFrame, List[JoinMeasure]]:
    """Fold ``join_order`` left-deep over ``tables``; returns the joined
    DataFrame (pre-``finalize``) and the per-join measurements."""
    order = list(join_order or spec.join_order)
    acc = tables[order[0]]
    placed = {order[0]}
    measures: List[JoinMeasure] = []
    for step, t in enumerate(order[1:], start=1):
        right = tables[t]
        conn = spec.connecting_edges(t, placed)
        if not conn:
            raise ValueError(f"{spec.name}: join order disconnects at {t}")
        hows = {e.how for e in conn}
        if hows <= {"inner"}:
            how = "inner"
        elif len(conn) == 1:
            how = conn[0].how
        else:
            raise ValueError(f"{spec.name}: {t} mixes semi/anti with other edges")
        if step_blooms:
            acc = apply_blooms(acc, step_blooms.get(t, ()))
        if measure:
            measures.append(
                JoinMeasure(step, t, how, ht_rows=right.count(), pr_rows=acc.count())
            )
        cond = None
        for e in conn:
            c = _edge_condition(e, acc, right, incoming=t)
            cond = c if cond is None else (cond & c)
        acc = acc.join(right, cond, _HOW[how])
        placed.add(t)
    return acc, measures
