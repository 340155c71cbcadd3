"""Join-phase executor: a fold over the left-deep plan of a join order
(``spec.left_deep``), the plan ``spec.validate`` checks.

All four strategies share this executor — they differ only in how the
input tables were pre-filtered (and, for Bloom Join, in the per-step
probe-side filters). Each step's join condition is the conjunction of
the plan's edges joining the incoming table to the tables already
placed, so alternative join orders (Figure 4) need no per-order
condition plumbing.

``measure=True`` counts each join's build-side (HT) and probe-side (PR)
input rows — the instrumentation behind the paper's Table 1.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import reduce
from operator import and_
from typing import List, Mapping, Optional, Sequence, Tuple

from pyspark.sql import Column, DataFrame

from repro.bloom.spark_bloom import SparkBloomFilter, apply_blooms
from repro.core.spec import Edge, QuerySpec, left_deep, validate

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
    cond = reduce(and_, [ldf[lc] == rdf[rc] for lc, rc in zip(e.left_cols, e.right_cols)])
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
    DataFrame (pre-``finalize``) and the per-join measurements. Raises
    ``ValueError`` if ``validate`` rejects the spec with that order."""
    order = list(join_order or spec.join_order)
    if problems := validate(replace(spec, join_order=order)):
        raise ValueError(f"{spec.name}: " + "; ".join(problems))
    acc = tables[order[0]]
    measures: List[JoinMeasure] = []
    for step, (t, conn) in enumerate(left_deep(spec.edges, order), start=1):
        right = tables[t]
        how = conn[0].how  # a semi/anti table joins by its one edge
        if step_blooms:
            acc = apply_blooms(acc, step_blooms.get(t, ()))
        if measure:
            measures.append(
                JoinMeasure(step, t, how, ht_rows=right.count(), pr_rows=acc.count())
            )
        cond = reduce(and_, [_edge_condition(e, acc, right, incoming=t) for e in conn])
        acc = acc.join(right, cond, _HOW[how])
    return acc, measures
