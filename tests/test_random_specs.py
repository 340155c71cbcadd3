"""Soundness on random specs, with Spark: Pred-Trans, Bloom Join and
Yannakakis return No-Pred-Trans's rows. The specs are small chains,
stars and cycles whose tables hold duplicate and null keys, with inner
edges in every transfer mode, an optional semi or anti leaf and random
local predicates. The example budget is fixed and derandomized, so the
test takes about a minute at most."""
from collections import Counter

import pandas as pd
from hypothesis import given, settings
from hypothesis import strategies as st
from pyspark.sql import functions as F

from repro.core.spec import Edge, QuerySpec, TableRef
from repro.core.strategies import run_query
from tests.test_schedule_properties import MODES, join_graphs

BUDGET = settings(max_examples=25, deadline=None, derandomize=True, database=None)
#: The share of null keys, and the values of the local-predicate columns.
NULLS = 0.15
VALUES = (0, 1, 2, 2, None)


@st.composite
def random_specs(draw):
    """``(columns, edges, join_order, predicates)``: ``join_graphs`` over
    2–4 tables, all inner; maybe a leaf ``L`` on a semi or anti edge,
    joined last; a BFS join order from a random root; per table, a pandas
    frame of nullable ints (keys 0–2, repeated, some null) and a lower
    bound on its ``_v`` column, or none (three in five)."""
    names, edges = draw(join_graphs(max_tables=4))
    order = [draw(st.sampled_from(names))]
    while len(order) < len(names):
        near = {e.other(t) for t in order for e in edges if t in (e.left, e.right)}
        order += sorted(near - set(order))
    how = draw(st.sampled_from(["anti", "semi", None]))
    if how:
        host = draw(st.sampled_from(names))
        mode = "ltr" if how == "anti" else draw(st.sampled_from(MODES))
        edges.append(Edge(host, (f"{host.lower()}_kl",), "L", ("l_kl",), how=how, transfer=mode))
        order.append("L")
    # The rows come from one generator seeded by hypothesis: its own
    # draws lean to the simplest values, which rarely join.
    rng = draw(st.randoms(use_true_random=True))
    columns = {}
    for t in order:
        keys = [c for e in edges for c in (e.cols_of(t) if t in (e.left, e.right) else ())]
        rows = []
        for _ in range(rng.randint(3, 8)):
            # A row's keys share one value, or are null, so rows join
            # across every edge of a cycle as well as a chain.
            g = rng.randrange(3)
            rows.append([None if rng.random() < NULLS else g for _ in keys] + [rng.choice(VALUES)])
        columns[t] = pd.DataFrame(rows, columns=keys + [f"{t.lower()}_v"], dtype="Int64")
    predicates = {t: rng.choice((None, None, None, 1, 2)) for t in order}
    return columns, edges, order, predicates


def _spec(spark, columns, edges, order, predicates) -> QuerySpec:
    tables = {}
    for t, pdf in columns.items():
        df = spark.createDataFrame(pdf, ", ".join(f"{c} int" for c in pdf.columns))
        bound = predicates[t]
        predicate = None if bound is None else F.col(f"{t.lower()}_v") >= bound
        tables[t] = TableRef(df=df, predicate=predicate)
    return QuerySpec("random", tables, edges, order, finalize=lambda df, s: df)


def _rows(spark, spec, strategy) -> Counter:
    rr = run_query(spark, spec, strategy)
    try:
        return Counter(tuple(r) for r in rr.rows)
    finally:
        rr.cleanup()


@BUDGET
@given(random_specs())
def test_prefilters_keep_the_join_result(spark, drawn):
    spec = _spec(spark, *drawn)
    expected = _rows(spark, spec, "no_pred_trans")
    for strategy in ("pred_trans", "bloom_join", "yannakakis"):
        assert _rows(spark, spec, strategy) == expected, strategy
