"""Figure-4 machinery: Q5 under alternative join orders must produce
identical results for every strategy (conditions are derived from the
edge set, not the order); an order that does not fit the spec is
refused before any Spark job."""
import pytest

from repro import queries
from repro.core.strategies import run_query
from repro.oracle import assert_equivalent
from repro.queries.q05 import JOIN_ORDERS


@pytest.mark.parametrize("order_name", sorted(JOIN_ORDERS))
@pytest.mark.parametrize("strategy", ["no_pred_trans", "pred_trans"])
def test_q5_join_orders_equivalent(spark, tpch_small, order_name, strategy):
    spec = queries.build("q05", tpch_small.spark)
    rr = run_query(spark, spec, strategy, join_order=JOIN_ORDERS[order_name])
    try:
        assert_equivalent(rr.df, spec.oracle_sql, **tpch_small.pandas)
    finally:
        rr.cleanup()


def test_orders_are_permutations():
    ref = sorted(JOIN_ORDERS["order1"])
    for order in JOIN_ORDERS.values():
        assert sorted(order) == ref


def test_orders_differ():
    assert len({tuple(o) for o in JOIN_ORDERS.values()}) == 3


@pytest.mark.parametrize(
    "kwargs,message",
    [
        ({"join_order": JOIN_ORDERS["order1"][:-1]}, r"does not cover tables.*'region'"),
        ({"join_order": JOIN_ORDERS["order1"] + ["nation"]}, r"duplicates: \['nation'\]"),
    ],
    ids=["missing_table", "duplicate_table"],
)
def test_bad_order_or_root_rejected_before_any_job(spark, tpch_small, kwargs, message):
    spec = queries.build("q05", tpch_small.spark)
    sc = spark.sparkContext
    sc.setJobGroup("rejected-run", "run_query with a bad argument")
    try:
        with pytest.raises(ValueError, match=message):
            run_query(spark, spec, "yannakakis", **kwargs)
        assert sc.statusTracker().getJobIdsForGroup("rejected-run") == []
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
