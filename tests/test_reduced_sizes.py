"""Pred-Trans hands its lazy reduced tables to the join phase and reads
their sizes from ``Observation`` metrics on the join phase's action: the
sizes must stay exact, and nothing may be persisted or counted for them
on the way. Yannakakis still materializes its exact semi-joins."""
import time

import pytest
from pyspark.sql import Observation
from pyspark.sql import functions as F

from repro import queries
from repro.core import strategies
from repro.core.spec import Edge, QuerySpec, TableRef
from repro.core.strategies import run_query


def _recording(monkeypatch, name):
    """Replace ``strategies.<name>`` by a wrapper that keeps the reduced
    tables of its last call (the main block's: sub-queries run first)."""
    fn = getattr(strategies, name)
    last = {}

    def wrapper(*args, **kwargs):
        reduced, extra = fn(*args, **kwargs)
        last["reduced"] = reduced
        return reduced, extra

    monkeypatch.setattr(strategies, name, wrapper)
    return last


@pytest.mark.parametrize("name", ["q04", "q05", "q17", "q18"])
def test_pred_trans_reduced_sizes_exact(spark, tpch_small, monkeypatch, name):
    """q17's ``part`` is empty at this scale factor, so AQE drops the
    observed branches and the sizes come from the fallback count; q18
    joins its persisted sub-query output without a shuffle."""
    last = _recording(monkeypatch, "predicate_transfer")
    rr = run_query(spark, queries.build(name, tpch_small.spark), "pred_trans")
    try:
        expected = {t: df.count() for t, df in last["reduced"].items()}
        assert rr.reduced_sizes == expected
    finally:
        rr.cleanup()


def test_yannakakis_reduced_sizes_exact(spark, tpch_small, monkeypatch):
    last = _recording(monkeypatch, "yannakakis_reduce")
    rr = run_query(spark, queries.build("q05", tpch_small.spark), "yannakakis")
    try:
        expected = {t: df.count() for t, df in last["reduced"].items()}
        assert rr.reduced_sizes and rr.reduced_sizes == expected
    finally:
        rr.cleanup()


def _storage_bytes(spark):
    """Spark storage memory in use, once asynchronous unpersists settle."""
    sc = spark.sparkContext._jsc.sc()
    now = sum(info.memSize() for info in sc.getRDDStorageInfo())
    for _ in range(20):
        time.sleep(0.1)
        before, now = now, sum(info.memSize() for info in sc.getRDDStorageInfo())
        if now == before:
            break
    return now


def test_pred_trans_persists_nothing_and_counts_once(spark, tpch_small, monkeypatch):
    calls = []
    count_all = strategies._count_all

    def counting(tables):
        calls.append(sorted(tables))
        return count_all(tables)

    monkeypatch.setattr(strategies, "_count_all", counting)
    spec = queries.build("q05", tpch_small.spark)
    before = _storage_bytes(spark)
    rr = run_query(spark, spec, "pred_trans")
    try:
        assert _storage_bytes(spark) == before
        assert calls == [sorted(spec.tables)], "only the size count runs"
        assert set(rr.reduced_sizes) == set(spec.tables)
    finally:
        rr.cleanup()


def test_prepartitioned_input_counted_exactly(spark):
    """``big`` is already partitioned on the join key, so it reaches the
    sort-merge join without a shuffle, and the join never reads the
    partitions whose ``small`` side is empty: its observed count would
    be short. ``transfer="none"`` keeps those rows in the reduced table."""
    n = int(spark.conf.get("spark.sql.shuffle.partitions"))
    big = spark.range(1000).select((F.col("id") % 50).alias("a_k"), F.col("id").alias("a_v"))
    big = big.repartition(n, "a_k").persist()
    big.count()
    small = spark.range(5).select(F.col("id").alias("b_k"))
    spec = QuerySpec(
        name="prepartitioned",
        tables={"small": TableRef(df=small), "big": TableRef(df=big)},
        edges=[Edge("small", ("b_k",), "big", ("a_k",), transfer="none")],
        join_order=["small", "big"],
        finalize=lambda df, scalars: df.select("a_v"),
    )
    rr = run_query(spark, spec, "pred_trans")
    try:
        assert len(rr.rows) == 100
        assert rr.reduced_sizes == {"small": 5, "big": 1000}
    finally:
        rr.cleanup()
        big.unpersist()


class TestSparkInternals:
    """The sizes rely on Spark behaviour that is not public API: an
    upgrade that changes it must fail here."""

    def test_fired_observation_is_one_long(self, spark):
        obs = Observation()
        spark.range(100).observe(obs, F.count(F.lit(1)).alias("n")).collect()
        row = obs._jo.getRow()
        assert row.length() == 1 and row.getLong(0) == 100

    def test_dropped_observation_is_empty_row(self, spark):
        """AQE drops the observed branch of a join whose other input is
        empty at run time; the observation then completes empty."""
        empty = spark.range(10).filter("id < 0").persist()
        empty.count()
        obs = Observation()
        observed = spark.range(100).observe(obs, F.count(F.lit(1)).alias("n"))
        try:
            assert empty.join(observed, "id").collect() == []
            assert obs._jo.getRow().length() == 0
        finally:
            empty.unpersist()

    def test_plan_text_names_partly_read_observation(self, spark):
        n = int(spark.conf.get("spark.sql.shuffle.partitions"))
        big = spark.range(100).select(F.col("id").alias("k")).repartition(n, "k").persist()
        big.count()
        inner, outer = Observation(), Observation()
        small = spark.range(5).observe(outer, F.count(F.lit(1)).alias("n"))
        joined = small.join(big.observe(inner, F.count(F.lit(1)).alias("n")), small.id == big.k)
        try:
            assert len(joined.collect()) == 5
            partly = strategies._partly_read_observations(joined)
            assert inner._jo.name() in partly, "no shuffle between the join and its input"
            assert outer._jo.name() not in partly, "a shuffle reads all of its input"
        finally:
            big.unpersist()
