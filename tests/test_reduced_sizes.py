"""Pred-Trans hands its lazy reduced tables to the join phase and
persists and counts nothing for them during the run: ``reduced_sizes``
counts them, exactly, when it is first read (a read after ``cleanup()``
recomputes the inputs it released). The sizes after local predicates
(``RunResult.sizes``) are exact too, read from Spark's cache for a
persisted table and counted only for the rest. Yannakakis still
materializes its exact semi-joins, and a run that raises releases
whatever it persisted."""
import time
from types import SimpleNamespace

import pytest
from pyspark.sql import functions as F

from repro import queries
from repro.core import strategies
from repro.core.spec import Edge, QuerySpec, SubQuery, TableRef
from repro.core.strategies import STRATEGIES, run_query


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
    """q17's ``part`` is empty at this scale factor, so AQE would skip
    join inputs that the join phase never reads; q18 joins its persisted
    sub-query output without a shuffle. Neither matters to a count of
    the reduced tables themselves."""
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


def _counted(monkeypatch):
    """The sorted table names of every ``strategies._count_all`` call."""
    calls = []
    count_all = strategies._count_all

    def counting(tables):
        calls.append(sorted(tables))
        return count_all(tables)

    monkeypatch.setattr(strategies, "_count_all", counting)
    return calls


def test_pred_trans_persists_nothing_and_counts_once(spark, tpch_small, monkeypatch):
    """The run's one count is the size count, of the tables with a local
    predicate: the others are persisted base tables, read from the cache.
    The first read of ``reduced_sizes`` counts the reduced tables in one
    more action; a second read counts nothing."""
    calls = _counted(monkeypatch)
    spec = queries.build("q05", tpch_small.spark)
    before = _storage_bytes(spark)
    rr = run_query(spark, spec, "pred_trans")
    try:
        assert _storage_bytes(spark) == before
        with_predicate = sorted(t for t, ref in spec.tables.items() if ref.predicate is not None)
        assert with_predicate == ["orders", "region"]
        assert calls == [with_predicate], "only the size count runs"
        first = rr.reduced_sizes
        assert len(calls) == 2, "the first read counts once"
        assert rr.reduced_sizes is first and len(calls) == 2, "the second read counts nothing"
        assert set(rr.sizes) == set(first) == set(spec.tables)
    finally:
        rr.cleanup()


def test_pred_trans_sub_query_run_reports_reduced_sizes(spark, tpch_small, monkeypatch):
    """A ``collect=False`` run (how a sub-query block runs) reports exact
    reduced sizes too."""
    last = _recording(monkeypatch, "predicate_transfer")
    spec = queries.build("q05", tpch_small.spark)
    rr = run_query(spark, spec, "pred_trans", collect=False)
    try:
        assert rr.rows is None
        expected = {t: df.count() for t, df in last["reduced"].items()}
        assert set(expected) == set(spec.tables)
        assert rr.reduced_sizes == expected
    finally:
        rr.cleanup()


@pytest.mark.parametrize("name", ["q17", "q18"])
def test_yannakakis_counts_only_uncached_tables(spark, tpch_small, monkeypatch, name):
    """Yannakakis's materializing count skips a table already in Spark's
    cache: q17's ``avgqty`` and q18's ``bigorders`` sub-queries read the
    unfiltered, cached ``lineitem``, whose size the cache holds."""
    counted = []
    count_all = strategies._count_all

    def counting(tables):
        counted.extend((t, strategies._cached_rows(df)) for t, df in tables.items())
        return count_all(tables)

    monkeypatch.setattr(strategies, "_count_all", counting)
    rr = run_query(spark, queries.build(name, tpch_small.spark), "yannakakis")
    try:
        assert counted, "the semi-joins are materialized"
        assert [t for t, n in counted if n is not None] == []
        assert rr.reduced_sizes
    finally:
        rr.cleanup()


@pytest.mark.parametrize("strategy", ["pred_trans", "bloom_join"])
@pytest.mark.parametrize("name", queries.ALL)
def test_sizes_exact(spark, tpch_small, monkeypatch, name, strategy):
    """Every size a run reads, in the main block and in each sub-query
    block, equals a ``count()`` of its table, whether it came from the
    cache (a base table, a sub-query output such as q02's, q11's, q17's
    and q18's) or from the count."""
    calls = []
    sizes = strategies._sizes

    def recording(tables):
        calls.append((tables, sizes(tables)))
        return calls[-1][1]

    monkeypatch.setattr(strategies, "_sizes", recording)
    spec = queries.build(name, tpch_small.spark)
    rr = run_query(spark, spec, strategy)
    try:
        assert calls and rr.sizes == calls[-1][1], "the main block's sizes run last"
        if strategy == "pred_trans":
            assert set(rr.sizes) == set(spec.tables)
        for tables, got in calls:
            assert got == {t: df.count() for t, df in tables.items()}
    finally:
        rr.cleanup()


def test_q12_counts_only_the_filtered_table(spark, tpch_small, monkeypatch):
    """q12's ``orders`` has no predicate: Pred-Trans reads its size from
    the cache and counts only ``lineitem``; Bloom Join's one sender is
    ``orders``, so it counts nothing and its pre-filter phase is the one
    filter build's Spark job."""
    calls = _counted(monkeypatch)
    spec = queries.build("q12", tpch_small.spark)
    rr = run_query(spark, spec, "pred_trans")
    rr.cleanup()
    assert calls == [["lineitem"]]
    assert set(rr.sizes) == {"orders", "lineitem"}
    assert rr.sizes["orders"] == len(tpch_small.pandas["orders"])

    calls.clear()
    sc = spark.sparkContext
    join_phase = strategies.execute_join_phase

    def in_join_group(*args, **kwargs):
        sc.setJobGroup("q12-join", "join phase")
        return join_phase(*args, **kwargs)

    monkeypatch.setattr(strategies, "execute_join_phase", in_join_group)
    sc.setJobGroup("q12-prefilter", "pre-filter phase")
    try:
        rr = run_query(spark, spec, "bloom_join")
        rr.cleanup()
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    assert calls == []
    assert rr.sizes == {"orders": len(tpch_small.pandas["orders"])}
    sc._jsc.sc().listenerBus().waitUntilEmpty()
    assert len(sc.statusTracker().getJobIdsForGroup("q12-prefilter")) == 1
    assert sc.statusTracker().getJobIdsForGroup("q12-join"), "the join phase ran"


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("name", ["q17", "q18"])
def test_cleanup_keeps_base_tables_cached(spark, tpch_small, name, strategy):
    """A run releases only what it persisted itself. q17's and q18's
    sub-queries read ``lineitem`` unfiltered, and a table that receives
    no transfer is the caller's own DataFrame."""
    run_query(spark, queries.build(name, tpch_small.spark), strategy).cleanup()
    for t, df in tpch_small.spark.items():
        assert strategies._cached_rows(df) == len(tpch_small.pandas[t]), t


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_failed_run_releases_what_it_persisted(spark, strategy):
    """The group-by sub-query's output (and, under Yannakakis, every
    reduced table) is persisted before the main block's ``finalize``
    raises; the caller never gets a result to clean up."""
    # Distinct rows per strategy: Spark caches equal plans only once.
    n = 100 + STRATEGIES.index(strategy)
    base = spark.range(n).select((F.col("id") % 10).alias("b_k"), F.col("id").alias("b_v"))
    grouped = QuerySpec(
        name="grouped",
        tables={"base": TableRef(df=base)},
        edges=[],
        join_order=["base"],
        finalize=lambda df, scalars: df.groupBy("b_k").agg(F.sum("b_v").alias("g_v")),
    )
    keys = spark.range(5).select(F.col("id").alias("k_k"))

    def finalize(df, scalars):
        raise RuntimeError("finalize failed")

    spec = QuerySpec(
        name="failing",
        tables={"g": TableRef(subquery="agg"), "keys": TableRef(df=keys)},
        edges=[Edge("keys", ("k_k",), "g", ("b_k",))],
        join_order=["keys", "g"],
        finalize=finalize,
        subqueries=[SubQuery("agg", grouped)],
    )
    before = _storage_bytes(spark)
    with pytest.raises(RuntimeError, match="finalize failed"):
        run_query(spark, spec, strategy)
    assert _storage_bytes(spark) == before


def test_prepartitioned_input_counted_exactly(spark):
    """``big`` is already partitioned on the join key, so it reaches the
    sort-merge join without a shuffle, and the join never reads the
    partitions whose ``small`` side is empty: a count taken off the join
    would be short. ``transfer="none"`` keeps those rows in the reduced
    table, and ``reduced_sizes`` counts the table itself."""
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

    @pytest.mark.parametrize(
        "name, methods",
        [
            (strategies.CACHE_MANAGER, ["lookupCachedData"]),
            (strategies.CACHED_DATA, ["cachedRepresentation"]),
            (strategies.IN_MEMORY_RELATION, ["cacheBuilder", "computeStats"]),
            (strategies.CACHE_BUILDER, ["isCachedColumnBuffersLoaded"]),
        ],
    )
    def test_cache_methods_present(self, spark, name, methods):
        present = {m.getName() for m in spark._jvm.java.lang.Class.forName(name).getMethods()}
        assert set(methods) <= present, f"{name} lacks {set(methods) - present}"

    def test_cached_rows_only_once_fully_cached(self, spark):
        """A sample's plan statistics estimate 500 rows; only the cache
        builder's count, once every partition is cached, is exact."""
        df = spark.range(0, 1000, 1, 4).sample(fraction=0.5, seed=7)
        stats = df._jdf.queryExecution().optimizedPlan().stats().rowCount()
        assert stats.get() == 500, "the plan's estimate"
        assert strategies._cached_rows(df) is None, "not persisted"
        df.persist()
        try:
            assert strategies._cached_rows(df) is None, "persisted, not materialized"
            df.limit(1).collect()
            assert strategies._cached_rows(df) is None, "one partition of four cached"
            exact = df.count()
            assert exact != 500 and strategies._cached_rows(df) == exact
            assert strategies._cached_rows(df.filter("id < 70")) is None, "a filter over it"
        finally:
            df.unpersist()

    def test_cached_rows_api_change_is_named(self, spark):
        """A call py4j cannot resolve (here: a ``_jdf`` of the wrong type)
        fails by name instead of falling back to a count."""
        wrong = SimpleNamespace(sparkSession=spark, _jdf=spark._jvm.java.lang.Object())
        with pytest.raises(RuntimeError, match="CacheManager.lookupCachedData"):
            strategies._cached_rows(wrong)
