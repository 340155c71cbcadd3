"""Join keys whose two sides differ in numeric type (or in the sign of a
floating zero, or are a date and a timestamp): every strategy must
still return the oracle's rows.
A Bloom filter that hashes equal values of different types differently
silently drops joinable rows under Bloom Join and Pred-Trans, so an
edge whose sides hash as different types (a string and a number) is
refused under every strategy, on base tables and sub-query outputs
alike."""
from datetime import date, datetime
from decimal import Decimal

import pytest
from pyspark.sql import functions as F

from repro.core.spec import Edge, QuerySpec, SubQuery, TableRef
from repro.core.strategies import STRATEGIES, run_query
from repro.oracle import assert_equivalent
from tests.test_reduced_sizes import _storage_bytes

#: name -> (lhs key type, lhs keys, rhs key type, rhs keys). Each side
#: has keys the other lacks, so a sound pre-filter has rows to drop.
KEY_EDGES = {
    "int32_int64": ("int", [1, 2, 3, 5], "bigint", [1, 3, 4]),
    "int64_float64": ("bigint", [1, 2, 3, 5], "double", [1.0, 2.5, 3.0, 4.0]),
    "int_decimal": (
        "int", [1, 2, 3, 5], "decimal(10,2)", [Decimal(v) for v in ("1.00", "2.50", "3", "4.0")]
    ),
    "negative_zero": ("double", [0.0, 1.0, 2.0], "double", [-0.0, 2.0, 3.0]),
    "date_timestamp": (
        "date", [date(2020, 1, d) for d in (1, 2, 5)],
        "timestamp", [datetime(2020, 1, d) for d in (1, 3, 5)],
    ),
}

#: Key edges whose two sides hash as different types, in the same form.
MISMATCHED_EDGES = {
    "string_int": ("string", ["1", "2", "3", "5"], "int", [1, 3, 4]),
    "string_double": ("string", ["1", "2", "3", "5"], "double", [1.0, 3.0, 4.0]),
    "int_string": ("int", [1, 2, 3, 5], "string", ["1", "3", "4"]),
}

ORACLE = "SELECT l_id, r_id FROM lhs JOIN rhs ON l_k = r_k"


def _table(spark, prefix, key_type, keys):
    rows = [(i, k) for i, k in enumerate(keys)]
    return spark.createDataFrame(rows, f"{prefix}_id int, {prefix}_k {key_type}")


@pytest.fixture(scope="module", params=sorted(KEY_EDGES))
def key_edge(request, spark):
    lt, lkeys, rt, rkeys = KEY_EDGES[request.param]
    return {"lhs": _table(spark, "l", lt, lkeys), "rhs": _table(spark, "r", rt, rkeys)}


def _spec(tables, order):
    return QuerySpec(
        name="key_types",
        tables={t: TableRef(df=df) for t, df in tables.items()},
        edges=[Edge("lhs", ("l_k",), "rhs", ("r_k",))],
        join_order=order,
        finalize=lambda df, scalars: df.select("l_id", "r_id"),
    )


def _check(spark, tables, strategy, order):
    rr = run_query(spark, _spec(tables, order), strategy)
    try:
        assert rr.rows, "every key edge has at least one joining pair"
        assert_equivalent(rr.df, ORACLE, **tables)
    finally:
        rr.cleanup()


@pytest.mark.parametrize("order", [["lhs", "rhs"], ["rhs", "lhs"]])
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_mixed_key_types_match_oracle(spark, key_edge, strategy, order):
    _check(spark, key_edge, strategy, order)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_date_timestamp_ntz_keys_outside_utc(spark, strategy):
    """The join casts a date to ``timestamp_ntz`` (wall-clock midnight);
    the hashes must agree whatever the session time zone."""
    conf = "spark.sql.session.timeZone"
    zone = spark.conf.get(conf)
    spark.conf.set(conf, "America/Los_Angeles")
    try:
        tables = {
            "lhs": _table(spark, "l", "date", [date(2020, 1, d) for d in (1, 2, 5)]),
            "rhs": _table(spark, "r", "timestamp_ntz", [datetime(2020, 1, d) for d in (1, 3, 5)]),
        }
        _check(spark, tables, strategy, ["lhs", "rhs"])
    finally:
        spark.conf.set(conf, zone)


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("name", sorted(MISMATCHED_EDGES))
def test_mismatched_hash_types_rejected_before_any_job(spark, name, strategy):
    lt, lkeys, rt, rkeys = MISMATCHED_EDGES[name]
    tables = {"lhs": _table(spark, "l", lt, lkeys), "rhs": _table(spark, "r", rt, rkeys)}
    spec = _spec(tables, ["lhs", "rhs"])
    sc = spark.sparkContext
    sc.setJobGroup("rejected-run", "run_query with mismatched key types")
    try:
        with pytest.raises(ValueError, match=rf"edge lhs-rhs: l_k \({lt}\) and r_k \({rt}\)"):
            run_query(spark, spec, strategy)
        assert sc.statusTracker().getJobIdsForGroup("rejected-run") == []
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)


def _grouped_spec(spark, strategy, key_type, out_key):
    """``ints`` (an ``int`` key ``i_k``) joined on ``out_key`` to ``g``, a
    group-by sub-query over a ``key_type``-keyed table whose output key
    column is ``out_key``."""
    # Distinct rows per strategy: Spark caches equal plans only once.
    n = 20 + STRATEGIES.index(strategy)
    base = spark.range(n).select(
        (F.col("id") % 5).cast(key_type).alias("b_k"), F.col("id").alias("b_v")
    )

    def group(df, scalars):
        return df.groupBy(F.col("b_k").alias(out_key)).agg(F.sum("b_v").alias("g_v"))

    grouped = QuerySpec(
        name="grouped",
        tables={"base": TableRef(df=base)},
        edges=[],
        join_order=["base"],
        finalize=group,
    )
    ints = _table(spark, "i", "int", [1, 3, 4])
    return QuerySpec(
        name="grouped_keys",
        tables={"ints": TableRef(df=ints), "g": TableRef(subquery="agg")},
        edges=[Edge("ints", ("i_k",), "g", (out_key,))],
        join_order=["ints", "g"],
        finalize=lambda df, scalars: df.select("i_id", "g_v"),
        subqueries=[SubQuery("agg", grouped)],
    )


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_mismatched_hash_types_on_subquery_output_rejected(spark, strategy):
    """The sub-query's output types are known only once it has run: the
    run is refused then, and releases the output it persisted."""
    spec = _grouped_spec(spark, strategy, "string", "g_k")
    before = _storage_bytes(spark)
    with pytest.raises(ValueError, match=r"edge ints-g: i_k \(int\) and g_k \(string\)"):
        run_query(spark, spec, strategy)
    assert _storage_bytes(spark) == before


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_subquery_output_column_colliding_with_base_column_rejected(spark, strategy):
    spec = _grouped_spec(spark, strategy, "int", "i_id")
    before = _storage_bytes(spark)
    with pytest.raises(ValueError, match="column i_id appears in both ints and g"):
        run_query(spark, spec, strategy)
    assert _storage_bytes(spark) == before
