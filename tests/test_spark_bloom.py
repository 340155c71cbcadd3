"""Distributed Bloom build/probe tests over Spark DataFrames."""
import math

import pandas as pd
import pytest
from py4j.java_gateway import JavaClass
from pyspark.sql import functions as F

from repro.bloom import spark_bloom
from repro.bloom.filter import optimal_params
from repro.bloom.spark_bloom import SparkBloomFilter, apply_blooms, build_blooms


@pytest.fixture(scope="module")
def kv(spark):
    """10k-row table with keys 0..999 (each ~10x)."""
    pdf = pd.DataFrame({"k": [i % 1000 for i in range(10_000)], "v": range(10_000)})
    df = spark.createDataFrame(pdf).repartition(8)
    df.persist().count()
    yield df
    df.unpersist()


class TestBuild:
    def test_membership_of_built_filter(self, spark, kv):
        (bloom,) = build_blooms(kv, [("k",)], 1000)
        present = spark.range(1000).withColumnRenamed("id", "k")
        absent = spark.range(5000, 10_000).withColumnRenamed("id", "k")
        assert apply_blooms(present, [(("k",), bloom)]).count() == 1000
        assert apply_blooms(absent, [(("k",), bloom)]).count() < 0.05 * 5000

    def test_multiple_specs_one_scan(self, kv):
        blooms = build_blooms(kv, [("k",), ("v",)], 1000)
        assert len(blooms) == 2
        assert blooms[0].n_bits == blooms[1].n_bits  # one size per scan

    def test_empty_specs(self, kv):
        assert build_blooms(kv, [], 1000) == []

    def test_empty_dataframe_builds_empty_filter(self, kv):
        (bloom,) = build_blooms(kv.filter("k < 0"), [("k",)], 10)
        assert bloom.bit_count == 0


class TestProbe:
    def test_no_false_negatives_end_to_end(self, spark, kv):
        build = kv.filter("k < 100")
        (bloom,) = build_blooms(build, [("k",)], 100)
        probe = apply_blooms(kv, [(("k",), bloom)])
        kept = {r.k for r in probe.select("k").distinct().collect()}
        assert set(range(100)) <= kept

    def test_filters_most_non_members(self, spark, kv):
        build = kv.filter("k < 100")
        (bloom,) = build_blooms(build, [("k",)], 100)
        n = apply_blooms(kv, [(("k",), bloom)]).count()
        # 1000 true rows + fp margin over the other 9000
        assert 1000 <= n <= 1000 + 0.05 * 9000

    def test_empty_build_side_filters_everything(self, spark, kv):
        (bloom,) = build_blooms(kv.filter("k < 0"), [("k",)], 10)
        assert apply_blooms(kv, [(("k",), bloom)]).count() == 0

    def test_multi_column_probe(self, spark):
        left = spark.createDataFrame(pd.DataFrame({"a": [1, 1, 2], "b": [1, 2, 1]}))
        right = spark.createDataFrame(pd.DataFrame({"a": [1], "b": [2]}))
        (bloom,) = build_blooms(right, [("a", "b")], 1)
        kept = apply_blooms(left, [(("a", "b"), bloom)]).collect()
        assert {(r.a, r.b) for r in kept} == {(1, 2)}

    def test_string_keys(self, spark):
        names = spark.createDataFrame(pd.DataFrame({"n": ["ASIA", "EUROPE", "AFRICA"]}))
        build = spark.createDataFrame(pd.DataFrame({"m": ["ASIA"]}))
        (bloom,) = build_blooms(build, [("m",)], 1)
        kept = apply_blooms(names, [(("n",), bloom)]).collect()
        assert {r.n for r in kept} == {"ASIA"}

    def test_date_keys(self, spark):
        dates = pd.to_datetime(["1994-01-01", "1995-06-15", "1996-12-31"])
        left = spark.createDataFrame(pd.DataFrame({"d": dates}))
        build = spark.createDataFrame(pd.DataFrame({"e": dates[:1]}))
        (bloom,) = build_blooms(build, [("e",)], 1)
        assert apply_blooms(left, [(("d",), bloom)]).count() == 1

    def test_apply_blooms_multiple_filters_conjoin(self, spark, kv):
        b1 = build_blooms(kv.filter("k < 100"), [("k",)], 100)[0]
        b2 = build_blooms(kv.filter("k >= 50"), [("k",)], 950)[0]
        out = apply_blooms(kv, [(("k",), b1), (("k",), b2)])
        kept = {r.k for r in out.select("k").distinct().collect()}
        assert set(range(50, 100)) <= kept
        assert 0 not in kept and 999 not in kept

    def test_apply_blooms_empty_list_is_identity(self, spark, kv):
        assert apply_blooms(kv, []) is kv

    def test_apply_blooms_mixed_key_sets(self, spark):
        df = spark.createDataFrame(
            pd.DataFrame({"a": [1, 1, 2, 3], "b": [10, 11, 12, 13]})
        )
        ba = build_blooms(df.filter("a <= 2"), [("a",)], 3)[0]
        bab = build_blooms(df.filter("b >= 11"), [("a", "b")], 3)[0]
        out = apply_blooms(df, [(("a",), ba), (("a", "b"), bab)])
        assert {(r.a, r.b) for r in out.collect()} == {(1, 11), (2, 12)}

    def test_probe_equivalent_to_semijoin_superset(self, spark, kv):
        """bloom-filtered ⊇ exact semi-join, and equal modulo fps."""
        build = kv.filter("k % 7 = 0").select(F.col("k").alias("bk"))
        (bloom,) = build_blooms(build, [("bk",)], 2000)
        bloomed = apply_blooms(kv, [(("k",), bloom)])
        exact = kv.join(build, kv["k"] == build["bk"], "leftsemi")
        assert exact.exceptAll(bloomed.select(*kv.columns)).count() == 0


class TestSparkInternals:
    """The build and probe use Spark internals that are not public API:
    an upgrade that moves or changes them must fail here, by name."""

    @pytest.mark.parametrize(
        "name",
        [
            spark_bloom.AGGREGATE,
            spark_bloom.MIGHT_CONTAIN,
            spark_bloom.EXPRESSION_UTILS,
            spark_bloom.SKETCH,
        ],
    )
    def test_class_present(self, spark, name):
        assert isinstance(spark_bloom._jvm(spark, name), JavaClass), (
            f"Spark {spark.version} has no class {name}"
        )
        assert spark_bloom._jvm(spark, name) is spark_bloom._jvm(spark, name), "looked up once"

    def test_both_expressions_build_and_header_version(self, spark):
        df = spark.range(100).withColumnRenamed("id", "k")
        (bloom,) = build_blooms(df, [("k",)], 100)
        assert bloom.data[:4] == (2).to_bytes(4, "big"), "serialization version changed"
        assert bloom.n_bits >= optimal_params(100, spark_bloom.FPP)[0]
        assert 0 < bloom.bit_count <= bloom.n_bits
        assert apply_blooms(df, [(("k",), bloom)]).count() == 100

    def test_missing_signature_is_named(self, spark):
        with pytest.raises(RuntimeError, match="BloomFilterMightContain\\(1 expressions\\)"):
            spark_bloom.jvm_column(spark, spark_bloom.MIGHT_CONTAIN, F.lit(1))

    def test_missing_class_is_named(self, spark):
        for _lookup in ("first", "cached"):
            with pytest.raises(RuntimeError, match="NoSuchExpression"):
                spark_bloom.jvm_column(spark, "org.apache.spark.sql.catalyst.NoSuchExpression")

    def test_unknown_header_version_rejected(self):
        with pytest.raises(RuntimeError, match="version 1"):
            SparkBloomFilter.parse((1).to_bytes(4, "big") + bytes(12))

    def test_header_reports_clamped_size(self, spark):
        key = "spark.sql.optimizer.runtime.bloomFilter.maxNumBits"
        old = spark.conf.get(key)
        spark.conf.set(key, "4096")
        df = spark.range(10_000).withColumnRenamed("id", "k")
        try:
            with pytest.warns(RuntimeWarning) as clamped:
                (full,) = build_blooms(df, [("k",)], 10_000)
                (empty,) = build_blooms(df.filter("k < 0"), [("k",)], 10_000)
        finally:
            spark.conf.set(key, old)
        assert full.n_bits == empty.n_bits == 4096
        assert empty.bit_count == 0 and full.bit_count > 0
        # The warning names the keys, both sizes and the estimated rate.
        fpp = (1 - math.exp(-full.n_hashes * 10_000 / 4096)) ** full.n_hashes
        assert fpp > spark_bloom.FPP
        messages = [str(w.message) for w in clamped if w.category is RuntimeWarning]
        assert len(messages) == 2, "one warning per clamped filter"
        requested = optimal_params(10_000, spark_bloom.FPP)[0]
        for msg in messages:
            assert "on k:" in msg and f"{requested} bits requested" in msg
            assert "4096 granted" in msg and f"{fpp:.3g}" in msg

    def test_default_cap_warns(self, spark):
        """At default settings Spark's ``maxNumBits`` is the only cap, so
        a filter sized past it is reported."""
        cap = int(spark.conf.get("spark.sql.optimizer.runtime.bloomFilter.maxNumBits"))
        assert optimal_params(10**7, spark_bloom.FPP)[0] > cap
        with pytest.warns(RuntimeWarning, match=f"{cap} granted"):
            (bloom,) = build_blooms(spark.range(100).withColumnRenamed("id", "k"), [("k",)], 10**7)
        assert bloom.n_bits == cap

    def test_unclamped_build_does_not_warn(self, spark, recwarn):
        build_blooms(spark.range(100).withColumnRenamed("id", "k"), [("k",)], 100)
        assert not [w for w in recwarn if w.category is RuntimeWarning]
