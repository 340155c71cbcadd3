"""Distributed Bloom-filter build & probe inside the Spark JVM, with the
expressions behind Spark's own runtime filter (SPARK-32268), built
through py4j since Spark does not register them as SQL functions.

Build (``build_blooms``, §3.2's filter transformation) is one ``df.agg``
with a ``BloomFilterAggregate`` per outgoing filter: N filters, one
scan. Probe (``apply_blooms``) is one ``df.filter`` over the AND of a
``BloomFilterMightContain`` per received filter, its bytes a literal.
Both sides hash ``xxhash64`` of the keys with every numeric key cast to
``double`` and every date or ``timestamp_ntz`` key to ``timestamp``, so
values Spark's join finds equal (an int and an equal float or decimal,
``-0.0`` and ``0.0``, a date and its midnight timestamp) hash equally;
distinct values can only collide, giving false positives, never false
negatives. Other keys hash as they are, so ``spec.validate`` refuses an
edge whose two sides hash as different types (a string and an int).
"""
from __future__ import annotations

import math
import struct
import warnings
from dataclasses import dataclass
from functools import lru_cache, reduce
from operator import and_
from typing import Sequence, Tuple

from py4j.protocol import Py4JError
from pyspark.sql import Column, DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql.classic.column import Column as ClassicColumn
from pyspark.sql.types import DataType, DateType, DoubleType, NumericType
from pyspark.sql.types import TimestampNTZType, TimestampType

from repro.bloom.filter import optimal_params

AGGREGATE = "org.apache.spark.sql.catalyst.expressions.aggregate.BloomFilterAggregate"
MIGHT_CONTAIN = "org.apache.spark.sql.catalyst.expressions.BloomFilterMightContain"
EXPRESSION_UTILS = "org.apache.spark.sql.classic.ExpressionUtils"
SKETCH = "org.apache.spark.util.sketch.BloomFilter"

#: ``SKETCH.writeTo`` header: version, hash count, seed, 64-bit word count.
_HEADER = struct.Struct(">iiii")
_VERSION = 2


@dataclass(frozen=True)
class BloomSpec:
    """One filter to build: key columns + sizing."""

    cols: tuple[str, ...]
    expected_items: int
    fpp: float = 0.01

    def params(self) -> tuple[int, int]:
        return optimal_params(self.expected_items, self.fpp)


@dataclass(frozen=True)
class SparkBloomFilter:
    """A filter in Spark's serialized form; ``n_bits`` and ``n_hashes``
    are read from its header, so they show any clamping by Spark's
    ``bloomFilter.maxNumBits``."""

    data: bytes
    n_bits: int
    n_hashes: int

    @classmethod
    def parse(cls, data: bytes) -> "SparkBloomFilter":
        version, n_hashes, _seed, n_words = _HEADER.unpack_from(data)
        if version != _VERSION or len(data) != _HEADER.size + 8 * n_words:
            raise RuntimeError(
                f"Spark Bloom filter of version {version}, {len(data)} bytes for "
                f"{n_words} words; only version {_VERSION} is understood"
            )
        return cls(bytes(data), 64 * n_words, n_hashes)

    def fpp(self, items: int) -> float:
        """Estimated false-positive rate after ``items`` distinct keys."""
        return (1 - math.exp(-self.n_hashes * items / self.n_bits)) ** self.n_hashes

    @property
    def bit_count(self) -> int:
        """Number of set bits (diagnostics / saturation checks)."""
        return int.from_bytes(self.data[_HEADER.size :], "big").bit_count()


def _jvm(spark: SparkSession, name: str):
    """Spark's JVM class ``name`` (an uncallable package if Spark lacks it)."""
    return _jvm_class(spark._jvm, name)


@lru_cache(maxsize=None)
def _jvm_class(jvm, name: str):
    """``name`` looked up once per gateway: each package segment is a py4j
    round trip."""
    return reduce(getattr, name.split("."), jvm)


def jvm_column(spark: SparkSession, name: str, *args: Column, agg: bool = False) -> Column:
    """``Column`` of Catalyst's ``new name(args...)``, or an error naming it."""
    utils = _jvm(spark, EXPRESSION_UTILS)
    try:
        expr = _jvm(spark, name)(*[utils.expression(a._jc) for a in args])
        return ClassicColumn(utils.column(expr.toAggregateExpression() if agg else expr))
    except (Py4JError, TypeError) as e:
        msg = f"Spark {spark.version}: cannot build {name}({len(args)} expressions)"
        raise RuntimeError(f"{msg} through {EXPRESSION_UTILS}") from e


_HASH_AS = (
    (NumericType, DoubleType()),
    ((DateType, TimestampNTZType, TimestampType), TimestampType()),
)


def hash_type(data_type: DataType) -> DataType:
    """The type a key of ``data_type`` is hashed as: numeric keys as
    ``double``, dates and timestamps as ``timestamp``, anything else as
    it is. Keys of two hash types hash differently even where Spark's
    join finds them equal (the string ``"1"`` and the int ``1``)."""
    return next((to for kind, to in _HASH_AS if isinstance(data_type, kind)), data_type)


def _key_hash(df: DataFrame, cols: Sequence[str]) -> Column:
    """``xxhash64`` of the key columns, each cast to its ``hash_type``, so
    keys that Spark's join finds equal after coercing them (a date to
    ``timestamp``, or to ``timestamp_ntz`` against one) hash equally."""
    types = {f.name: f.dataType for f in df.schema.fields}
    to = {c: hash_type(types[c]) for c in cols}
    # Cast by type name: a ``DataType`` costs PySpark one more JVM call.
    keys = [F.col(c) if to[c] == types[c] else F.col(c).cast(to[c].simpleString()) for c in cols]
    return F.xxhash64(*keys)


def _empty_filter(spark: SparkSession, items: int, n_bits: int) -> bytes:
    """The empty filter the aggregate returns NULL for, sized as it would be."""
    conf = "spark.sql.optimizer.runtime.bloomFilter.max"
    items = min(items, int(spark.conf.get(conf + "NumItems")))
    n_bits = min(n_bits, int(spark.conf.get(conf + "NumBits")))
    out = spark._jvm.java.io.ByteArrayOutputStream()
    _jvm(spark, SKETCH).create(items, n_bits).writeTo(out)
    return bytes(out.toByteArray())


def build_blooms(df: DataFrame, specs: Sequence[BloomSpec]) -> list[SparkBloomFilter]:
    """One Bloom filter per spec from a single scan of ``df``; specs with
    identical ``cols`` still get independent filters. A filter that
    Spark's ``bloomFilter.maxNumBits`` leaves smaller than requested is
    reported with a ``RuntimeWarning`` giving its estimated false-positive
    rate."""
    if not specs:
        return []
    spark = df.sparkSession
    sizes = [(max(1, s.expected_items), s.params()[0]) for s in specs]
    aggs = [
        jvm_column(spark, AGGREGATE, _key_hash(df, s.cols), *[F.lit(v).cast("long") for v in n], agg=True)
        for s, n in zip(specs, sizes)
    ]
    row = df.agg(*[a.alias(f"b{i}") for i, a in enumerate(aggs)]).first()
    filters = [
        SparkBloomFilter.parse(_empty_filter(spark, *n) if raw is None else raw)
        for raw, n in zip(row, sizes)
    ]
    for s, (items, n_bits), f in zip(specs, sizes, filters):
        if f.n_bits < n_bits:
            warnings.warn(
                f"Bloom filter on {', '.join(s.cols)}: {n_bits} bits requested, "
                f"{f.n_bits} granted (spark.sql.optimizer.runtime.bloomFilter.maxNumBits); "
                f"estimated false-positive rate {f.fpp(items):.3g} for {items} keys",
                RuntimeWarning,
                stacklevel=2,
            )
    return filters


def apply_blooms(
    df: DataFrame, filters: Sequence[Tuple[Sequence[str], SparkBloomFilter]]
) -> DataFrame:
    """``df`` restricted to rows passing *every* filter, in one filter."""
    if not filters:
        return df
    terms = [
        jvm_column(df.sparkSession, MIGHT_CONTAIN, F.lit(f.data), _key_hash(df, cols))
        for cols, f in filters
    ]
    return df.filter(reduce(and_, terms))
