"""Join keys whose two sides differ in numeric type (or in the sign of a
floating zero): every strategy must still return the oracle's rows.
A Bloom filter that hashes equal values of different types differently
silently drops joinable rows under Bloom Join and Pred-Trans."""
from decimal import Decimal

import pytest

from repro.core.spec import Edge, QuerySpec, TableRef
from repro.core.strategies import STRATEGIES, run_query
from repro.oracle import assert_equivalent

#: name -> (lhs key type, lhs keys, rhs key type, rhs keys). Each side
#: has keys the other lacks, so a sound pre-filter has rows to drop.
KEY_EDGES = {
    "int32_int64": ("int", [1, 2, 3, 5], "bigint", [1, 3, 4]),
    "int64_float64": ("bigint", [1, 2, 3, 5], "double", [1.0, 2.5, 3.0, 4.0]),
    "int_decimal": (
        "int", [1, 2, 3, 5], "decimal(10,2)", [Decimal(v) for v in ("1.00", "2.50", "3", "4.0")]
    ),
    "negative_zero": ("double", [0.0, 1.0, 2.0], "double", [-0.0, 2.0, 3.0]),
}

ORACLE = "SELECT l_id, r_id FROM lhs JOIN rhs ON l_k = r_k"


def _table(spark, prefix, key_type, keys):
    rows = [(i, k) for i, k in enumerate(keys)]
    return spark.createDataFrame(rows, f"{prefix}_id int, {prefix}_k {key_type}")


@pytest.fixture(scope="module", params=sorted(KEY_EDGES))
def key_edge(request, spark):
    lt, lkeys, rt, rkeys = KEY_EDGES[request.param]
    return {"lhs": _table(spark, "l", lt, lkeys), "rhs": _table(spark, "r", rt, rkeys)}


@pytest.mark.parametrize("order", [["lhs", "rhs"], ["rhs", "lhs"]])
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_mixed_key_types_match_oracle(spark, key_edge, strategy, order):
    spec = QuerySpec(
        name="key_types",
        tables={t: TableRef(df=df) for t, df in key_edge.items()},
        edges=[Edge("lhs", ("l_k",), "rhs", ("r_k",))],
        join_order=order,
        finalize=lambda df, scalars: df.select("l_id", "r_id"),
    )
    rr = run_query(spark, spec, strategy)
    try:
        assert rr.rows, "every key edge has at least one joining pair"
        assert_equivalent(rr.df, ORACLE, **key_edge)
    finally:
        rr.cleanup()
