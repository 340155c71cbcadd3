"""Test-suite fixtures.

``SPARK_SHUFFLE_PARTITIONS`` defaults to 16 for the tests (they run on
SF 0.005 data where 64 shuffle tasks are pure overhead); the jobs keep
``get_spark``'s default of 64. Set at import time — the root conftest
reads the env var lazily when the session fixture is first instantiated.
"""
import os

os.environ.setdefault("SPARK_SHUFFLE_PARTITIONS", "16")

import pandas as pd  # noqa: E402
import pytest  # noqa: E402

from repro import tpch  # noqa: E402

#: Scale factor for oracle-checked end-to-end tests (~30k lineitems).
SF_TEST = 0.005


@pytest.fixture(scope="session")
def tpch_small(spark):
    """One shared TPC-H-lite dataset (pandas + persisted Spark views)."""
    data = tpch.generate(spark, sf=SF_TEST)
    yield data
    data.unpersist()


@pytest.fixture(scope="session")
def toy(spark):
    """Tiny hand-built chain R(a,x) — S(a,b) — T(b,z) with dangling rows
    on every table, so reduction behaviour is checkable by hand:

    - R rows with a in {1,2,3}; a=3 dangles (no S row)
    - S rows (a,b): (1,10) (1,11) (2,12) (4,10); a=4 dangles vs R,
      b=12 dangles vs T
    - T rows with b in {10,11,13}; b=13 dangles (no S row)

    Contributing rows: R{a∈1,2}→ only a=1 joins T-able S rows;
    S rows (1,10),(1,11); T rows b∈{10,11}.
    """
    R = spark.createDataFrame(pd.DataFrame({"r_a": [1, 2, 3], "r_x": [10.0, 20.0, 30.0]}))
    S = spark.createDataFrame(
        pd.DataFrame({"s_a": [1, 1, 2, 4], "s_b": [10, 11, 12, 10], "s_y": [1, 2, 3, 4]})
    )
    T = spark.createDataFrame(pd.DataFrame({"t_b": [10, 11, 13], "t_z": [7, 8, 9]}))
    return {"R": R, "S": S, "T": T}
