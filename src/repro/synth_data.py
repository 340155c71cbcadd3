"""Synthetic OLAP data at a configurable scale factor.

SF=1.0 is roughly TPC-H SF1 (~1 GB across tables). Tests use SF 0.005,
the jobs SF 0.1. Each generator returns a pandas frame, deterministic in
``seed``; ``tpch.generate`` builds the Spark tables from the same frames,
so the DuckDB oracle sees identical input.

Extended for the Predicate Transfer reproduction with the full TPC-H
join graph: supplier, partsupp, nation, region, plus the lineitem /
orders / part columns the 14-query lite suite touches. Referential
integrity mirrors dbgen where queries depend on it:

- ``l_orderkey``   ⊆ orders (dense 1..N_orders)
- ``l_partkey``    ⊆ part
- ``(l_partkey, l_suppkey)`` ⊆ partsupp — partsupp has exactly 4
  suppliers per part via the dbgen-style offset formula
  ``supplier_for_part``, and lineitem draws its suppkey from the same
  formula.
- ``c_nationkey``/``s_nationkey`` ⊆ nation (0..24, real TPC-H names),
  ``n_regionkey`` the real TPC-H nation→region mapping.

Dates: ``l_commitdate = l_shipdate + U[5,60]`` and ``l_receiptdate =
l_shipdate + U[1,30]`` make ``l_receiptdate > l_commitdate`` ("late")
hold for ~20% of lineitems, which keeps Q4/Q12/Q21 selective at small
scale factors.
"""
import numpy as np
import pandas as pd

_N_LINEITEM_PER_SF = 6_000_000
_N_ORDERS_PER_SF = 1_500_000
_N_CUSTOMER_PER_SF = 150_000
_N_PART_PER_SF = 200_000
_N_SUPPLIER_PER_SF = 10_000

#: Real TPC-H nation names and their region keys (dbgen's nation.tbl).
NATIONS = [
    ("ALGERIA", 0), ("ARGENTINA", 1), ("BRAZIL", 1), ("CANADA", 1),
    ("EGYPT", 4), ("ETHIOPIA", 0), ("FRANCE", 3), ("GERMANY", 3),
    ("INDIA", 2), ("INDONESIA", 2), ("IRAN", 4), ("IRAQ", 4),
    ("JAPAN", 2), ("JORDAN", 4), ("KENYA", 0), ("MOROCCO", 0),
    ("MOZAMBIQUE", 0), ("PERU", 1), ("CHINA", 2), ("ROMANIA", 3),
    ("SAUDI ARABIA", 4), ("VIETNAM", 2), ("RUSSIA", 3),
    ("UNITED KINGDOM", 3), ("UNITED STATES", 1),
]

#: Real TPC-H region names, indexed by regionkey.
REGIONS = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"]

#: p_container values: 4 sizes x 4 shapes, as in dbgen.
CONTAINERS = [
    f"{a} {b}"
    for a in ("SM", "MED", "LG", "JUMBO")
    for b in ("CASE", "BOX", "BAG", "PACK")
]

P_TYPES = ["STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"]
SHIP_MODES = ["REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"]


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def n_rows(table: str, sf: float) -> int:
    """Row count of ``table`` at scale factor ``sf`` (nation/region fixed)."""
    per_sf = {
        "lineitem": _N_LINEITEM_PER_SF,
        "orders": _N_ORDERS_PER_SF,
        "customer": _N_CUSTOMER_PER_SF,
        "part": _N_PART_PER_SF,
        "supplier": _N_SUPPLIER_PER_SF,
        "partsupp": 4 * _N_PART_PER_SF,
    }
    if table == "nation":
        return len(NATIONS)
    if table == "region":
        return len(REGIONS)
    return max(1, int(per_sf[table] * sf))


def supplier_for_part(partkey: np.ndarray, i: np.ndarray, n_supp: int) -> np.ndarray:
    """dbgen-style i-th (0..3) supplier of a part; 4 distinct keys per part.

    Offsets ``i * max(1, n_supp // 4)`` are distinct modulo ``n_supp``
    whenever ``n_supp >= 4``, so each part gets 4 distinct suppliers.
    """
    step = max(1, n_supp // 4)
    return (partkey - 1 + i * step) % n_supp + 1


def lineitem_pdf(*, sf: float = 0.01, seed: int = 0) -> pd.DataFrame:
    """lineitem as pandas. New columns draw *after* the original ones so
    the original columns are bit-identical to the pre-extension module."""
    n = n_rows("lineitem", sf)
    n_orders = n_rows("orders", sf)
    n_part = n_rows("part", sf)
    n_supp = n_rows("supplier", sf)
    g = _rng(seed)
    pdf = pd.DataFrame(
        {
            "l_orderkey": g.integers(1, n_orders + 1, n),
            "l_partkey": g.integers(1, n_part + 1, n),
            "l_linenumber": g.integers(1, 8, n),
            "l_quantity": g.integers(1, 51, n).astype("float64"),
            "l_extendedprice": (g.random(n) * 90000 + 900).round(2),
            "l_discount": (g.random(n) * 0.1).round(2),
            "l_tax": (g.random(n) * 0.08).round(2),
            "l_returnflag": g.choice(list("NRA"), n),
            "l_linestatus": g.choice(list("OF"), n),
            "l_shipdate": pd.to_datetime("1992-01-01")
            + pd.to_timedelta(g.integers(0, 2557, n), unit="D"),
        }
    )
    pdf["l_suppkey"] = supplier_for_part(
        pdf["l_partkey"].to_numpy(), g.integers(0, 4, n), n_supp
    )
    pdf["l_commitdate"] = pdf["l_shipdate"] + pd.to_timedelta(
        g.integers(5, 61, n), unit="D"
    )
    pdf["l_receiptdate"] = pdf["l_shipdate"] + pd.to_timedelta(
        g.integers(1, 31, n), unit="D"
    )
    pdf["l_shipmode"] = g.choice(SHIP_MODES, n)
    return pdf


def orders_pdf(*, sf: float = 0.01, seed: int = 1) -> pd.DataFrame:
    n = n_rows("orders", sf)
    n_cust = n_rows("customer", sf)
    g = _rng(seed)
    return pd.DataFrame(
        {
            "o_orderkey": np.arange(1, n + 1),
            "o_custkey": g.integers(1, n_cust + 1, n),
            "o_orderstatus": g.choice(list("OFP"), n),
            "o_totalprice": (g.random(n) * 500000 + 1000).round(2),
            "o_orderdate": pd.to_datetime("1992-01-01")
            + pd.to_timedelta(g.integers(0, 2406, n), unit="D"),
            "o_orderpriority": g.choice(
                ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT", "5-LOW"], n
            ),
        }
    )


def part_pdf(*, sf: float = 0.01, seed: int = 5) -> pd.DataFrame:
    n = n_rows("part", sf)
    g = _rng(seed)
    pdf = pd.DataFrame(
        {
            "p_partkey": np.arange(1, n + 1),
            "p_type": g.choice(P_TYPES, n),
            "p_brand": g.choice(
                [f"Brand#{i}{j}" for i in range(1, 6) for j in range(1, 6)], n
            ),
            "p_size": g.integers(1, 51, n),
            "p_retailprice": (900 + (np.arange(1, n + 1) % 1000) / 10.0).round(2),
        }
    )
    pdf["p_container"] = g.choice(CONTAINERS, n)
    pdf["p_mfgr"] = g.choice([f"Manufacturer#{i}" for i in range(1, 6)], n)
    return pdf


def customer_pdf(*, sf: float = 0.01, seed: int = 2) -> pd.DataFrame:
    n = n_rows("customer", sf)
    g = _rng(seed)
    return pd.DataFrame(
        {
            "c_custkey": np.arange(1, n + 1),
            "c_nationkey": g.integers(0, 25, n),
            "c_acctbal": (g.random(n) * 10000 - 1000).round(2),
            "c_mktsegment": g.choice(
                ["BUILDING", "AUTOMOBILE", "MACHINERY", "HOUSEHOLD", "FURNITURE"], n
            ),
        }
    )


def supplier_pdf(*, sf: float = 0.01, seed: int = 6) -> pd.DataFrame:
    n = n_rows("supplier", sf)
    g = _rng(seed)
    return pd.DataFrame(
        {
            "s_suppkey": np.arange(1, n + 1),
            "s_nationkey": g.integers(0, 25, n),
            "s_acctbal": (g.random(n) * 10000 - 1000).round(2),
        }
    )


def partsupp_pdf(*, sf: float = 0.01, seed: int = 7) -> pd.DataFrame:
    """Exactly 4 rows per part; suppkeys via ``supplier_for_part``."""
    n_part = n_rows("part", sf)
    n_supp = n_rows("supplier", sf)
    g = _rng(seed)
    partkey = np.repeat(np.arange(1, n_part + 1), 4)
    i = np.tile(np.arange(4), n_part)
    n = len(partkey)
    return pd.DataFrame(
        {
            "ps_partkey": partkey,
            "ps_suppkey": supplier_for_part(partkey, i, n_supp),
            "ps_availqty": g.integers(1, 10_000, n),
            "ps_supplycost": (g.random(n) * 999 + 1).round(2),
        }
    )


def nation_pdf() -> pd.DataFrame:
    return pd.DataFrame(
        {
            "n_nationkey": np.arange(len(NATIONS)),
            "n_name": [n for n, _ in NATIONS],
            "n_regionkey": np.array([r for _, r in NATIONS]),
        }
    )


def region_pdf() -> pd.DataFrame:
    return pd.DataFrame(
        {
            "r_regionkey": np.arange(len(REGIONS)),
            "r_name": list(REGIONS),
        }
    )

