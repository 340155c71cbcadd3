"""Generator tests: schemas, determinism, referential integrity, value
ranges — the invariants the query suite and the paper's selectivities
depend on. Pure pandas."""
import numpy as np
import pandas as pd
import pytest

from repro import synth_data as sd

SF = 0.004


@pytest.fixture(scope="module")
def tables():
    return {
        "lineitem": sd.lineitem_pdf(sf=SF),
        "orders": sd.orders_pdf(sf=SF),
        "customer": sd.customer_pdf(sf=SF),
        "part": sd.part_pdf(sf=SF),
        "supplier": sd.supplier_pdf(sf=SF),
        "partsupp": sd.partsupp_pdf(sf=SF),
        "nation": sd.nation_pdf(),
        "region": sd.region_pdf(),
    }


class TestCardinalities:
    @pytest.mark.parametrize(
        "table,per_sf",
        [
            ("lineitem", 6_000_000),
            ("orders", 1_500_000),
            ("customer", 150_000),
            ("part", 200_000),
            ("supplier", 10_000),
        ],
    )
    def test_scaled_row_counts(self, tables, table, per_sf):
        assert len(tables[table]) == max(1, int(per_sf * SF))
        assert sd.n_rows(table, SF) == len(tables[table])

    def test_partsupp_is_four_per_part(self, tables):
        assert len(tables["partsupp"]) == 4 * len(tables["part"])
        assert (tables["partsupp"].groupby("ps_partkey").size() == 4).all()

    def test_fixed_tables(self, tables):
        assert len(tables["nation"]) == 25
        assert len(tables["region"]) == 5

    def test_n_rows_fixed_tables(self):
        assert sd.n_rows("nation", 1.0) == 25
        assert sd.n_rows("region", 0.001) == 5


class TestDeterminism:
    @pytest.mark.parametrize("fn", [sd.lineitem_pdf, sd.orders_pdf, sd.customer_pdf,
                                    sd.part_pdf, sd.supplier_pdf, sd.partsupp_pdf])
    def test_same_seed_same_data(self, fn):
        pd.testing.assert_frame_equal(fn(sf=0.002), fn(sf=0.002))

    def test_different_seed_different_data(self):
        a = sd.lineitem_pdf(sf=0.002, seed=0)
        b = sd.lineitem_pdf(sf=0.002, seed=1)
        assert not a["l_partkey"].equals(b["l_partkey"])


class TestReferentialIntegrity:
    def test_lineitem_orderkeys_subset_of_orders(self, tables):
        assert set(tables["lineitem"].l_orderkey) <= set(tables["orders"].o_orderkey)

    def test_lineitem_partkeys_subset_of_part(self, tables):
        assert set(tables["lineitem"].l_partkey) <= set(tables["part"].p_partkey)

    def test_lineitem_suppkeys_subset_of_supplier(self, tables):
        assert set(tables["lineitem"].l_suppkey) <= set(tables["supplier"].s_suppkey)

    def test_lineitem_part_supp_pairs_in_partsupp(self, tables):
        li = set(zip(tables["lineitem"].l_partkey, tables["lineitem"].l_suppkey))
        ps = set(zip(tables["partsupp"].ps_partkey, tables["partsupp"].ps_suppkey))
        assert li <= ps

    def test_partsupp_keys_valid(self, tables):
        assert set(tables["partsupp"].ps_partkey) == set(tables["part"].p_partkey)
        assert set(tables["partsupp"].ps_suppkey) <= set(tables["supplier"].s_suppkey)

    def test_partsupp_suppliers_distinct_per_part(self, tables):
        per_part = tables["partsupp"].groupby("ps_partkey")["ps_suppkey"].nunique()
        assert (per_part == 4).all()

    def test_orders_custkeys_subset_of_customer(self, tables):
        assert set(tables["orders"].o_custkey) <= set(tables["customer"].c_custkey)

    def test_nationkeys_valid(self, tables):
        assert set(tables["customer"].c_nationkey) <= set(range(25))
        assert set(tables["supplier"].s_nationkey) <= set(range(25))

    def test_nation_region_mapping_is_tpch(self, tables):
        n = tables["nation"]
        assert n.loc[n.n_name == "BRAZIL", "n_regionkey"].iloc[0] == 1  # AMERICA
        assert n.loc[n.n_name == "CHINA", "n_regionkey"].iloc[0] == 2  # ASIA
        assert n.loc[n.n_name == "GERMANY", "n_regionkey"].iloc[0] == 3  # EUROPE
        assert n.loc[n.n_name == "SAUDI ARABIA", "n_regionkey"].iloc[0] == 4
        assert set(n.n_regionkey) == set(range(5))

    def test_region_names(self, tables):
        assert list(tables["region"].r_name) == [
            "AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST",
        ]


class TestValueRanges:
    def test_lineitem_quantity(self, tables):
        q = tables["lineitem"].l_quantity
        assert q.between(1, 50).all()

    def test_lineitem_discount(self, tables):
        assert tables["lineitem"].l_discount.between(0, 0.1).all()

    def test_ship_commit_receipt_offsets(self, tables):
        li = tables["lineitem"]
        commit_off = (li.l_commitdate - li.l_shipdate).dt.days
        receipt_off = (li.l_receiptdate - li.l_shipdate).dt.days
        assert commit_off.between(5, 60).all()
        assert receipt_off.between(1, 30).all()

    def test_late_fraction_keeps_q4_q12_q21_selective(self, tables):
        li = tables["lineitem"]
        late = (li.l_receiptdate > li.l_commitdate).mean()
        assert 0.05 < late < 0.4, f"late fraction {late}"

    def test_order_dates_in_tpch_window(self, tables):
        o = tables["orders"].o_orderdate
        assert o.min() >= pd.Timestamp("1992-01-01")
        assert o.max() <= pd.Timestamp("1998-08-03")

    def test_shipmodes_and_containers_from_domains(self, tables):
        assert set(tables["lineitem"].l_shipmode) <= set(sd.SHIP_MODES)
        assert set(tables["part"].p_container) <= set(sd.CONTAINERS)
        assert set(tables["part"].p_type) <= set(sd.P_TYPES)

    def test_supplier_for_part_distinct(self):
        pk = np.array([1, 1, 1, 1])
        ks = sd.supplier_for_part(pk, np.arange(4), n_supp=40)
        assert len(set(ks.tolist())) == 4
        assert ((1 <= ks) & (ks <= 40)).all()

