"""Reduction-quality tests on Q5 (the paper's Table-1 case study):
the pre-filter lattice and the HT/PR instrumentation."""
import pytest

from repro import queries
from repro.core.strategies import run_query


@pytest.fixture(scope="module")
def q5_runs(spark, tpch_small):
    spec = queries.build("q05", tpch_small.spark)
    runs = {
        s: run_query(spark, spec, s, measure=True)
        for s in ("no_pred_trans", "bloom_join", "yannakakis", "pred_trans")
    }
    yield spec, runs
    for rr in runs.values():
        rr.cleanup()


class TestReductionLattice:
    def test_pred_trans_reduces_every_table(self, q5_runs):
        _, runs = q5_runs
        pt = runs["pred_trans"]
        for t, reduced in pt.reduced_sizes.items():
            assert reduced <= pt.sizes[t]

    def test_lineitem_reduced_sharply(self, q5_runs):
        """The paper's headline: the fact table shrinks by ~99% under
        full transfer (Table 1: 6M → 63K probe rows)."""
        _, runs = q5_runs
        pt = runs["pred_trans"]
        assert pt.reduced_sizes["lineitem"] < 0.1 * pt.sizes["lineitem"]

    def test_reduced_tables_are_row_subsets(self, spark, tpch_small):
        from repro.core.transfer import predicate_transfer

        spec = queries.build("q05", tpch_small.spark)
        tables = {}
        for name, ref in spec.tables.items():
            df = ref.df
            if ref.predicate is not None:
                df = df.filter(ref.predicate)
            tables[name] = df
        sizes = {t: df.count() for t, df in tables.items()}
        reduced, _ = predicate_transfer(tables, spec.edges, sizes, set(tables))
        for t in ("lineitem", "orders", "customer"):
            assert reduced[t].exceptAll(tables[t]).count() == 0

    def test_all_strategies_same_result_rows(self, q5_runs):
        """Full rows: the non-float columns exactly, the float aggregates
        up to summation order (strategies join and sum in other orders)."""
        _, runs = q5_runs

        def non_float(row):
            return tuple(v for v in row if not isinstance(v, float))

        def split(rows):
            rows = sorted(rows, key=non_float)
            return [non_float(r) for r in rows], [v for r in rows for v in r if isinstance(v, float)]

        ref_exact, ref_floats = split(runs["no_pred_trans"].rows)
        assert ref_floats, "q05 aggregates a float column"
        for s, rr in runs.items():
            exact, floats = split(rr.rows)
            assert exact == ref_exact, s
            assert floats == pytest.approx(ref_floats, rel=1e-9), s


class TestTable1Instrumentation:
    def test_five_joins_measured(self, q5_runs):
        _, runs = q5_runs
        for s, rr in runs.items():
            assert len(rr.measures) == 5, s

    def test_join_order_matches_table1(self, q5_runs):
        _, runs = q5_runs
        tables = [m.table for m in runs["no_pred_trans"].measures]
        assert tables == ["supplier", "orders", "customer", "nation", "region"]

    def test_pred_trans_probe_sizes_dominate(self, q5_runs):
        """Pred-Trans's probe inputs are never larger than
        No-Pred-Trans's (Table 1's column-wise dominance)."""
        _, runs = q5_runs
        for m_pt, m_np in zip(runs["pred_trans"].measures, runs["no_pred_trans"].measures):
            assert m_pt.pr_rows <= m_np.pr_rows
            assert m_pt.ht_rows <= m_np.ht_rows

    def test_bloom_join_filters_at_most_one_hop(self, q5_runs):
        """One-hop transfer can't beat full transfer on probe sizes."""
        _, runs = q5_runs
        pt = sum(m.pr_rows for m in runs["pred_trans"].measures)
        bj = sum(m.pr_rows for m in runs["bloom_join"].measures)
        assert pt <= bj

    def test_first_probe_untouched_without_transfer(self, q5_runs):
        _, runs = q5_runs
        np_first = runs["no_pred_trans"].measures[0]
        bj_first = runs["bloom_join"].measures[0]
        # supplier has no local predicate: its one-hop bloom barely
        # filters lineitem, while pred_trans pre-filters it heavily.
        pt_first = runs["pred_trans"].measures[0]
        assert pt_first.pr_rows < np_first.pr_rows
        assert bj_first.pr_rows <= np_first.pr_rows
