"""Predicate-transfer phase tests on the toy chain: soundness (no
contributing row lost), effectiveness (dangling rows dropped modulo
false positives), single-scan filter construction, transfers that carry
no predicate left out, §3.4 restrictions, the nesting of the reductions
(exact ⊆ Pred-Trans ⊆ input), and the sizing of every filter a q05 run
builds."""
import pytest

from repro import queries
from repro.bloom.filter import optimal_params
from repro.core import strategies, transfer
from repro.core.spec import Edge, QuerySpec, TableRef
from repro.core.strategies import _count_all, run_query
from repro.core.transfer import (
    apply_semi_joins,
    predicate_transfer,
    run_steps,
    send_tables,
    yannakakis_reduce,
)
from repro.oracle import assert_equivalent

CHAIN = lambda: [
    Edge("R", ("r_a",), "S", ("s_a",)),
    Edge("S", ("s_b",), "T", ("t_b",)),
]

SIZES = {"R": 3, "S": 4, "T": 3}


def _set(df, *cols):
    return {tuple(r[c] for c in cols) for r in df.collect()}


def _chain_join(t):
    """The toy chain's join result, as a set of (r_a, s_b, t_b)."""
    joined = t["R"].join(t["S"], t["R"]["r_a"] == t["S"]["s_a"]).join(
        t["T"], t["S"]["s_b"] == t["T"]["t_b"]
    )
    return _set(joined, "r_a", "s_b", "t_b")


class TestSoundness:
    def test_contributing_rows_survive(self, toy):
        reduced, _ = predicate_transfer(toy, CHAIN(), SIZES, set(toy))
        assert _set(reduced["R"], "r_a") >= {(1,)}
        assert _set(reduced["S"], "s_a", "s_b") >= {(1, 10), (1, 11)}
        assert _set(reduced["T"], "t_b") >= {(10,), (11,)}

    def test_reduced_is_subset_of_input(self, toy):
        reduced, _ = predicate_transfer(toy, CHAIN(), SIZES, set(toy))
        for name in toy:
            assert reduced[name].exceptAll(toy[name]).count() == 0

    def test_join_result_unchanged(self, toy):
        reduced, _ = predicate_transfer(toy, CHAIN(), SIZES, set(toy))
        assert _chain_join(reduced) == _chain_join(toy)


class TestEffectiveness:
    def test_dangling_rows_filtered(self, toy):
        """With tiny inputs the Bloom fpp makes false positives
        vanishingly unlikely, so the reduction should equal the exact
        semi-join reduction on this acyclic chain."""
        reduced, _ = predicate_transfer(toy, CHAIN(), SIZES, set(toy))
        assert _set(reduced["R"], "r_a") == {(1,)}
        assert _set(reduced["S"], "s_a", "s_b") == {(1, 10), (1, 11)}
        assert _set(reduced["T"], "t_b") == {(10,), (11,)}

    def test_forward_only_filter_weaker_than_both_passes(self, toy):
        # A single forward pass cannot filter the topologically-first
        # table; the backward pass can. R is smallest -> a source.
        reduced, stats = predicate_transfer(toy, CHAIN(), SIZES, set(toy))
        assert stats.received["R"] >= 1  # got a filter on the way back


class TestStats:
    def test_scan_counts(self, toy):
        _, stats = predicate_transfer(toy, CHAIN(), SIZES, set(toy))
        # DAG: R→S and T→S (S is the biggest). Forward: R and T scan
        # (S is the sink); backward: only S scans, building both
        # outgoing filters (s_a, s_b) in that single scan.
        assert stats.n_scans == 3
        assert stats.n_filters_built == 4
        assert stats.n_filters_applied == 4

    def test_every_table_receives_a_filter_on_a_chain(self, toy):
        _, stats = predicate_transfer(toy, CHAIN(), SIZES, set(toy))
        assert all(v >= 1 for v in stats.received.values())

    def test_dag_orientation_small_to_big(self, toy):
        _, stats = predicate_transfer(toy, CHAIN(), SIZES, set(toy))
        dirs = {(d.src, d.dst) for d in stats.dag}
        assert dirs == {("R", "S"), ("T", "S")}

    def test_shared_scan_for_multiple_outgoing_edges(self, toy, spark):
        import pandas as pd

        # Add U so S has two same-keyed neighbours (T and U on s_b).
        U = spark.createDataFrame(pd.DataFrame({"u_b": [10, 12, 13]}))
        toy2 = dict(toy, U=U)
        edges = CHAIN() + [Edge("S", ("s_b",), "U", ("u_b",))]
        sizes = dict(SIZES, U=3)
        _, stats = predicate_transfer(toy2, edges, sizes, set(toy2))
        # Forward: sources R, T, U each scan once (one filter each).
        # Backward: S scans ONCE, builds two filters (s_a, s_b) and
        # applies them along three reversed edges — the s_b filter is
        # shared by T and U (§3.2: one scan regardless of edge count).
        assert stats.n_scans == 4
        assert stats.n_filters_built == 5
        assert stats.n_filters_applied == 6


class TestCarriesPredicates:
    def test_dropped_echo_keeps_join_result(self, toy):
        """S is smaller than R and R has no predicate: R hears only S's
        filter, so its filter back to S is an echo and is not sent. S
        then keeps its row (4, 10), whose key has no partner in R."""
        sizes = {"R": 5, "S": 4, "T": 3}  # T→S→R
        reduced, stats = predicate_transfer(toy, CHAIN(), sizes, {"S", "T"})
        assert [(d.src, d.dst) for _, outs in stats.steps for d in outs] == [
            ("T", "S"),
            ("S", "R"),
            ("S", "T"),
        ]
        assert stats.n_scans == 3
        assert (4, 10) in _set(reduced["S"], "s_a", "s_b")
        assert _chain_join(reduced) == _chain_join(toy)

    def test_q12_sends_one_filter(self, spark, tpch_small):
        """Only lineitem has a predicate: orders' filter back to it is an
        echo, so Pred-Trans builds from one scan."""
        spec = queries.build("q12", tpch_small.spark)
        rr = run_query(spark, spec, "pred_trans")
        try:
            assert rr.transfer_stats.n_scans == 1
            (step,) = rr.transfer_stats.steps
            assert step[0] == "lineitem"
            assert_equivalent(rr.df, spec.oracle_sql, **tpch_small.pandas)
        finally:
            rr.cleanup()


class TestRestrictions:
    def test_ltr_edge_only_transfers_forward(self, toy):
        edges = [
            Edge("R", ("r_a",), "S", ("s_a",), transfer="ltr"),
            Edge("S", ("s_b",), "T", ("t_b",)),
        ]
        reduced, stats = predicate_transfer(toy, edges, SIZES, set(toy))
        # R never receives: the reversed R<-S transfer is forbidden.
        assert stats.received["R"] == 0
        assert _set(reduced["R"], "r_a") == {(1,), (2,), (3,)}
        # S still filtered by R's forward filter: s_a=4 gone.
        assert (4,) not in {t[:1] for t in _set(reduced["S"], "s_a")}

    def test_none_edge_no_transfer(self, toy):
        edges = [
            Edge("R", ("r_a",), "S", ("s_a",), transfer="none"),
            Edge("S", ("s_b",), "T", ("t_b",)),
        ]
        reduced, stats = predicate_transfer(toy, edges, SIZES, set(toy))
        assert _set(reduced["R"], "r_a") == {(1,), (2,), (3,)}
        # S-T edge still active both ways: S's dangling b=12 row gone.
        assert (12,) not in {t[1:] for t in _set(reduced["S"], "s_a", "s_b")}

    def test_multi_column_edge(self, toy, spark):
        import pandas as pd

        # Pair-keyed edge: only exact (a,b) pairs transfer.
        P = spark.createDataFrame(
            pd.DataFrame({"p_a": [1, 1, 2], "p_b": [10, 99, 12]})
        )
        toy2 = {"S": toy["S"], "P": P}
        edges = [Edge("S", ("s_a", "s_b"), "P", ("p_a", "p_b"))]
        reduced, _ = predicate_transfer(toy2, edges, {"S": 4, "P": 3}, set(toy2))
        assert _set(reduced["P"], "p_a", "p_b") == {(1, 10), (2, 12)}
        assert _set(reduced["S"], "s_a", "s_b") == {(1, 10), (2, 12)}


def _nested(tables, edges, sizes):
    """Pred-Trans's output and exact semi-joins over the schedule it ran;
    asserts exact ⊆ Pred-Trans ⊆ input for every table."""
    reduced, stats = predicate_transfer(tables, edges, sizes, set(tables))
    exact = run_steps(tables, stats.steps, send_tables, apply_semi_joins)
    for t, df in tables.items():
        assert exact[t].exceptAll(reduced[t]).count() == 0, t
        assert reduced[t].exceptAll(df).count() == 0, t
    return exact


class TestReductionsNest:
    def test_chain(self, toy):
        exact = _nested(toy, CHAIN(), SIZES)
        # Acyclic: exact transfer over the DAG is Yannakakis's full reducer.
        yann, _ = yannakakis_reduce(toy, CHAIN(), "R")
        for t in toy:
            assert exact[t].exceptAll(yann[t]).count() == 0, t
            assert yann[t].exceptAll(exact[t]).count() == 0, t

    def test_q05(self, tpch_small):
        spec = queries.build("q05", tpch_small.spark)
        tables = {
            t: ref.df if ref.predicate is None else ref.df.filter(ref.predicate)
            for t, ref in spec.tables.items()
        }
        _nested(tables, spec.edges, _count_all(tables))


def _sized_for(sizes, src):
    """Bits of a filter built from ``src``: sized for ``sizes[src]`` keys
    at a 0.01 false-positive rate, rounded up to whole 64-bit words."""
    return -(-optimal_params(sizes[src], 0.01)[0] // 64) * 64


def test_pred_trans_filters_sized_by_sender(spark, tpch_small, monkeypatch):
    built, build = [], transfer.build_blooms

    def recording(df, key_sets, items):
        built.append(build(df, key_sets, items))
        return built[-1]

    monkeypatch.setattr(transfer, "build_blooms", recording)
    rr = run_query(spark, queries.build("q05", tpch_small.spark), "pred_trans")
    try:
        steps = rr.transfer_stats.steps
        assert len(built) == len(steps)
        for (src, outs), filters in zip(steps, built):
            assert len(filters) == len({d.src_cols for d in outs})
            assert {f.n_bits for f in filters} == {_sized_for(rr.sizes, src)}, src
    finally:
        rr.cleanup()


def test_bloom_join_filters_sized_by_sender(spark, tpch_small, monkeypatch):
    sent, step_blooms = {}, strategies._bloom_join_step_blooms

    def recording(*args):
        sent.update(step_blooms(*args))
        return sent

    monkeypatch.setattr(strategies, "_bloom_join_step_blooms", recording)
    rr = run_query(spark, queries.build("q05", tpch_small.spark), "bloom_join")
    try:
        assert set(sent) == set(rr.sizes), "only the senders are counted"
        for src, msgs in sent.items():
            assert {f.n_bits for _, f in msgs} == {_sized_for(rr.sizes, src)}, src
    finally:
        rr.cleanup()


@pytest.mark.parametrize("strategy", ["bloom_join", "pred_trans"])
def test_nothing_counted_without_a_filter_to_size(spark, monkeypatch, strategy):
    """A single-table block (a sub-query's, say) sends no filter, so the
    pre-filter phase counts no table."""
    calls, count_all = [], strategies._count_all

    def counting(tables):
        calls.append(sorted(tables))
        return count_all(tables)

    monkeypatch.setattr(strategies, "_count_all", counting)
    spec = QuerySpec(
        name="one_table",
        tables={"t": TableRef(df=spark.range(5))},
        edges=[],
        join_order=["t"],
        finalize=lambda df, s: df,
    )
    rr = run_query(spark, spec, strategy)
    try:
        assert len(rr.rows) == 5
        assert rr.sizes == {}
        assert calls == []
    finally:
        rr.cleanup()
