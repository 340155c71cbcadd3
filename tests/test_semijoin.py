"""Yannakakis semi-join phase tests: the full-reducer property on
acyclic queries, cycle breaking, and §3.4 direction restrictions."""
import pandas as pd
import pytest

from repro.core.spec import Edge
from repro.core.transfer import yannakakis_reduce

CHAIN = lambda: [
    Edge("R", ("r_a",), "S", ("s_a",)),
    Edge("S", ("s_b",), "T", ("t_b",)),
]


def _rows(df, *cols):
    return {tuple(r[c] for c in cols) for r in df.collect()}


class TestFullReducer:
    """On an acyclic query the semi-join phase must remove *exactly* the
    rows that cannot appear in the join result (Yannakakis' theorem)."""

    @pytest.mark.parametrize("root", ["R", "S", "T"])
    def test_chain_reduced_to_contributing_rows(self, toy, root):
        reduced, _ = yannakakis_reduce(toy, CHAIN(), root)
        assert _rows(reduced["R"], "r_a") == {(1,)}
        assert _rows(reduced["S"], "s_a", "s_b") == {(1, 10), (1, 11)}
        assert _rows(reduced["T"], "t_b") == {(10,), (11,)}

    def test_join_of_reduced_equals_join_of_raw(self, toy):
        from pyspark.sql import functions as F

        reduced, _ = yannakakis_reduce(toy, CHAIN(), "R")

        def _join(t):
            # name-based conditions: reduced tables share lineage (the
            # semi-joins reference each other), df["col"] refs would be
            # flagged as ambiguous self-joins.
            return (
                t["R"].join(t["S"], F.col("r_a") == F.col("s_a"))
                .join(t["T"], F.col("s_b") == F.col("t_b"))
            )

        assert _rows(_join(toy), "r_a", "s_b", "t_b") == _rows(
            _join(reduced), "r_a", "s_b", "t_b"
        )

    def test_reduction_is_subset(self, toy):
        reduced, _ = yannakakis_reduce(toy, CHAIN(), "S")
        for name in toy:
            assert reduced[name].exceptAll(toy[name]).count() == 0


class TestCyclicAndRestricted:
    def test_cycle_broken_by_bfs(self, toy, spark):
        # Add the closing edge R(a)-T? — use a triangle via new table U.
        U = spark.createDataFrame(pd.DataFrame({"u_a": [1, 3], "u_b": [10, 13]}))
        toy2 = dict(toy, U=U)
        edges = CHAIN() + [
            Edge("R", ("r_a",), "U", ("u_a",)),
            Edge("T", ("t_b",), "U", ("u_b",)),
        ]
        reduced, tree = yannakakis_reduce(toy2, edges, "R")
        assert len(tree.dropped_edges) == 1
        # Soundness: reductions are subsets, contributing rows survive.
        for name in toy2:
            assert reduced[name].exceptAll(toy2[name]).count() == 0
        assert _rows(reduced["U"], "u_a") >= {(1,)}

    def test_ltr_edge_never_reduces_left(self, toy):
        edges = [
            Edge("R", ("r_a",), "S", ("s_a",), transfer="ltr"),
            Edge("S", ("s_b",), "T", ("t_b",)),
        ]
        reduced, _ = yannakakis_reduce(toy, edges, "R")
        # R may not be semi-joined by S: the dangling a=3 row survives.
        assert _rows(reduced["R"], "r_a") == {(1,), (2,), (3,)}
        # but S is still filtered by R (left→right is legal).
        assert (4,) not in _rows(reduced["S"], "s_a")

    def test_none_edge_transfers_nothing(self, toy):
        edges = [
            Edge("R", ("r_a",), "S", ("s_a",), transfer="none"),
            Edge("S", ("s_b",), "T", ("t_b",)),
        ]
        with pytest.raises(ValueError):
            # 'none' edges don't even connect the BFS tree: graph splits.
            yannakakis_reduce(toy, edges, "R")

    def test_tree_root_is_requested(self, toy):
        _, tree = yannakakis_reduce(toy, CHAIN(), "T")
        assert tree.root == "T" and tree.bfs_order[0] == "T"
