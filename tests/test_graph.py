"""Unit tests for join-graph algorithms (pure Python, no Spark)."""
import pytest

from repro.core.graph import (
    bfs_join_tree,
    dag_steps,
    order_steps,
    orient,
    reverse_dag,
    topological_order,
    tree_steps,
)
from repro.core.spec import Edge


def _chain_edges():
    # R -(a)- S -(b)- T
    return [
        Edge("R", ("r_a",), "S", ("s_a",)),
        Edge("S", ("s_b",), "T", ("t_b",)),
    ]


def _q5ish_edges():
    return [
        Edge("supplier", ("sk",), "lineitem", ("lsk",)),
        Edge("orders", ("ok",), "lineitem", ("lok",)),
        Edge("customer", ("ck",), "orders", ("ock",)),
        Edge("customer", ("cn",), "supplier", ("sn",)),
        Edge("nation", ("nk",), "supplier", ("sn",)),
        Edge("nation", ("nk",), "customer", ("cn",)),
        Edge("region", ("rk",), "nation", ("nr",)),
    ]


_Q5_SIZES = {
    "region": 1,
    "nation": 25,
    "supplier": 100,
    "customer": 1000,
    "orders": 2000,
    "lineitem": 50_000,
}


class TestEdge:
    def test_arity_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Edge("A", ("x", "y"), "B", ("z",))

    def test_empty_keys_rejected(self):
        with pytest.raises(ValueError):
            Edge("A", (), "B", ())

    def test_bad_how_rejected(self):
        with pytest.raises(ValueError):
            Edge("A", ("x",), "B", ("y",), how="left")

    def test_bad_transfer_rejected(self):
        with pytest.raises(ValueError):
            Edge("A", ("x",), "B", ("y",), transfer="up")

    def test_anti_requires_ltr(self):
        with pytest.raises(ValueError):
            Edge("A", ("x",), "B", ("y",), how="anti")
        Edge("A", ("x",), "B", ("y",), how="anti", transfer="ltr")  # ok

    def test_other_and_cols_of(self):
        e = Edge("A", ("x",), "B", ("y",))
        assert e.other("A") == "B" and e.other("B") == "A"
        assert e.cols_of("A") == ("x",) and e.cols_of("B") == ("y",)
        with pytest.raises(KeyError):
            e.other("C")

    @pytest.mark.parametrize(
        "transfer,frm,expected",
        [
            ("both", "A", True),
            ("both", "B", True),
            ("ltr", "A", True),
            ("ltr", "B", False),
            ("rtl", "A", False),
            ("rtl", "B", True),
            ("none", "A", False),
        ],
    )
    def test_can_transfer_from(self, transfer, frm, expected):
        e = Edge("A", ("x",), "B", ("y",), transfer=transfer)
        assert e.can_transfer_from(frm) is expected


class TestOrient:
    def test_points_small_to_big(self):
        dag = orient(_chain_edges(), {"R": 10, "S": 100, "T": 5})
        directions = {(d.src, d.dst) for d in dag}
        assert ("R", "S") in directions and ("T", "S") in directions

    def test_keeps_every_transferable_edge(self):
        dag = orient(_q5ish_edges(), _Q5_SIZES)
        assert len(dag) == 7  # no edge removed (paper §3.2)

    def test_q5_topology_matches_figure_1b(self):
        dag = orient(_q5ish_edges(), _Q5_SIZES)
        dirs = {(d.src, d.dst) for d in dag}
        assert ("region", "nation") in dirs
        assert ("nation", "supplier") in dirs and ("nation", "customer") in dirs
        assert ("supplier", "customer") in dirs and ("supplier", "lineitem") in dirs
        assert ("customer", "orders") in dirs and ("orders", "lineitem") in dirs

    def test_result_is_acyclic(self):
        dag = orient(_q5ish_edges(), _Q5_SIZES)
        topological_order(list(_Q5_SIZES), dag)  # raises on a cycle

    def test_tie_broken_by_name(self):
        dag = orient([Edge("B", ("x",), "A", ("y",))], {"A": 5, "B": 5})
        assert dag[0].src == "A"

    def test_forced_direction_respected(self):
        e = Edge("big", ("x",), "small", ("y",), transfer="ltr")
        dag = orient([e], {"big": 100, "small": 1})
        assert dag[0].src == "big" and dag[0].dst == "small"

    def test_none_edges_excluded(self):
        dag = orient([Edge("A", ("x",), "B", ("y",), transfer="none")], {"A": 1, "B": 2})
        assert dag == []

    def test_forced_edge_closing_cycle_is_skipped(self):
        edges = [
            Edge("A", ("x",), "B", ("y",)),  # free: A(1) -> B(2)
            Edge("B", ("y",), "A", ("x",), transfer="ltr"),  # forced B -> A
        ]
        dag = orient(edges, {"A": 1, "B": 2})
        assert len(dag) == 1 and (dag[0].src, dag[0].dst) == ("A", "B")

    def test_directed_edge_carries_key_columns(self):
        dag = orient(_chain_edges(), {"R": 1, "S": 2, "T": 3})
        d = next(x for x in dag if x.src == "R")
        assert d.src_cols == ("r_a",) and d.dst_cols == ("s_a",)


class TestTopologicalOrder:
    def test_respects_edges(self):
        dag = orient(_q5ish_edges(), _Q5_SIZES)
        order = topological_order(list(_Q5_SIZES), dag)
        pos = {t: i for i, t in enumerate(order)}
        for d in dag:
            assert pos[d.src] < pos[d.dst]

    def test_deterministic(self):
        dag = orient(_q5ish_edges(), _Q5_SIZES)
        nodes = list(_Q5_SIZES)
        assert topological_order(nodes, dag) == topological_order(nodes, dag)

    def test_cycle_detected(self):
        from repro.core.graph import DirectedEdge

        e = Edge("A", ("x",), "B", ("y",))
        cyc = [
            DirectedEdge("A", ("x",), "B", ("y",), e),
            DirectedEdge("B", ("y",), "A", ("x",), e),
        ]
        with pytest.raises(ValueError):
            topological_order(["A", "B"], cyc)


class TestReverseDag:
    def test_reverses_free_edges(self):
        dag = orient(_chain_edges(), {"R": 1, "S": 2, "T": 3})
        rev = reverse_dag(dag)
        assert {(d.src, d.dst) for d in rev} == {("S", "R"), ("T", "S")}
        d = next(x for x in rev if x.src == "S" and x.dst == "R")
        assert d.src_cols == ("s_a",) and d.dst_cols == ("r_a",)

    def test_one_way_edges_not_reversed(self):
        e = Edge("A", ("x",), "B", ("y",), transfer="ltr")
        rev = reverse_dag(orient([e], {"A": 1, "B": 2}))
        assert rev == []


class TestBfsJoinTree:
    def test_spanning(self):
        tree = bfs_join_tree(list(_Q5_SIZES), _q5ish_edges(), "lineitem")
        assert set(tree.bfs_order) == set(_Q5_SIZES)
        assert tree.bfs_order[0] == "lineitem"
        assert set(tree.parent) == set(_Q5_SIZES) - {"lineitem"}

    def test_cyclic_graph_drops_edges(self):
        # Q5's graph has 7 edges, 6 nodes -> spanning tree keeps 5.
        tree = bfs_join_tree(list(_Q5_SIZES), _q5ish_edges(), "lineitem")
        assert len(tree.dropped_edges) == 2

    def test_acyclic_graph_drops_nothing(self):
        tree = bfs_join_tree(["R", "S", "T"], _chain_edges(), "S")
        assert tree.dropped_edges == []

    def test_parent_edges_connect(self):
        tree = bfs_join_tree(list(_Q5_SIZES), _q5ish_edges(), "region")
        for child, (parent, e) in tree.parent.items():
            assert {child, parent} == {e.left, e.right}

    def test_disconnected_raises(self):
        with pytest.raises(ValueError):
            bfs_join_tree(["A", "B"], [], "A")

    def test_root_choice_changes_tree(self):
        t1 = bfs_join_tree(list(_Q5_SIZES), _q5ish_edges(), "lineitem")
        t2 = bfs_join_tree(list(_Q5_SIZES), _q5ish_edges(), "region")
        assert t1.bfs_order != t2.bfs_order


def _moves(steps):
    """Steps as (src, dst of each out-edge...), for comparison."""
    return [(src, *[d.dst for d in outs]) for src, outs in steps]


class TestSchedules:
    def test_dag_steps_on_chain(self):
        sizes = {"R": 3, "S": 4, "T": 3}  # S biggest: R→S and T→S
        dag = orient(_chain_edges(), sizes)
        topo = topological_order(list(sizes), dag)
        assert _moves(dag_steps(dag, topo)) == [("R", "S"), ("T", "S")]
        back = dag_steps(reverse_dag(dag), topo[::-1])
        assert _moves(back) == [("S", "R", "T")]
        assert [(d.src_cols, d.dst_cols) for d in back[0][1]] == [
            (("s_a",), ("r_a",)),
            (("s_b",), ("t_b",)),
        ]

    @pytest.mark.parametrize(
        "root,expected",
        [
            ("R", [("T", "S"), ("S", "R"), ("R", "S"), ("S", "T")]),
            ("S", [("T", "S"), ("R", "S"), ("S", "R", "T")]),
            ("T", [("R", "S"), ("S", "T"), ("T", "S"), ("S", "R")]),
        ],
    )
    def test_tree_steps_up_then_down(self, root, expected):
        steps = tree_steps(bfs_join_tree(["R", "S", "T"], _chain_edges(), root))
        assert _moves(steps) == expected
        for src, outs in steps:
            for d in outs:
                assert d.src == src and d.src_cols == d.edge.cols_of(src)
                assert d.dst_cols == d.edge.cols_of(d.dst)

    @pytest.mark.parametrize("root", ["R", "S", "T"])
    def test_tree_steps_keep_ltr_edge_one_way(self, root):
        edges = [
            Edge("R", ("r_a",), "S", ("s_a",), transfer="ltr"),
            Edge("S", ("s_b",), "T", ("t_b",)),
        ]
        moves = {
            (d.src, d.dst)
            for _, outs in tree_steps(bfs_join_tree(["R", "S", "T"], edges, root))
            for d in outs
        }
        assert moves == {("R", "S"), ("S", "T"), ("T", "S")}

    def test_order_steps(self):
        """Bloom Join: each joining table sends to the tables placed
        before it, and only where the edge allows that direction."""
        forward = order_steps(_chain_edges(), ["R", "S", "T"])
        assert _moves(forward) == [("S", "R"), ("T", "S")]
        assert [(d.src_cols, d.dst_cols) for _, outs in forward for d in outs] == [
            (("s_a",), ("r_a",)),
            (("t_b",), ("s_b",)),
        ]
        assert _moves(order_steps(_chain_edges(), ["T", "S", "R"])) == [("S", "T"), ("R", "S")]
        ltr = [
            Edge("R", ("r_a",), "S", ("s_a",), transfer="ltr"),
            Edge("S", ("s_b",), "T", ("t_b",)),
        ]
        assert _moves(order_steps(ltr, ["R", "S", "T"])) == [("T", "S")]
        assert _moves(order_steps(ltr, ["T", "S", "R"])) == [("S", "T"), ("R", "S")]
