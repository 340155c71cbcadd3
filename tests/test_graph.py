"""Unit tests for join-graph algorithms (pure Python, no Spark)."""
import pytest

from repro.core.graph import (
    DirectedEdge,
    bfs_join_tree,
    carrying_steps,
    dag_steps,
    order_steps,
    small_to_big,
    tree_steps,
    two_pass,
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

    def test_self_edge_rejected(self):
        with pytest.raises(ValueError, match="self-edge"):
            Edge("A", ("x",), "A", ("y",))

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


def _dag(edges, sizes):
    """``small_to_big``'s DAG over the tables of ``sizes``."""
    return small_to_big(list(sizes), edges, sizes)[1]


class TestOrient:
    """``small_to_big``: the small→big DAG and its (size, name) order."""

    def test_points_small_to_big(self):
        dag = _dag(_chain_edges(), {"R": 10, "S": 100, "T": 5})
        directions = {(d.src, d.dst) for d in dag}
        assert ("R", "S") in directions and ("T", "S") in directions

    def test_keeps_every_transferable_edge(self):
        edges = _q5ish_edges() + [
            Edge("orders", ("ok",), "region", ("rk",), transfer="ltr"),
            Edge("nation", ("nk",), "orders", ("ok",), transfer="none"),
        ]
        dag = _dag(edges, _Q5_SIZES)
        assert [d.edge for d in dag] == edges  # none removed (paper §3.2)

    def test_q5_topology_matches_figure_1b(self):
        dag = _dag(_q5ish_edges(), _Q5_SIZES)
        dirs = {(d.src, d.dst) for d in dag}
        assert ("region", "nation") in dirs
        assert ("nation", "supplier") in dirs and ("nation", "customer") in dirs
        assert ("supplier", "customer") in dirs and ("supplier", "lineitem") in dirs
        assert ("customer", "orders") in dirs and ("orders", "lineitem") in dirs

    def test_result_is_acyclic(self):
        # Every edge goes up the order, so the order is topological.
        order, dag = small_to_big(list(_Q5_SIZES), _q5ish_edges(), _Q5_SIZES)
        pos = {t: i for i, t in enumerate(order)}
        assert all(pos[d.src] < pos[d.dst] for d in dag)

    def test_order_is_size_then_name(self):
        sizes = {**_Q5_SIZES, "orders": 100}  # ties with supplier
        order, _ = small_to_big(list(sizes), _q5ish_edges(), sizes)
        assert order == ["region", "nation", "orders", "supplier", "customer", "lineitem"]

    def test_tie_broken_by_name(self):
        dag = _dag([Edge("B", ("x",), "A", ("y",))], {"A": 5, "B": 5})
        assert dag[0].src == "A"

    def test_directed_edge_carries_key_columns(self):
        dag = _dag(_chain_edges(), {"R": 1, "S": 2, "T": 3})
        d = next(x for x in dag if x.src == "R")
        assert d.src_cols == ("r_a",) and d.dst_cols == ("s_a",)


class TestReverseDag:
    """``two_pass``'s backward pass: the forward edges reversed."""

    def test_reverses_free_edges(self):
        order, dag = small_to_big(["R", "S", "T"], _chain_edges(), {"R": 1, "S": 2, "T": 3})
        rev = [d for _, outs in two_pass(dag, order)[len(dag_steps(dag, order)) :] for d in outs]
        assert {(d.src, d.dst) for d in rev} == {("S", "R"), ("T", "S")}
        d = next(x for x in rev if x.src == "S" and x.dst == "R")
        assert d.src_cols == ("s_a",) and d.dst_cols == ("r_a",)

    def test_one_way_edges_not_reversed(self):
        e = Edge("A", ("x",), "B", ("y",), transfer="ltr")
        dag = _dag([e], {"A": 1, "B": 2})
        assert two_pass(dag, ["A", "B"]) == [("A", dag)]

    def test_one_way_edge_from_bigger_table_sent_backward(self):
        e = Edge("big", ("x",), "small", ("y",), transfer="ltr")
        order, dag = small_to_big(["big", "small"], [e], {"big": 100, "small": 1})
        assert order == ["small", "big"] and (dag[0].src, dag[0].dst) == ("small", "big")
        (step,) = two_pass(dag, order)
        assert step == ("big", [DirectedEdge("big", ("x",), "small", ("y",), e)])

    def test_one_way_edge_closing_a_cycle_is_sent(self):
        free = Edge("A", ("x",), "B", ("y",))  # A(1) -> B(2)
        one_way = Edge("B", ("y",), "A", ("x",), transfer="ltr")  # only B -> A
        order, dag = small_to_big(["A", "B"], [free, one_way], {"A": 1, "B": 2})
        steps = two_pass(dag, order)
        assert _moves(steps) == [("A", "B"), ("B", "A", "A")]
        assert [d.edge for d in steps[1][1]] == [free, one_way]

    def test_none_edge_sent_in_neither_pass(self):
        e = Edge("A", ("x",), "B", ("y",), transfer="none")
        order, dag = small_to_big(["A", "B"], [e], {"A": 1, "B": 2})
        assert len(dag) == 1 and two_pass(dag, order) == []


class TestBfsJoinTree:
    def test_spanning(self):
        tree = bfs_join_tree(list(_Q5_SIZES), _q5ish_edges(), "lineitem")
        assert set(tree.bfs_order) == set(_Q5_SIZES)
        assert tree.bfs_order[0] == "lineitem"
        assert set(tree.parent) == set(_Q5_SIZES) - {"lineitem"}

    def test_cyclic_graph_drops_edges(self):
        # Q5's graph has 7 edges, 6 nodes -> spanning tree keeps 5.
        tree = bfs_join_tree(list(_Q5_SIZES), _q5ish_edges(), "lineitem")
        assert len({id(e) for _, e in tree.parent.values()}) == len(_Q5_SIZES) - 1

    def test_acyclic_graph_drops_nothing(self):
        edges = _chain_edges()
        tree = bfs_join_tree(["R", "S", "T"], edges, "S")
        assert {id(e) for _, e in tree.parent.values()} == {id(e) for e in edges}

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


def _both_passes(edges, sizes):
    """Pred-Trans's forward and backward passes, before pruning."""
    order, dag = small_to_big(list(sizes), edges, sizes)
    return two_pass(dag, order)


def _moves(steps):
    """Steps as (src, dst of each out-edge...), for comparison."""
    return [(src, *[d.dst for d in outs]) for src, outs in steps]


class TestSchedules:
    def test_dag_steps_on_chain(self):
        sizes = {"R": 3, "S": 4, "T": 3}  # S biggest: R→S and T→S
        order, dag = small_to_big(list(sizes), _chain_edges(), sizes)
        assert _moves(dag_steps(dag, order)) == [("R", "S"), ("T", "S")]
        both = two_pass(dag, order)
        assert _moves(both) == [("R", "S"), ("T", "S"), ("S", "R", "T")]
        assert [(d.src_cols, d.dst_cols) for d in both[2][1]] == [
            (("s_a",), ("r_a",)),
            (("s_b",), ("t_b",)),
        ]

    def test_dag_steps_drops_transfers_the_edge_does_not_allow(self):
        ltr = Edge("A", ("x",), "B", ("y",), transfer="ltr")
        none = Edge("B", ("y",), "C", ("z",), transfer="none")
        legal = DirectedEdge("A", ("x",), "B", ("y",), ltr)
        sends = [
            DirectedEdge("B", ("y",), "A", ("x",), ltr),
            legal,
            DirectedEdge("B", ("y",), "C", ("z",), none),
            DirectedEdge("C", ("z",), "B", ("y",), none),
        ]
        assert dag_steps(sends, ["A", "B", "C"]) == [("A", [legal])]

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

    # Pred-Trans sends no transfer that carries no predicate.
    def test_q12_shape_keeps_forward_step_only(self):
        # Filtered lineitem is smaller than orders, which has no predicate:
        # orders hears only lineitem, so its backward filter is an echo.
        edges = [Edge("orders", ("o_ok",), "lineitem", ("l_ok",))]
        both = _both_passes(edges, {"orders": 7500, "lineitem": 1100})
        assert _moves(both) == [("lineitem", "orders"), ("orders", "lineitem")]
        assert _moves(carrying_steps(both, {"lineitem"})) == [("lineitem", "orders")]

    def test_q04_shape_unchanged(self):
        edges = [Edge("orders", ("o_ok",), "lineitem", ("l_ok",), how="semi")]
        both = _both_passes(edges, {"orders": 300, "lineitem": 19000})
        assert carrying_steps(both, {"orders", "lineitem"}) == both

    def test_unfiltered_source_that_heard_nothing_is_dropped(self):
        # R is the smallest table and has no predicate: its forward filter
        # holds all of R's keys; S and T still send.
        both = _both_passes(_chain_edges(), {"R": 2, "S": 4, "T": 3})
        assert _moves(both) == [("R", "S"), ("T", "S"), ("S", "R", "T")]
        assert _moves(carrying_steps(both, {"S", "T"})) == [("T", "S"), ("S", "R", "T")]

    def test_echo_dropped_but_other_edges_kept(self):
        # S has no predicate and hears only R: its filter back to R is an
        # echo, its filter to T carries R's predicate. T, unfiltered and
        # unheard in the forward pass, sends nothing.
        both = _both_passes(_chain_edges(), {"R": 2, "S": 4, "T": 3})
        assert _moves(carrying_steps(both, {"R"})) == [("R", "S"), ("S", "T")]

    def test_echo_on_other_keys_kept(self):
        # Two edges between A and B: what B sends back over one edge is
        # also reduced by the filter it heard over the other.
        edges = [
            Edge("A", ("a1",), "B", ("b1",)),
            Edge("A", ("a2",), "B", ("b2",), transfer="ltr"),
        ]
        both = _both_passes(edges, {"A": 2, "B": 9})
        assert _moves(both) == [("A", "B", "B"), ("B", "A")]
        assert carrying_steps(both, {"A"}) == both

    def test_every_table_filtered_keeps_schedule(self):
        both = _both_passes(_q5ish_edges(), _Q5_SIZES)
        assert carrying_steps(both, set(_Q5_SIZES)) == both
