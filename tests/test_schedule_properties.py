"""Property tests of the transfer schedules (pure Python, no Spark):
random chains, stars and cycles with random transfer modes, sizes,
Yannakakis roots and join orders."""
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.graph import (
    bfs_join_tree,
    carrying_steps,
    order_steps,
    small_to_big,
    tree_steps,
    two_pass,
)
from repro.core.spec import Edge

MODES = ("both", "ltr", "rtl", "none")
#: Fixed, derandomized budget: the whole module runs in well under 10 s.
BUDGET = settings(max_examples=300, deadline=None, derandomize=True, database=None)


@st.composite
def join_graphs(draw, max_tables=6):
    """``(tables, edges)``: a chain, a star or a cycle over 2 to
    ``max_tables`` tables, each edge on its own key columns with a random
    transfer mode."""
    shape = draw(st.sampled_from(["chain", "star", "cycle"]))
    n = draw(st.integers(2, max_tables))
    tables = [f"T{i}" for i in range(n)]
    if shape == "chain":
        pairs = list(zip(tables, tables[1:]))
    elif shape == "star":
        pairs = [(tables[0], t) for t in tables[1:]]
    else:
        pairs = list(zip(tables, tables[1:] + tables[:1]))
    edges = []
    for k, (a, b) in enumerate(pairs):
        if draw(st.booleans()):
            a, b = b, a
        mode = draw(st.sampled_from(MODES))
        edges.append(Edge(a, (f"{a.lower()}_{k}",), b, (f"{b.lower()}_{k}",), transfer=mode))
    return tables, edges


def _transfers(steps):
    return [d for _, outs in steps for d in outs]


def _assert_well_formed(steps):
    """Every transfer is legal, leaves its step's table, and carries its
    edge's key columns on each end."""
    for src, outs in steps:
        assert outs
        for d in outs:
            assert d.src == src and d.dst == d.edge.other(src)
            assert d.edge.can_transfer_from(d.src)
            assert d.src_cols == d.edge.cols_of(d.src)
            assert d.dst_cols == d.edge.cols_of(d.dst)


@BUDGET
@given(join_graphs(), st.data())
def test_pred_trans_schedule_well_formed(graph, data):
    tables, edges = graph
    sizes = {t: data.draw(st.integers(1, 5)) for t in tables}
    filtered = data.draw(st.sets(st.sampled_from(tables)))
    order, dag = small_to_big(tables, edges, sizes)
    both = two_pass(dag, order)
    _assert_well_formed(both)
    _assert_well_formed(carrying_steps(both, filtered))
    # Forward transfers go up the (size, name) order, then backward ones
    # down it; each pass has at most one step per table, in its order.
    pos = {t: i for i, t in enumerate(sorted(tables, key=lambda t: (sizes[t], t)))}
    fwd = [src for src, outs in both if all(pos[src] < pos[d.dst] for d in outs)]
    back = [src for src, outs in both if all(pos[src] > pos[d.dst] for d in outs)]
    assert [src for src, _ in both] == fwd + back
    assert fwd == sorted(set(fwd), key=pos.get)
    assert back == sorted(set(back), key=pos.get, reverse=True)
    # Every (edge, source) pair the edge's mode allows is sent exactly once.
    sent = Counter((id(d.edge), d.src) for d in _transfers(both))
    allowed = [(id(e), t) for e in edges for t in (e.left, e.right) if e.can_transfer_from(t)]
    assert sent == Counter(allowed)


@BUDGET
@given(join_graphs(), st.data())
def test_yannakakis_sends_each_tree_edge_once_per_allowed_direction(graph, data):
    tables, edges = graph
    tree = bfs_join_tree(tables, edges, data.draw(st.sampled_from(tables)))
    steps = tree_steps(tree)
    _assert_well_formed(steps)
    sent = Counter((id(d.edge), d.src) for d in _transfers(steps))
    expected = Counter(
        (id(e), t)
        for child, (parent, e) in tree.parent.items()
        for t in (child, parent)
        if e.can_transfer_from(t)
    )
    assert sent == expected
    # The child→parent pass runs first, and in each pass a table sends
    # only after all it receives in that pass (from its children going
    # up, from its parent going down).
    transfers = _transfers(steps)
    up = [tree.parent.get(d.src, (None, None))[1] is d.edge for d in transfers]
    assert up == sorted(up, reverse=True)
    for i, d in enumerate(transfers):
        assert all(j < i for j, r in enumerate(transfers) if r.dst == d.src and up[j] == up[i])


@BUDGET
@given(join_graphs(), st.data())
def test_bloom_join_sends_only_to_tables_placed_earlier(graph, data):
    tables, edges = graph
    order = data.draw(st.permutations(tables))
    steps = order_steps(edges, order)
    _assert_well_formed(steps)
    pos = {t: i for i, t in enumerate(order)}
    assert [src for src, _ in steps] == sorted((src for src, _ in steps), key=pos.get)
    for d in _transfers(steps):
        assert pos[d.dst] < pos[d.src]
    # Each edge is sent once, from its later table, where its mode allows.
    later = {id(e): max(e.left, e.right, key=pos.get) for e in edges}
    sent = sorted((id(d.edge), d.src) for d in _transfers(steps))
    assert sent == sorted((id(e), later[id(e)]) for e in edges if e.can_transfer_from(later[id(e)]))
