"""Join-graph algorithms: the small→big predicate transfer graph, the
BFS join tree used by the Yannakakis baseline, and the transfer
schedules of the three pre-filter strategies.

Every schedule is a list of steps ``(src, [DirectedEdge])`` built by
one pass primitive, ``dag_steps``, the only place that drops a transfer
its edge's mode does not allow (``Edge.can_transfer_from``, §3.4).
``two_pass`` is that pass forward, then over the edges reversed in the
reverse order: Pred-Trans's schedule over the small→big DAG, and
Yannakakis's over the join tree's child→parent edges (``tree_steps``).
Bloom Join's (``order_steps``) is one pass over the left-deep plan of
``spec.left_deep``. ``carrying_steps`` prunes Pred-Trans's schedule to
the transfers that carry a predicate.

``small_to_big`` implements the paper's §3.2 heuristic verbatim: every
join-graph edge is kept and pointed from the smaller table to the
bigger table. Because "smaller than" (with a deterministic name tie-
break) is a total order on tables, the edges can never form a cycle,
and that one ``(size, name)`` order schedules both passes. A
direction-restricted edge (outer/anti, §3.4) is sent in the pass that
has its allowed direction, forward or backward, and never skipped.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Set, Tuple

from repro.core.spec import Edge, left_deep


@dataclass(frozen=True)
class DirectedEdge:
    """One transfer: a filter on ``src``'s ``src_cols`` applied to
    ``dst``'s ``dst_cols``. Keeps a handle to the original edge."""

    src: str
    src_cols: Tuple[str, ...]
    dst: str
    dst_cols: Tuple[str, ...]
    edge: Edge


#: One step of a transfer schedule: a source table and its out-edges.
Step = Tuple[str, List[DirectedEdge]]


def _directed(edge: Edge, src: str) -> DirectedEdge:
    dst = edge.other(src)
    return DirectedEdge(src, edge.cols_of(src), dst, edge.cols_of(dst), edge)


def small_to_big(
    tables: Sequence[str], edges: Sequence[Edge], sizes: Mapping[str, int]
) -> Tuple[List[str], List[DirectedEdge]]:
    """The predicate transfer graph (§3.2): ``tables`` sorted by
    ``(size, name)``, and every edge pointed from its earlier table. The
    order is total, so the edges form a DAG and the order is a
    topological order of it. No edge is dropped here: ``dag_steps`` sends
    a one-way edge in whichever pass has its allowed direction, and a
    ``none`` edge in neither."""

    def rank(t: str) -> Tuple[int, str]:
        return (sizes.get(t, 0), t)

    return sorted(tables, key=rank), [_directed(e, min(e.left, e.right, key=rank)) for e in edges]


@dataclass
class JoinTree:
    """Rooted spanning tree for the Yannakakis baseline."""

    root: str
    parent: Dict[str, Tuple[str, Edge]]  # child -> (parent, connecting edge)
    bfs_order: List[str]  # root first


def bfs_join_tree(nodes: Sequence[str], edges: Sequence[Edge], root: str) -> JoinTree:
    """Break cycles by BFS from ``root`` (the paper's §4.1 extension for
    cyclic queries like Q5/Q9); non-tree edges are dropped from the
    semi-join phase. The BFS follows the edges that may transfer; once
    it is exhausted, a table reached only over a ``transfer="none"`` edge
    joins the tree by that edge (``tree_steps`` sends nothing over it),
    and the BFS goes on from there."""
    adj: Dict[str, List[Tuple[str, Edge]]] = {n: [] for n in nodes}
    for e in edges:
        adj[e.left].append((e.right, e))
        adj[e.right].append((e.left, e))
    for near in adj.values():
        near.sort(key=lambda p: p[0])
    parent: Dict[str, Tuple[str, Edge]] = {}
    order = [root]
    seen = {root}
    while True:
        # Edges from the tables reached, in BFS order, to the others.
        out = [(u, v, e) for u in order for v, e in adj[u] if v not in seen]
        if not out:
            break
        u, v, e = next((x for x in out if x[2].transfer != "none"), out[0])
        seen.add(v)
        parent[v] = (u, e)
        order.append(v)
    if seen != set(nodes):
        raise ValueError(f"join graph disconnected from root {root}: missing {set(nodes)-seen}")
    return JoinTree(root=root, parent=parent, bfs_order=order)


def dag_steps(dag: Sequence[DirectedEdge], node_order: Sequence[str]) -> List[Step]:
    """One pass over ``dag``: a step per node of ``node_order`` that has
    out-edges, carrying them in ``dag`` order. An edge is kept only where
    its transfer mode allows sending from its source
    (``Edge.can_transfer_from``); no other schedule function checks."""
    outs: Dict[str, List[DirectedEdge]] = {}
    for d in dag:
        if d.edge.can_transfer_from(d.src):
            outs.setdefault(d.src, []).append(d)
    return [(t, outs[t]) for t in node_order if t in outs]


def two_pass(dag: Sequence[DirectedEdge], node_order: Sequence[str]) -> List[Step]:
    """A forward pass over ``dag`` in ``node_order``, then a backward
    pass over every edge reversed in the reverse order."""
    back = [_directed(d.edge, d.dst) for d in dag]
    return dag_steps(dag, node_order) + dag_steps(back, node_order[::-1])


def carrying_steps(steps: Sequence[Step], filtered: Set[str]) -> List[Step]:
    """``steps`` without the out-edges that carry no predicate: an edge
    ``u → v`` whose source is not in ``filtered`` (no local predicate, no
    sub-query) and has received nothing so far but messages from ``v``
    over the same key columns, nothing at all included. Such a filter
    holds ``u``'s keys reduced only by ``v``'s own, so it could only drop
    ``v`` rows with no join partner in ``u``, which the join drops
    anyway. A step left with no out-edge is dropped too."""
    received: Dict[str, Set[Tuple[str, Tuple[str, ...], Tuple[str, ...]]]] = {}
    out: List[Step] = []
    for src, outs in steps:
        heard = received.get(src, set())
        kept = [
            d
            for d in outs
            if src in filtered or not heard <= {(d.dst, d.dst_cols, d.src_cols)}
        ]
        for d in kept:
            received.setdefault(d.dst, set()).add((d.src, d.src_cols, d.dst_cols))
        if kept:
            out.append((src, kept))
    return out


def tree_steps(tree: JoinTree) -> List[Step]:
    """Yannakakis's passes over a join tree (``two_pass``): child→parent
    in reverse BFS order (each child already reduced by its children),
    then parent→children in BFS order."""
    up = [_directed(tree.parent[child][1], child) for child in tree.bfs_order[1:]]
    return two_pass(up, tree.bfs_order[::-1])


def order_steps(edges: Sequence[Edge], order: Sequence[str]) -> List[Step]:
    """Bloom Join's schedule, one pass over the left-deep plan of
    ``order`` (``spec.left_deep``): as each table joins, it sends over its
    edges to the tables placed before it."""
    return dag_steps([_directed(e, t) for t, conn in left_deep(edges, order) for e in conn], order)
