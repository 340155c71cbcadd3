"""Join-graph algorithms: predicate-transfer-graph orientation, topological
scheduling, the BFS join tree used by the Yannakakis baseline, and the
transfer schedules of the three pre-filter strategies (``dag_steps``,
``tree_steps``, ``order_steps``).

Orientation implements the paper's §3.2 heuristic verbatim: every
join-graph edge is kept and pointed from the smaller table to the
bigger table. Because "smaller than" (with a deterministic name tie-
break) is a total order on tables, the free edges can never form a
cycle; direction-restricted edges (outer/anti, §3.4) are forced to
their only legal direction and dropped if that would close a cycle.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple

from repro.core.spec import Edge


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


def _reaches(adj: Mapping[str, List[str]], start: str, goal: str) -> bool:
    seen, stack = {start}, [start]
    while stack:
        u = stack.pop()
        if u == goal:
            return True
        for v in adj.get(u, ()):
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return False


def orient(edges: Sequence[Edge], sizes: Mapping[str, int]) -> List[DirectedEdge]:
    """Build the predicate transfer graph (a DAG): free edges point
    small→big; forced edges keep their declared direction unless that
    would create a cycle (then they are skipped — the transfer is
    simply not performed, which is always sound)."""

    def rank(t: str) -> Tuple[int, str]:
        return (sizes.get(t, 0), t)

    out: List[DirectedEdge] = []
    forced: List[DirectedEdge] = []
    for e in edges:
        if e.transfer == "none":
            continue
        if e.transfer == "both":
            src = e.left if rank(e.left) <= rank(e.right) else e.right
            out.append(_directed(e, src))
        else:
            forced.append(_directed(e, e.left if e.transfer == "ltr" else e.right))
    adj: Dict[str, List[str]] = {}
    for d in out:
        adj.setdefault(d.src, []).append(d.dst)
    for d in forced:
        if _reaches(adj, d.dst, d.src):
            continue  # would close a cycle; skip this transfer
        out.append(d)
        adj.setdefault(d.src, []).append(d.dst)
    return out


def topological_order(nodes: Sequence[str], dag: Sequence[DirectedEdge]) -> List[str]:
    """Kahn topological order (deterministic: FIFO over sorted seeds)."""
    indeg = {n: 0 for n in nodes}
    adj: Dict[str, List[str]] = {n: [] for n in nodes}
    for d in dag:
        indeg[d.dst] += 1
        adj[d.src].append(d.dst)
    q = deque(sorted(n for n in nodes if indeg[n] == 0))
    order: List[str] = []
    while q:
        u = q.popleft()
        order.append(u)
        for v in sorted(adj[u]):
            indeg[v] -= 1
            if indeg[v] == 0:
                q.append(v)
    if len(order) != len(nodes):
        raise ValueError("transfer graph has a cycle")
    return order


def reverse_dag(dag: Sequence[DirectedEdge]) -> List[DirectedEdge]:
    """Edges for the backward pass: every DAG edge reversed, keeping only
    reversals the edge's transfer mode allows (§3.4 one-way edges take
    part in a single pass)."""
    rev = []
    for d in dag:
        if d.edge.can_transfer_from(d.dst):
            rev.append(DirectedEdge(d.dst, d.dst_cols, d.src, d.src_cols, d.edge))
    return rev


@dataclass
class JoinTree:
    """Rooted spanning tree for the Yannakakis baseline."""

    root: str
    parent: Dict[str, Tuple[str, Edge]]  # child -> (parent, connecting edge)
    bfs_order: List[str]  # root first
    dropped_edges: List[Edge]  # cycle edges not in the tree


def bfs_join_tree(nodes: Sequence[str], edges: Sequence[Edge], root: str) -> JoinTree:
    """Break cycles by BFS from ``root`` (the paper's §4.1 extension for
    cyclic queries like Q5/Q9); non-tree edges are dropped from the
    semi-join phase."""
    adj: Dict[str, List[Tuple[str, Edge]]] = {n: [] for n in nodes}
    for e in edges:
        if e.transfer == "none":
            continue
        adj[e.left].append((e.right, e))
        adj[e.right].append((e.left, e))
    parent: Dict[str, Tuple[str, Edge]] = {}
    order = [root]
    seen = {root}
    used_edges = set()
    q = deque([root])
    while q:
        u = q.popleft()
        for v, e in sorted(adj[u], key=lambda p: p[0]):
            if v not in seen:
                seen.add(v)
                parent[v] = (u, e)
                used_edges.add(id(e))
                order.append(v)
                q.append(v)
    if seen != set(nodes):
        raise ValueError(f"join graph disconnected from root {root}: missing {set(nodes)-seen}")
    dropped = [e for e in edges if e.transfer != "none" and id(e) not in used_edges]
    return JoinTree(root=root, parent=parent, bfs_order=order, dropped_edges=dropped)


def dag_steps(dag: Sequence[DirectedEdge], node_order: Sequence[str]) -> List[Step]:
    """One pass over a transfer DAG: a step per node of ``node_order``
    that has out-edges, carrying them in ``dag`` order."""
    outs: Dict[str, List[DirectedEdge]] = {}
    for d in dag:
        outs.setdefault(d.src, []).append(d)
    return [(t, outs[t]) for t in node_order if t in outs]


def tree_steps(tree: JoinTree) -> List[Step]:
    """Yannakakis's passes over a join tree: child→parent in reverse BFS
    order (each child already reduced by its children), then parent→
    children in BFS order; each only where ``can_transfer_from`` allows."""
    up, down = [], {t: [] for t in tree.bfs_order}
    for child in tree.bfs_order[1:]:
        parent, e = tree.parent[child]
        if e.can_transfer_from(child):
            up.append((child, [_directed(e, child)]))
        if e.can_transfer_from(parent):
            down[parent].append(_directed(e, parent))
    return up[::-1] + [(t, down[t]) for t in tree.bfs_order if down[t]]


def order_steps(edges: Sequence[Edge], order: Sequence[str]) -> List[Step]:
    """Bloom Join's schedule: as each table of the left-deep ``order``
    joins, it sends over its edges to the tables placed before it, where
    ``can_transfer_from`` allows."""
    rank = {t: i for i, t in enumerate(order)}
    back = [
        _directed(e, t)
        for e in edges
        for t in (e.left, e.right)
        if rank[e.other(t)] < rank[t] and e.can_transfer_from(t)
    ]
    return dag_steps(back, order)
