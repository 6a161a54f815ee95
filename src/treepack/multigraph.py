"""Multigraph values and the structural queries used by the packer.

Vertices and edges are dense integers assigned in construction order.
Parallel edges and loops are allowed; an edge keeps its id no matter how
it is recolored downstream, so edge sets are always sets of ids.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .partition import Partition

VertexId = int
EdgeId = int


class NoCycleError(ValueError):
    """Raised when the requested fundamental cycle does not exist."""


@dataclass(frozen=True)
class MultiGraph:
    """Undirected multigraph on vertices ``0..n-1``.

    ``edges[i]`` is the unordered endpoint pair of edge id ``i``. Edge
    order is construction order and is never permuted, which keeps every
    downstream choice deterministic.
    """

    n: int
    edges: tuple[tuple[VertexId, VertexId], ...]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("vertex count must be nonnegative")
        object.__setattr__(self, "edges", tuple(tuple(e) for e in self.edges))
        for eid, (u, v) in enumerate(self.edges):
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge {eid} endpoint out of range: ({u}, {v})")

    @property
    def m(self) -> int:
        return len(self.edges)

    def is_loop(self, e: EdgeId) -> bool:
        u, v = self.edges[e]
        return u == v


def _check_edge_ids(g: MultiGraph, edge_ids: Iterable[EdgeId]) -> list[EdgeId]:
    ids = sorted(edge_ids)
    if ids and not (0 <= ids[0] and ids[-1] < g.m):
        raise ValueError("edge id out of range")
    return ids


def quotient(g: MultiGraph, p: Partition) -> MultiGraph:
    """Contract each class of ``p`` to a single vertex.

    The result has one vertex per class (in canonical class order) and one
    edge for every edge of ``g`` whose endpoints lie in distinct classes;
    edges inside a class, including loops, are dropped. Multiplicities are
    preserved and the surviving edges keep their relative order.
    """
    if p.n != g.n:
        raise ValueError("partition does not match the graph's vertex set")
    kept = []
    for u, v in g.edges:
        cu, cv = p.class_of[u], p.class_of[v]
        if cu != cv:
            kept.append((cu, cv))
    return MultiGraph(p.num_classes, tuple(kept))


def components(g: MultiGraph, edge_ids: Iterable[EdgeId]) -> Partition:
    """Connected components of the spanning subgraph ``(V, edge_ids)``."""
    parent, _ = _union_within(g, _check_edge_ids(g, edge_ids), [0] * g.n)
    return Partition(tuple(_canonical_labels(parent)))


def restrict_components(
    g: MultiGraph, edge_ids: Iterable[EdgeId], p: Partition
) -> Partition:
    """Split every class of ``p`` into components of the given edge set.

    Only edges with both endpoints inside a single class of ``p`` count;
    the result always refines ``p``, and is ``p`` itself when no class
    splits (the union-find made ``n - |P|`` joins).
    """
    if p.n != g.n:
        raise ValueError("partition does not match the graph's vertex set")
    parent, joined = _union_within(g, _check_edge_ids(g, edge_ids), p.class_of)
    if len(joined) == g.n - p.num_classes:
        return p
    return Partition(tuple(_canonical_labels(parent)))


def _union_within(
    g: MultiGraph, ids: Iterable[EdgeId], labels: Sequence[int]
) -> tuple[list[int], list[EdgeId]]:
    """Path-halving union of the edges, in the given order, whose ends share a label.

    Returns the union-find's parent array, in which a parent never exceeds
    its child, and the edges that joined two sets: a spanning forest of
    the edges taken. A loop or an edge closing a cycle joins nothing.
    """
    parent, edges = list(range(g.n)), g.edges
    joined = []
    for e in ids:
        a, b = edges[e]
        if labels[a] == labels[b]:
            while parent[a] != a:
                parent[a] = a = parent[parent[a]]
            while parent[b] != b:
                parent[b] = b = parent[parent[b]]
            if a != b:
                if a < b:
                    a, b = b, a
                parent[a] = b
                joined.append(e)
    return parent, joined


def _canonical_labels(parent: list[int]) -> list[int]:
    """Label the sets of ``_union_within``'s parents by first occurrence, for ``Partition``."""
    # A parent never exceeds its child, so each root is its set's least
    # vertex, met before the rest of the set in one increasing pass.
    out, count = [0] * len(parent), 0
    for v, p in enumerate(parent):
        if p == v:
            out[v], count = count, count + 1
        else:
            out[v] = out[p]
    return out


def cycle_edges(g: MultiGraph, edge_ids: Iterable[EdgeId]) -> frozenset[EdgeId]:
    """Edges of the subgraph ``(V, edge_ids)`` that lie on some cycle.

    These are the non-bridges: loops and both members of a parallel pair
    always qualify. The union-find of ``_union_within`` takes a spanning
    forest, and every edge it leaves out closes a cycle; a repeated id
    counts once, since the copy of a forest edge that joins nothing is
    still a forest edge. A forest edge lies on a cycle exactly when the
    tree path of some left-out edge covers it. Each tree such an edge
    touches is rooted once, and each left-out edge's path is walked with
    path-halving jump pointers past the edges already marked, so every
    forest edge is marked at most once (Tarjan's path covering).
    """
    ids = _check_edge_ids(g, edge_ids)
    _, forest = _union_within(g, ids, [0] * g.n)
    if len(forest) == len(ids):
        return frozenset()
    edges = g.edges
    adjacency: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
    for e in forest:
        u, v = edges[e]
        adjacency[u].append((v, e))
        adjacency[v].append((u, e))
    taken = set(forest)
    closing = [e for e in ids if e not in taken]
    depth, via = [-1] * g.n, [-1] * g.n  # each vertex's depth and parent edge once rooted
    up = list(range(g.n))  # the highest vertex a vertex reaches over marked edges
    marked = []
    for e in closing:
        a, b = edges[e]
        if depth[a] < 0:
            depth[a] = 0
            queue = [a]
            for x in queue:
                below = depth[x] + 1
                for w, eid in adjacency[x]:
                    if depth[w] < 0:
                        depth[w], via[w] = below, eid
                        queue.append(w)
        while True:
            while up[a] != a:
                up[a] = a = up[up[a]]
            while up[b] != b:
                up[b] = b = up[up[b]]
            if a == b:
                break
            if depth[a] < depth[b]:
                a, b = b, a
            # a lies below the path's top, so its parent edge is on the path
            x, y = edges[via[a]]
            marked.append(via[a])
            up[a] = y if x == a else x
    return frozenset(closing + marked)


def fundamental_cycle(
    g: MultiGraph, tree_edge_ids: Iterable[EdgeId], e: EdgeId
) -> tuple[EdgeId, ...]:
    """The unique cycle of ``tree_edge_ids + {e}``, in order along the cycle.

    ``tree_edge_ids`` must be acyclic and must connect the endpoints of
    ``e``; ``e`` itself must be a non-loop edge outside the set. The result
    lists the tree path from one endpoint of ``e`` to the other, then ``e``.
    A breadth-first search from the first endpoint, over an adjacency of
    the tree edges built per call, records each vertex's parent and parent
    edge in lists and stops once it reaches the second endpoint.

    Raises NoCycleError when the endpoints are not connected in the tree
    edges, and ValueError on the other precondition violations.
    """
    tree_ids = _check_edge_ids(g, tree_edge_ids)
    if e in tree_ids:
        raise ValueError("edge already belongs to the tree edge set")
    if not 0 <= e < g.m:
        raise ValueError("edge id out of range")
    u, v = g.edges[e]
    if u == v:
        raise ValueError("a loop has no fundamental cycle through a tree")

    adjacency: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
    for eid in tree_ids:
        a, b = g.edges[eid]
        adjacency[a].append((b, eid))
        adjacency[b].append((a, eid))

    above, via = [-1] * g.n, [-1] * g.n
    above[u] = u
    queue = [u]
    for x in queue:
        for w, eid in adjacency[x]:
            if above[w] < 0:
                above[w], via[w] = x, eid
                queue.append(w)
        if above[v] >= 0:
            break
    else:
        raise NoCycleError("endpoints are not connected in the tree edges")

    path: list[EdgeId] = []
    x = v
    while x != u:
        path.append(via[x])
        x = above[x]
    path.reverse()
    return tuple(path) + (e,)
