"""Multigraph values and the structural queries used by the packer.

Vertices and edges are dense integers assigned in construction order.
Parallel edges and loops are allowed; an edge keeps its id no matter how
it is recolored downstream, so edge sets are always sets of ids.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .partition import Partition

VertexId = int
EdgeId = int


class NoCycleError(ValueError):
    """Raised when the requested fundamental cycle does not exist."""


class InternalInvariantError(RuntimeError):
    """A guarantee of the exchange argument failed; indicates a bug, not an input."""


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


@dataclass(eq=False, slots=True)
class RootedForest:
    """A rooted spanning forest of an edge set, grown on demand and patched in place.

    ``above[v]`` is ``v``'s parent (``v`` at a root, ``-1`` until reached)
    and ``via[v]`` the forest edge to it (``-1`` at a root); the set's other
    ids are closing edges. A breadth-first search over ``adjacency`` grows
    it: ``reached`` lists the vertices in the order reached, the first
    ``expanded`` of them with every neighbour reached. ``cover`` maps each
    forest edge the last ``cycle_edges`` call found on a cycle to the
    closing edge whose path covered it. No depths are kept, since
    re-hanging a subtree changes them all.
    """

    above: list[VertexId]
    via: list[EdgeId]
    adjacency: list[list[tuple[VertexId, EdgeId]]] = field(default_factory=list)
    reached: list[VertexId] = field(default_factory=list)
    expanded: int = 0
    cover: dict[EdgeId, EdgeId] = field(default_factory=dict)

    def grow(self, x: VertexId = -1, y: VertexId | None = None) -> None:
        """Grow the search until it reaches ``x`` and ``y`` (default ``x``),
        or every vertex when ``x`` is -1. Each time it runs out first, the
        first of them not reached, or the least vertex not reached, roots a
        new tree."""
        above, via, adjacency, queue = self.above, self.via, self.adjacency, self.reached
        y, i, n = x if y is None else y, self.expanded, len(above)
        while (above[x] < 0 or above[y] < 0) if x >= 0 else len(queue) < n:
            if i == len(queue):
                root = (x if above[x] < 0 else y) if x >= 0 else above.index(-1)
                above[root] = root
                queue.append(root)
                continue
            z = queue[i]
            i += 1
            for w, e in adjacency[z]:
                if above[w] < 0:
                    above[w], via[w] = z, e
                    queue.append(w)
        self.expanded = i
        if len(queue) == n:
            self.adjacency = []  # every vertex is reached: no search needs it again

    def climb(self, x: VertexId) -> list[VertexId]:
        """The vertices from ``x`` up to its root."""
        above, path = self.above, [x]
        for _ in above:
            if above[x] == x:
                return path
            x = above[x]
            path.append(x)
        raise InternalInvariantError("the forest's parent links form a cycle")

    def hang(self, path: list[VertexId], parent: VertexId, edge: EdgeId) -> None:
        """Hang ``path[0]`` from ``parent`` by ``edge``, reversing the parent
        links along ``path``: a climb to a root, or to the lower end of a cut
        edge (Sleator & Tarjan's evert and link)."""
        above, via = self.above, self.via
        for x in path:
            above[x], via[x], parent, edge = parent, edge, x, via[x]


def root_forest(g: MultiGraph, ids: Iterable[EdgeId]) -> RootedForest:
    """A forest of ``(V, ids)`` that no search has grown yet.

    Its adjacency lists every id, so the searches of ``grow`` take the
    edges that reach a new vertex and leave loops, parallel copies, chords
    and repeated ids as closing edges.
    """
    n, edges = g.n, g.edges
    adjacency: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for e in ids:
        a, b = edges[e]
        adjacency[a].append((b, e))
        adjacency[b].append((a, e))
    return RootedForest([-1] * n, [-1] * n, adjacency, [], 0, {})


def cycle_edges(
    g: MultiGraph, edge_ids: Iterable[EdgeId], *, forest: RootedForest | None = None
) -> frozenset[EdgeId]:
    """Edges of the subgraph ``(V, edge_ids)`` that lie on some cycle.

    These are the non-bridges: loops and both members of a parallel pair
    always qualify. Every closing edge of a spanning forest lies on a cycle
    (a repeated id counts once: the copy of a forest edge is still a forest
    edge), and a forest edge does exactly when the tree path of some
    closing edge covers it, whichever forest is taken. Each path is walked
    with path-halving jump pointers past the edges already marked, so every
    forest edge is marked once (Tarjan's path covering), by the closing
    edge kept for it in ``forest.cover``. Depths come in one pass over a
    forest this call spans, and otherwise by climbing, for the vertices
    the walks compare. ``forest`` must be a rooted forest of exactly
    ``edge_ids``, which are then not range-checked; it is grown to span
    every vertex. Without it one comes from ``root_forest``. A closing
    edge joining two trees raises InternalInvariantError.
    """
    if forest is None:
        edge_ids = _check_edge_ids(g, edge_ids)
        forest = root_forest(g, edge_ids)
    spanned_now = len(forest.reached) < g.n
    if spanned_now:
        forest.grow()
    taken = set(forest.via)
    closing = [e for e in edge_ids if e not in taken]
    forest.cover = cover = {}
    if not closing:
        return frozenset()
    edges, above, via = g.edges, forest.above, forest.via
    depth = [-1] * g.n
    if spanned_now:  # the search reached every parent before its children
        for z in forest.reached:
            depth[z] = 0 if above[z] == z else depth[above[z]] + 1
    up = list(range(g.n))  # the highest vertex a vertex reaches over marked edges
    for e in closing:
        a, b = edges[e]
        while True:
            while up[a] != a:
                up[a] = a = up[up[a]]
            while up[b] != b:
                up[b] = b = up[up[b]]
            if a == b:
                break
            if depth[a] < 0 or depth[b] < 0:  # climb to a known depth or a root
                for x in (a, b):
                    climbed = []
                    for _ in above:
                        if depth[x] >= 0 or above[x] == x:
                            break
                        climbed.append(x)
                        x = above[x]
                    else:
                        raise InternalInvariantError("the forest's parent links form a cycle")
                    d = depth[x] = max(depth[x], 0)  # a root's depth is 0
                    for y in reversed(climbed):
                        d += 1
                        depth[y] = d
            da, db = depth[a], depth[b]
            if da < db:
                a, b, da = b, a, db
            if da == 0:
                raise InternalInvariantError(f"closing edge {e} joins two trees of the forest")
            # a lies below the path's top, so its parent edge is on the path
            cover[via[a]] = e
            up[a] = above[a]
    return frozenset([*closing, *cover])


def _meeting_point(above: list[VertexId], u: VertexId, v: VertexId) -> VertexId:
    """The first vertex that ``u`` and ``v``, climbing parent links in turn, both
    reach; once one climb is at its root, the other climbs alone."""
    tips, climbed, s, alone = [u, v], ({u}, {v}), 0, False
    while True:
        x = tips[s]
        if above[x] == x:
            if alone:
                raise NoCycleError("endpoints are not connected in the tree edges")
            s, alone = 1 - s, True
            continue
        x = tips[s] = above[x]
        if x in climbed[1 - s]:
            return x
        if x in climbed[s]:
            raise NoCycleError("the forest's parent links form a cycle")
        climbed[s].add(x)
        if not alone:
            s = 1 - s


def fundamental_cycle(
    g: MultiGraph,
    tree_edge_ids: Iterable[EdgeId],
    e: EdgeId,
    *,
    forest: RootedForest | None = None,
) -> tuple[EdgeId, ...]:
    """The unique cycle of ``tree_edge_ids + {e}``, in order along the cycle.

    ``tree_edge_ids`` must be acyclic and must connect the endpoints of
    ``e``; ``e`` itself must be a non-loop edge outside the set. The result
    lists the tree path from ``u`` to ``v``, the ends of ``e``, then ``e``.
    The forest is grown until it reaches both ends of ``e``, which then
    climb parent links in turn until they meet; when ``u`` roots the tree,
    as after a search that began there, ``v`` climbs to it alone.
    ``forest`` must be a rooted forest of exactly ``tree_edge_ids``, which
    are then not read; without it one comes from ``root_forest``, and its
    search runs from ``u`` until it reaches ``v``.

    Raises NoCycleError when the endpoints are not connected in the tree
    edges (both climbs reach a root) or the forest's parent links form a
    cycle, and ValueError on the other precondition violations.
    """
    if not 0 <= e < g.m:
        raise ValueError("edge id out of range")
    u, v = g.edges[e]
    if u == v:
        raise ValueError("a loop has no fundamental cycle through a tree")
    if forest is None:
        forest = root_forest(g, _check_edge_ids(g, tree_edge_ids))
    above, via = forest.above, forest.via
    if above[u] < 0 or above[v] < 0:
        forest.grow(u, v)
    if via[u] == e or via[v] == e:  # a tree edge between reached ends is a forest edge
        raise ValueError("edge already belongs to the tree edge set")
    meet = u if above[u] == u else _meeting_point(above, u, v)
    path: list[EdgeId] = []
    x = u
    while x != meet:
        path.append(via[x])
        x = above[x]
    tail: list[EdgeId] = []
    x = v
    for _ in above:
        if x == meet:
            break
        if above[x] == x:
            raise NoCycleError("endpoints are not connected in the tree edges")
        tail.append(via[x])
        x = above[x]
    else:
        raise NoCycleError("the forest's parent links form a cycle")
    tail.reverse()
    path += tail
    path.append(e)
    return tuple(path)
