"""Multigraph values and the structural queries used by the packer.

Vertices and edges are dense integers assigned in construction order.
Parallel edges and loops are allowed; an edge keeps its id no matter how
it is recolored downstream, so edge sets are always sets of ids.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Container, Iterable, Sequence

from .integers import exact_int
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
    downstream choice deterministic. ``n`` and each endpoint are exact ints.
    """

    n: int
    edges: tuple[tuple[VertexId, VertexId], ...]

    def __post_init__(self) -> None:
        n = exact_int(self.n, "vertex count")
        try:
            object.__setattr__(self, "edges", tuple(tuple(e) for e in self.edges))
        except TypeError:
            raise ValueError("edges must be an iterable of endpoint pairs") from None
        try:
            for eid, (u, v) in enumerate(self.edges):  # eid is bound before (u, v)
                if not (type(u) is int and type(v) is int and 0 <= u < n and 0 <= v < n):
                    break
            else:
                return
        except ValueError:  # only unpacking raises: edge eid is not a pair
            raise ValueError(f"edge {eid} is not an endpoint pair: {self.edges[eid]}") from None
        raise ValueError(f"edge {eid} endpoint out of range: ({u}, {v})")

    @property
    def m(self) -> int:
        return len(self.edges)

    def is_loop(self, e: EdgeId) -> bool:
        u, v = self.edges[e]
        return u == v


def _check_edge_ids(g: MultiGraph, edge_ids: Iterable[EdgeId]) -> list[EdgeId]:
    """The ids, sorted, each exactly an ``int`` in ``0..m-1``: a bool or float is not one."""
    ids = list(edge_ids)
    if set(map(type, ids)) <= {int}:
        ids.sort()
        if not ids or 0 <= ids[0] and ids[-1] < g.m:
            return ids
    raise ValueError("edge id out of range")


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
    return restrict_components(g, edge_ids, Partition.trivial(g.n))


def restrict_components(
    g: MultiGraph, edge_ids: Iterable[EdgeId], p: Partition
) -> Partition:
    """Split every class of ``p`` into components of the given edge set.

    Only edges with both endpoints inside a single class of ``p`` count;
    the result always refines ``p``, and is ``p`` itself when no class
    splits.
    """
    if p.n != g.n:
        raise ValueError("partition does not match the graph's vertex set")
    labels, _ = _split(g, _check_edge_ids(g, edge_ids), p.class_of, p.num_classes)
    return p if labels is p.class_of else Partition(labels)


def _split(
    g: MultiGraph, ids: Iterable[EdgeId], labels: tuple[int, ...], count: int
) -> tuple[tuple[int, ...], int]:
    """``restrict_components`` on the label tuple of a partition of ``count``
    classes, with unchecked ids: the refined labels and their count, or
    ``labels`` and ``count`` themselves when no class splits (the union-find
    made ``n - count`` joins)."""
    parent, joined = _union_within(g, ids, labels)
    if len(joined) == g.n - count:
        return labels, count
    return tuple(_canonical_labels(parent)), g.n - len(joined)


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
    """A rooted spanning forest of an edge set, patched in place by ``swap``.

    ``above[v]`` is ``v``'s parent (``v`` at a root) and ``via[v]`` the
    forest edge to it (``-1`` at a root); the set's other ids are closing
    edges. ``cover`` maps each forest edge the last ``cycle_edges`` call
    found on a cycle to the closing edge whose path covered it, the
    replacement ``swap`` takes for it. No depths are kept, since re-hanging
    a subtree changes them all.
    """

    above: list[VertexId]
    via: list[EdgeId]
    cover: dict[EdgeId, EdgeId] = field(default_factory=dict)

    def climb(self, x: VertexId, stop: Container[VertexId] = ()) -> list[VertexId]:
        """The vertices from ``x`` up to the first one in ``stop``, or to its root.

        This is the only walk over parent links, so the only place that
        checks them: links that form a cycle raise InternalInvariantError.
        """
        above, path = self.above, [x]
        for _ in above:
            if x in stop:
                return path
            up = above[x]
            if up == x:
                return path
            path.append(up)
            x = up
        raise InternalInvariantError("the forest's parent links form a cycle")

    def hang(self, path: list[VertexId], parent: VertexId, edge: EdgeId) -> None:
        """Hang ``path[0]`` from ``parent`` by ``edge``, reversing the parent
        links along ``path``: a climb to a root, or to the lower end of a
        forest edge, which it cuts (Sleator & Tarjan's evert and link)."""
        above, via = self.above, self.via
        for x in path:
            above[x], via[x], parent, edge = parent, edge, x, via[x]

    def swap(self, edges: Sequence[tuple[VertexId, VertexId]], out: EdgeId, into: EdgeId) -> None:
        """Patch the forest after ``out`` left its edge set and ``into`` joined.

        A forest edge ``out`` is cut, and the side below it re-hung from its
        one replacement: ``cover[out]``, or ``into`` when ``out`` has no
        cover. Its ends climb as in ``fundamental_cycle``: one to its root,
        the other until it meets that climb. If its tree path misses
        ``out``, so that it does not join that side back to the tree ``out``
        left, InternalInvariantError is raised. Then ``into`` is linked if
        it still joins two trees, the tree of its first end re-rooted there.
        """
        via, climb = self.via, self.climb
        a, b = edges[out]
        cut = a if via[a] == out else b if via[b] == out else -1
        if cut >= 0:
            f = self.cover.get(out, into)
            p, q = edges[f]
            rise = climb(p)
            climbed = set(rise)
            fall = climb(q, climbed)
            meet = fall.pop()
            if meet in climbed and cut in fall:
                self.hang(fall[: fall.index(cut) + 1], p, f)
            elif meet in climbed and cut in rise[: rise.index(meet)]:
                self.hang(rise[: rise.index(cut) + 1], q, f)
            else:  # f joins two trees, or its path misses out
                raise InternalInvariantError(f"forest edge {out} has no replacement")
        x, y = edges[into]
        if via[x] != into and via[y] != into:
            path = climb(x)
            if path[-1] != climb(y)[-1]:
                self.hang(path, y, into)


def root_forest(g: MultiGraph, ids: Iterable[EdgeId]) -> RootedForest:
    """A rooted spanning forest of ``(V, ids)``, by breadth-first search.

    Each tree is rooted at its least vertex. The search takes the edges
    that reach a new vertex and leaves loops, parallel copies, chords and
    repeated ids as closing edges.
    """
    n, edges = g.n, g.edges
    adjacency: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for e in ids:
        a, b = edges[e]
        adjacency[a].append((b, e))
        adjacency[b].append((a, e))
    above, via = [-1] * n, [-1] * n
    for root in range(n):
        if above[root] >= 0:
            continue
        above[root] = root
        queue = [root]
        for z in queue:  # the loop reads the vertices appended while it runs
            for w, e in adjacency[z]:
                if above[w] < 0:
                    above[w], via[w] = z, e
                    queue.append(w)
    return RootedForest(above, via)


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
    edge kept for it in ``forest.cover``: the replacement ``RootedForest.swap``
    takes when that edge leaves the set. The walks compare depths: each
    vertex compared climbs to the first vertex whose depth is known, or to
    its root, and the climb gives a depth to every vertex on it.
    ``forest`` must be a rooted spanning forest of exactly ``edge_ids``,
    which are then not range-checked; without it one comes from
    ``root_forest``. A closing edge joining two trees raises
    InternalInvariantError.
    """
    if forest is None:
        edge_ids = _check_edge_ids(g, edge_ids)
        forest = root_forest(g, edge_ids)
    taken = set(forest.via)
    closing = [e for e in edge_ids if e not in taken]
    forest.cover = cover = {}
    edges, above, via, climb = g.edges, forest.above, forest.via, forest.climb
    known: set[VertexId] = set()  # the vertices whose depth is set, with their ancestors
    depth = [0] * g.n  # read for known vertices, and for roots, whose depth is 0
    up = list(range(g.n))  # the highest vertex a vertex reaches over marked edges
    for e in closing:
        a, b = edges[e]
        for x in (a, b):  # then every vertex the walk meets, an ancestor, has a depth
            if x not in known:
                path = climb(x, known)
                d = depth[path[-1]]
                for y in reversed(path):
                    depth[y], d = d, d + 1
                known.update(path)
        while True:
            while up[a] != a:
                up[a] = a = up[up[a]]
            while up[b] != b:
                up[b] = b = up[up[b]]
            if a == b:
                break
            da, db = depth[a], depth[b]
            if da < db:
                a, b, da = b, a, db
            if da == 0:
                raise InternalInvariantError(f"closing edge {e} joins two trees of the forest")
            # a lies below the path's top, so its parent edge is on the path
            cover[via[a]] = e
            up[a] = above[a]
    return frozenset([*closing, *cover])


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
    ``u`` climbs parent links to its root, then ``v`` climbs until it meets
    that climb. ``forest`` must be a rooted spanning forest of exactly
    ``tree_edge_ids``, which are then not read; without it one comes from
    ``root_forest``.

    Raises NoCycleError when the endpoints are not connected in the tree
    edges (``v``'s climb reaches another root), InternalInvariantError
    when the forest's parent links form a cycle, and ValueError on the
    other precondition violations. Without ``forest``, ids that hold a
    cycle (a loop included) or hold ``e`` are among them: the rooted
    forest then has fewer edges than there are distinct ids.
    """
    u, v = g.edges[exact_int(e, "edge id", 0, g.m - 1)]
    if u == v:
        raise ValueError("a loop has no fundamental cycle through a tree")
    if forest is None:
        ids = _check_edge_ids(g, tree_edge_ids)
        forest = root_forest(g, ids)
        if sum(x >= 0 for x in forest.via) != len(set(ids)):  # a closing edge: a cycle
            raise ValueError("tree edge ids hold a cycle")
    via = forest.via
    if via[u] == e or via[v] == e:  # a tree edge between spanned ends is a forest edge
        raise ValueError("edge already belongs to the tree edge set")
    rise = forest.climb(u)
    climbed = set(rise)
    fall = forest.climb(v, climbed)
    meet = fall.pop()
    if meet not in climbed:
        raise NoCycleError("endpoints are not connected in the tree edges")
    path = [via[x] for x in rise[: rise.index(meet)]]
    path += [via[x] for x in reversed(fall)]
    path.append(e)
    return tuple(path)
