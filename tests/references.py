"""Plain references that tests compare the package's code with.

Each is the straightforward form of something the package computes
another way, or decides without it, kept here so a test can compare the
two outputs in full.
"""

from __future__ import annotations

from itertools import product
from typing import Iterator

from treepack import DensityReport, MultiGraph, Partition, components
from treepack.cli import GraphFileError


def restricted_growth_strings(n: int) -> Iterator[list[int]]:
    """All restricted growth strings of length n, lexicographically: the
    class maps of every partition of ``0..n-1``, one-class first and
    singletons last.

    The yielded list is reused between iterations; copy it to keep it.
    """
    labels = [0] * n
    # bound[i] = 1 + max(labels[:i]); position i may grow up to bound[i].
    bound = [1] * n
    while True:
        yield labels
        i = n - 1
        while i >= 1 and labels[i] == bound[i]:
            i -= 1
        if i == 0:
            return
        labels[i] += 1
        new_bound = max(bound[i], labels[i] + 1)
        for j in range(i + 1, n):
            labels[j] = 0
            bound[j] = new_bound


def edge_scan_density_margin(g: MultiGraph, k: int) -> DensityReport:
    """``density_margin`` by scanning every edge for every partition, in
    ``restricted_growth_strings``' order; ties keep the first partition."""
    best_margin: int | None = None
    best_labels: list[int] | None = None
    for labels in restricted_growth_strings(g.n):
        crossing = 0
        for u, v in g.edges:
            if labels[u] != labels[v]:
                crossing += 1
        margin = crossing - k * max(labels)
        if best_margin is None or margin < best_margin:
            best_margin = margin
            best_labels = list(labels)
    assert best_margin is not None and best_labels is not None
    return DensityReport(best_margin, Partition.from_class_map(best_labels))


def exists_packing_exhaustive(g: MultiGraph, k: int) -> bool:
    """Decide existence by trying every assignment of edges to k trees,
    without the partition condition.

    Each edge gets a slot in ``0..k`` (0 = unused, since a packing need
    not cover every edge) and slots ``1..k`` must all be spanning trees.
    Only meant for tiny inputs; the search space has ``(k+1)**m`` points.
    """
    if k == 0:
        return True
    if (k + 1) ** g.m > 4_000_000:
        raise ValueError("graph too large for exhaustive search")
    if g.n >= 2 and g.m < k * (g.n - 1):
        return False
    for assignment in product(range(k + 1), repeat=g.m):
        ok = True
        for color in range(1, k + 1):
            ids = [e for e in range(g.m) if assignment[e] == color]
            if len(ids) != g.n - 1 or any(g.is_loop(e) for e in ids):
                ok = False
                break
            if components(g, ids).num_classes > 1:
                ok = False
                break
        if ok:
            return True
    return False


def cycle_edges_by_low_points(g: MultiGraph, edge_ids) -> frozenset[int]:
    """``cycle_edges`` by the bridge search it ran before its union-find: a
    stack DFS recording preorder and entering edges, then low points in
    reverse preorder; the entering edge of ``v`` is a bridge iff
    ``low[v] == disc[v]``."""
    ids = sorted(edge_ids)
    adjacency: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
    for e in ids:
        u, v = g.edges[e]
        if u != v:
            adjacency[u].append((v, e))
            adjacency[v].append((u, e))
    disc, entering, order = [-1] * g.n, [-1] * g.n, []
    for root in range(g.n):
        if disc[root] != -1:
            continue
        stack = [(root, -1)]
        while stack:
            v, eid = stack.pop()
            if disc[v] != -1:
                continue
            disc[v], entering[v] = len(order), eid
            order.append(v)
            stack.extend(adjacency[v])
    low = disc[:]
    for v in reversed(order):
        skip, lowest = entering[v], low[v]
        for w, eid in adjacency[v]:
            if low[w] < lowest and eid != skip:
                lowest = low[w]
        low[v] = lowest
    bridges = {entering[v] for v in order if low[v] == disc[v]}
    return frozenset(e for e in ids if e not in bridges)


def _integer(token: str) -> int:
    if not (token.isascii() and token.removeprefix("-").isdigit()):
        raise ValueError(f"not an integer: {token!r}")
    return int(token)


def line_strip_parse_graph(text: str) -> MultiGraph:
    """``cli.parse_graph`` with each line stripped, then tested for a comment,
    then split, and the header tested before edge lines."""
    n: int | None = None
    m: int | None = None
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        fields = line.split()
        if fields[0] == "p":
            if n is not None:
                raise GraphFileError(f"line {lineno}: duplicate header")
            if len(fields) != 3:
                raise GraphFileError(f"line {lineno}: header must be 'p <n> <m>'")
            try:
                n, m = _integer(fields[1]), _integer(fields[2])
            except ValueError:
                raise GraphFileError(f"line {lineno}: header counts must be integers")
            if n < 1 or m < 0:
                raise GraphFileError(f"line {lineno}: need n >= 1 and m >= 0")
        elif fields[0] == "e":
            if n is None or m is None:
                raise GraphFileError(f"line {lineno}: edge before 'p' header")
            if len(fields) != 3:
                raise GraphFileError(f"line {lineno}: edge must be 'e <u> <v>'")
            try:
                u, v = _integer(fields[1]), _integer(fields[2])
            except ValueError:
                raise GraphFileError(f"line {lineno}: endpoints must be integers")
            if not (1 <= u <= n and 1 <= v <= n):
                raise GraphFileError(f"line {lineno}: endpoint out of range 1..{n}")
            if len(edges) >= m:
                raise GraphFileError(f"line {lineno}: more than {m} edge lines")
            edges.append((u - 1, v - 1))
        else:
            raise GraphFileError(f"line {lineno}: unrecognized line {fields[0]!r}")
    if n is None or m is None:
        raise GraphFileError("missing 'p <n> <m>' header")
    if len(edges) != m:
        raise GraphFileError(f"header promises {m} edges, file has {len(edges)}")
    return MultiGraph(n, tuple(edges))
