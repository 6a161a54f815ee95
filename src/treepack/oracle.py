"""Brute-force ground truth: the density oracle and the result validators.

Everything here is independent of the packer so the two can check each
other. ``density_margin`` decides the packing condition by exhaustive
minimization over all vertex partitions, visited in lexicographic
restricted-growth-string order; ``verify_packing`` and
``verify_certificate`` check a result against its definition.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .integers import exact_int
from .multigraph import EdgeId, MultiGraph, components, quotient
from .partition import Partition

# Bell(12) = 4,213,597 partitions is the practical enumeration ceiling.
MAX_ENUMERATION_N = 12


class DensityReport(NamedTuple):
    """Minimum of ``crossing(P) - k * (|P| - 1)`` and a partition achieving it."""

    margin: int
    witness: Partition


def density_margin(g: MultiGraph, k: int) -> DensityReport:
    """Exact minimum of ``crossing(P) - k * (|P| - 1)`` over all partitions.

    A negative margin means the witness certifies that no k packing
    exists. Ties keep the first partition in lexicographic order of the
    restricted growth strings (``Partition.class_of``): the one-class
    partition first, singletons last.

    The partitions are walked depth first in that order, one vertex per
    level, carrying the prefix's crossing count: a vertex tallies the
    labels of its lower-numbered neighbours once, and each label choice
    then adds the edges to the other classes. The last vertex's choices
    are scored in one flat loop, so a partition costs O(1), not a scan of
    every edge.
    """
    n = exact_int(g.n, "vertex count", 1, MAX_ENUMERATION_N)
    exact_int(k, "k")
    # lower[v]: the endpoints below v of v's edges, one entry per parallel
    # copy; loops never cross, so they are left out.
    lower: list[list[int]] = [[] for _ in range(n)]
    for u, v in g.edges:
        if u < v:
            lower[v].append(u)
        elif v < u:
            lower[u].append(v)
    labels = [0] * n
    last = n - 1
    # The one-class partition comes first and has margin 0.
    best_margin = 0
    best_labels = list(labels)

    def walk(i: int, crossing: int, top: int) -> None:
        """Every labelling of ``i..n-1`` after ``labels[:i]``, which uses
        classes ``0..top-1`` and has ``crossing`` crossing edges."""
        nonlocal best_margin, best_labels
        same = [0] * (top + 1)
        for j in lower[i]:
            same[labels[j]] += 1
        crossing += len(lower[i])  # every lower edge crosses, less same[label]
        if i < last:
            for c in range(top):
                labels[i] = c
                walk(i + 1, crossing - same[c], top)
            labels[i] = top
            walk(i + 1, crossing, top + 1)
            return
        # Label c < top scores crossing - same[c] - k * (top - 1), so it
        # beats the best so far exactly when same[c] exceeds the threshold.
        threshold = crossing - k * (top - 1) - best_margin
        for s in same:
            if s > threshold:
                most = max(same)
                best_margin = crossing - most - k * (top - 1)
                labels[i] = same.index(most)
                best_labels = list(labels)
                break
        if crossing - k * top < best_margin:  # the new class, scored last
            best_margin = crossing - k * top
            labels[i] = top
            best_labels = list(labels)

    if n > 1:
        walk(1, 0, 1)
    return DensityReport(best_margin, Partition.from_class_map(best_labels))


def verify_packing(
    g: MultiGraph, trees: Iterable[Iterable[EdgeId]], k: int
) -> tuple[bool, str]:
    """Check that ``trees`` really are k disjoint spanning trees of ``g``.

    Returns ``(ok, detail)`` where ``detail`` names the first violated
    property: count, disjointness, loops, edge count, or connectivity.
    """
    exact_int(k, "k")
    tree_lists = [list(tree) for tree in trees]
    if len(tree_lists) != k:
        return False, f"expected {k} trees, found {len(tree_lists)}"
    used: dict[EdgeId, int] = {}
    m, edges = g.m, g.edges
    for index, ids in enumerate(tree_lists):
        for e in ids:
            if type(e) is not int or not 0 <= e < m:
                return False, f"tree {index} uses unknown edge id {e}"
        if len(set(ids)) != len(ids):
            return False, f"tree {index} repeats an edge id"
        loops = []  # reported only once every id has passed the share check
        for e in ids:
            if e in used:
                return False, f"trees {used[e]} and {index} share edge {e}"
            used[e] = index
            u, v = edges[e]
            if u == v:
                loops.append(e)
        if loops:
            return False, f"tree {index} contains loop edge {loops[0]}"
        if len(ids) != g.n - 1:
            return False, f"tree {index} has {len(ids)} edges, expected {g.n - 1}"
        if components(g, ids).num_classes > 1:
            return False, f"tree {index} is not connected"
    return True, "ok"


def verify_certificate(g: MultiGraph, p: Partition, k: int) -> tuple[bool, str]:
    """Check the violation ``|E(G/P)| < k * (|P| - 1)`` for the given partition."""
    exact_int(k, "k")
    if p.n != g.n:
        raise ValueError("partition does not match the graph's vertex set")
    crossing = quotient(g, p).m
    bound = k * (p.num_classes - 1)
    if crossing < bound:
        return True, f"{crossing} crossing edges < bound {bound}"
    return False, f"{crossing} crossing edges, needs fewer than {bound}"

