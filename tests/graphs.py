"""Instance builders, the exchange checker and a deadline, shared across the test suite.

Random instances are drawn from the package's own SplitMix64 generator so
every test run sees exactly the same corpus.
"""

from __future__ import annotations

import signal
from contextlib import contextmanager

import pytest

from treepack import (
    ExchangeEvent,
    KPartition,
    MultiGraph,
    PartitionSequence,
    build_sequence,
    components,
    cycle_edges,
    greedy_spanning_tree,
)
from treepack.generate import SplitMix64
from treepack.kpartition import _sequence_precedes
from treepack.multigraph import NoCycleError, _union_within, fundamental_cycle


def complete_graph(n: int) -> MultiGraph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return MultiGraph(n, tuple(edges))


def path_graph(n: int) -> MultiGraph:
    return MultiGraph(n, tuple((i, i + 1) for i in range(n - 1)))


def star_graph(n: int) -> MultiGraph:
    return MultiGraph(n, tuple((0, i) for i in range(1, n)))


def cycle_graph(n: int) -> MultiGraph:
    return MultiGraph(n, tuple((i, (i + 1) % n) for i in range(n)))


def hypercube(d: int) -> MultiGraph:
    """Q_d: vertices are d-bit words, joined when they differ in one bit."""
    n = 1 << d
    edges = [(v, v | 1 << i) for v in range(n) for i in range(d) if not v >> i & 1]
    return MultiGraph(n, tuple(edges))


def _shuffle(rng: SplitMix64, items: list) -> None:
    for i in range(len(items) - 1, 0, -1):
        j = rng.below(i + 1)
        items[i], items[j] = items[j], items[i]


def _random_tree(rng: SplitMix64, n: int) -> list[tuple[int, int]]:
    """A random spanning tree on ``0..n-1``: the vertices of a random order
    attach one by one to a random earlier vertex."""
    order = list(range(n))
    _shuffle(rng, order)
    return [(order[i], order[rng.below(i)]) for i in range(1, n)]


def union_of_spanning_trees(seed: int, n: int, k: int) -> MultiGraph:
    """k random spanning trees on n vertices, edge ids shuffled.

    Shuffling the ids keeps greedy extraction from recovering the trees
    directly, so packing needs exchanges.
    """
    rng = SplitMix64(seed)
    edges = [edge for _ in range(k) for edge in _random_tree(rng, n)]
    _shuffle(rng, edges)
    return MultiGraph(n, tuple(edges))


def planted_cut(seed: int, r: int, b: int, k: int, x: int) -> MultiGraph:
    """``r`` blobs of ``b >= 2`` vertices that pack exactly ``k`` trees.

    Blob ``i`` is the vertices ``i*b .. i*b + b - 1``: ``k + 1`` random
    spanning trees plus ``x >= 1`` random non-loop edges. The blobs are
    joined by ``k + 1`` random spanning trees on ``r`` blob-vertices minus
    one edge, each joining edge between random vertices of its two blobs;
    edge ids are shuffled. Each blob and the joining edges hold ``k``
    trees, and the blob partition has ``(k+1)(r-1) - 1`` crossing edges,
    one too few for ``k + 1`` (Nash-Williams, Tutte): ``stp = k``. With
    ``m = (k+1)(n-1) + r*x - 1``, counting edges alone does not refute ``k + 1``.
    """
    rng = SplitMix64(seed)
    edges = []
    for base in range(0, r * b, b):
        edges += [(base + u, base + v) for _ in range(k + 1) for u, v in _random_tree(rng, b)]
        for _ in range(x):
            u = rng.below(b)
            edges.append((base + u, base + (u + 1 + rng.below(b - 1)) % b))
    joins = [pair for _ in range(k + 1) for pair in _random_tree(rng, r)][:-1]
    edges += [(p * b + rng.below(b), q * b + rng.below(b)) for p, q in joins]
    _shuffle(rng, edges)
    return MultiGraph(r * b, tuple(edges))


def random_stage(seed: int, k: int):
    """k random spanning trees on up to 14 vertices plus loops and parallel
    copies, ids shuffled; k - 1 trees taken greedily, and the remainder with
    some ids repeated. None when the extraction fails."""
    rng = SplitMix64(seed)
    n = 2 + rng.below(13)
    edges = list(union_of_spanning_trees(seed, n, k).edges)
    for _ in range(rng.below(6)):
        if rng.below(2):
            v = rng.below(n)
            edges.append((v, v))
        else:
            edges.append(edges[rng.below(len(edges))][::-1])
    _shuffle(rng, edges)
    g = MultiGraph(n, tuple(edges))
    trees, rest = [], list(range(g.m))
    for _ in range(k - 1):
        if components(g, rest).num_classes > 1:
            return None
        tree = greedy_spanning_tree(g, rest)
        trees.append(tree)
        rest = [e for e in rest if e not in tree]
    rest += [rest[rng.below(len(rest))] for _ in range(rng.below(4))] if rest else []
    _shuffle(rng, rest)
    return g, trees, rest


def bowtie() -> MultiGraph:
    """Two triangles sharing vertex 0."""
    return MultiGraph(5, ((0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)))


def doubled_triangle() -> MultiGraph:
    base = [(0, 1), (0, 2), (1, 2)]
    return MultiGraph(3, tuple(e for pair in zip(base, base) for e in pair))


def two_tree_cycle_with_chords() -> tuple[MultiGraph, KPartition]:
    """Both colors connected from the start: the sequence has no steps."""
    g = MultiGraph(4, ((0, 1), (1, 2), (2, 3), (0, 2), (1, 3), (0, 3)))
    t = KPartition.from_edge_sets(2, [range(0, 3), range(3, 6)], g.m)
    return g, t


def two_step_sequence_instance() -> tuple[MultiGraph, KPartition]:
    """8 vertices: the first split is on color 2, the second on color 1.

    Color 1 is a star at vertex 0; color 2 connects {0,1,2,3} (via a
    parallel copy of (0,1)) and {4,5,6,7} separately, so the sequence runs
    {V} -> {0..3 | 4..7} -> {0..3 | 4 | 5 | 6 | 7} and stops.
    """
    star = [(0, i) for i in range(1, 8)]
    rest = [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7)]
    g = MultiGraph(8, tuple(star + rest))
    t = KPartition.from_edge_sets(2, [range(0, 7), range(7, 13)], g.m)
    return g, t


def two_step_exchange_instance() -> tuple[MultiGraph, KPartition]:
    """The two-step instance plus one crossing remainder edge (4,6).

    The extra edge closes a triangle 4-5-6 in color 2 and lifts the
    crossing count to the density threshold, so one exchange is possible:
    edge (4,5) at level 1 trades against (0,4) at level 0.
    """
    star = [(0, i) for i in range(1, 8)]
    rest = [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7), (4, 6)]
    g = MultiGraph(8, tuple(star + rest))
    t = KPartition.from_edge_sets(2, [range(0, 7), range(7, 14)], g.m)
    return g, t


def parallel_pair_instance() -> tuple[MultiGraph, KPartition]:
    """Remainder whose only cycle is a parallel pair crossing the terminal.

    Color 1 is the path 0-1-4-2-3; color 2 holds copies of (0,1) and
    (2,3) plus a doubled (1,2). The terminal partition is
    {{0,1},{2,3},{4}} and both copies of (1,2) cross it at level 1.
    """
    edges = [(0, 1), (1, 4), (4, 2), (2, 3), (0, 1), (2, 3), (1, 2), (1, 2)]
    g = MultiGraph(5, tuple(edges))
    t = KPartition.from_edge_sets(2, [range(0, 4), range(4, 8)], g.m)
    return g, t


def early_improvement_graph() -> MultiGraph:
    """4-vertex instance whose single exchange improves the coloring at
    an index below the selected level (the remainder becomes connected
    in one step)."""
    return MultiGraph(4, ((0, 1), (1, 2), (2, 3), (0, 2), (0, 3), (2, 3)))


def random_multigraph(seed: int, max_n: int = 6, max_m: int = 12) -> MultiGraph:
    rng = SplitMix64(seed)
    n = 2 + rng.below(max_n - 1)
    m = rng.below(max_m + 1)
    edges = tuple((rng.below(n), rng.below(n)) for _ in range(m))
    return MultiGraph(n, edges)


def random_tree(seed: int, n: int) -> MultiGraph:
    """Random recursive tree: vertex v attaches to a uniform earlier vertex."""
    rng = SplitMix64(seed)
    edges = tuple((rng.below(v), v) for v in range(1, n))
    return MultiGraph(n, edges)


def random_coloring(seed: int, g: MultiGraph, k: int) -> KPartition:
    rng = SplitMix64(seed)
    return KPartition(k, tuple(1 + rng.below(k) for _ in range(g.m)))


def planted_coloring(seed: int, g: MultiGraph, k: int) -> KPartition:
    """Greedy forests of a shuffled edge order as colors 1..k-1, the rest as
    color k, then up to two random recolorings."""
    rng = SplitMix64(seed)
    order = sorted(range(g.m), key=lambda e: rng.next_word())
    colors = [k] * g.m
    for color in range(1, k):
        _, forest = _union_within(g, [e for e in order if colors[e] == k], [0] * g.n)
        for e in forest:
            colors[e] = color
    for _ in range(rng.below(3) if g.m else 0):
        colors[rng.below(g.m)] = 1 + rng.below(k)
    return KPartition(k, tuple(colors))


def broken_tree_coloring(seed: int, g: MultiGraph, k: int) -> KPartition | None:
    """A planted coloring whose color 1 has ``n - 1`` edges and a cycle.

    Color 1 takes a non-loop edge of another color and hands that color a
    tree edge off the cycle the taken edge closes. None when color 1 does
    not have ``n - 1`` edges joining the taken edge's ends, or when every
    one of them lies on that cycle.
    """
    colors = list(planted_coloring(seed, g, k).color_of)
    tree = [e for e in range(g.m) if colors[e] == 1]
    if len(tree) != g.n - 1:
        return None
    rng = SplitMix64(seed ^ 0x5EED)
    others = [e for e in range(g.m) if colors[e] != 1 and not g.is_loop(e)]
    if not others:
        return None
    e = others[rng.below(len(others))]
    try:
        cycle = fundamental_cycle(g, tree, e)
    except NoCycleError:  # color 1 does not join e's ends
        return None
    off = [f for f in tree if f not in cycle]
    if not off:
        return None
    colors[e], colors[off[rng.below(len(off))]] = 1, colors[e]
    return KPartition(k, tuple(colors))


def random_partition_labels(seed: int, n: int) -> list[int]:
    rng = SplitMix64(seed)
    return [rng.below(n) for _ in range(n)]


def is_spanning_tree(g: MultiGraph, ids) -> bool:
    ids = list(ids)
    return (
        len(ids) == g.n - 1
        and not any(g.is_loop(e) for e in ids)
        and components(g, ids).num_classes == 1
    )


def exchange_violations(g: MultiGraph, event: ExchangeEvent, after: PartitionSequence) -> list[str]:
    """The names of the checks of the exchange argument that ``event`` fails.

    ``after`` is the built sequence of ``event.after``; ``event.sequence``
    stands for ``event.before``'s. The checks, in this order:

    - ``level_descent``: ``j < m``;
    - ``splitter_is_tree_color``: ``1 <= c_m < colors``;
    - ``cycle_inside_class_q``: every cycle edge has both ends in ``class_q``;
    - ``least_cycle_edge``: ``e`` is the least ``(level, id)`` cycle edge of
      ``before``'s remainder, by a per-call ``cycle_edges``;
    - ``least_on_cycle``: the cycle runs through ``e``, and ``e'`` is its
      least ``(level, id)`` edge;
    - ``classes_at_levels``: ``class_p`` is the class of ``e`` at ``m`` and
      ``class_q`` that of ``e'`` at ``j``;
    - ``moves_two_edges``: ``after`` is ``before`` with ``e`` moved to
      ``c_m`` and ``e'`` to the remainder;
    - ``precedes``: the coloring strictly improves;
    - ``tree_preservation``: every tree color is still a spanning tree;
    - ``prefix_through_j``: the sequences agree in their partitions through
      index ``j`` and in their splitters through ``j - 1`` (proved in
      README's "Acceptance suite").
    """
    before, seq, colors, j = event.before, event.sequence, event.colors, event.j
    levels = seq.levels

    def least(ids):
        return min(ids, key=lambda e: (levels[e], e), default=None)

    def class_at(i: int, e: int) -> tuple[int, ...]:
        labels = seq.partition_at(i).class_of
        return tuple(v for v in range(g.n) if labels[v] == labels[g.edges[e][0]])

    moved = list(before.color_of)
    moved[event.e], moved[event.e_prime] = event.c_m, colors
    inside = set(event.class_q)
    checks = {
        "level_descent": j < event.m,
        "splitter_is_tree_color": 1 <= event.c_m < colors,
        "cycle_inside_class_q": all(inside.issuperset(g.edges[e]) for e in event.cycle),
        "least_cycle_edge": event.e == least(cycle_edges(g, before.edges_of_color(colors))),
        "least_on_cycle": event.e in event.cycle and event.e_prime == least(event.cycle),
        "classes_at_levels": (event.class_p, event.class_q)
        == (class_at(event.m, event.e), class_at(j, event.e_prime)),
        "moves_two_edges": event.after.color_of == tuple(moved),
        "precedes": _sequence_precedes(seq, after),
        "tree_preservation": all(
            is_spanning_tree(g, event.after.edges_of_color(color)) for color in range(1, colors)
        ),
        "prefix_through_j": all(seq.partition_at(i) == after.partition_at(i) for i in range(j + 1))
        and all(seq.splitter_at(i) == after.splitter_at(i) for i in range(j)),
    }
    return [name for name, ok in checks.items() if not ok]


class ExchangeLog:
    """An ``on_exchange`` callback that runs ``exchange_violations`` on every
    exchange of ``g``: ``count`` exchanges, and ``violations`` as
    ``"exchange <count>: <check>"``."""

    def __init__(self, g: MultiGraph):
        self.g, self.count, self.violations = g, 0, []

    def __call__(self, event: ExchangeEvent) -> None:
        self.count += 1
        after = build_sequence(self.g, event.after)
        self.violations += [
            f"exchange {self.count}: {name}" for name in exchange_violations(self.g, event, after)
        ]


@contextmanager
def deadline(seconds: int = 2):
    """Fail the test if the block runs longer, instead of waiting for it.

    The failure is pytest's, which no ``except Exception`` in the code
    under test can catch.
    """
    def expire(signum, frame):
        pytest.fail(f"the block did not end within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
