"""Instance builders, the family corpus, the random-stage source, the exchange
checker, the white-box pass and a deadline, shared across the test suite.

Random instances are drawn from the package's own SplitMix64 generator so
every test run sees exactly the same corpus.
"""

from __future__ import annotations

import dataclasses
import functools
import signal
from collections.abc import Iterator
from contextlib import contextmanager

import pytest

import treepack.packer
from treepack import (
    ExchangeEvent,
    KPartition,
    MultiGraph,
    PartitionSequence,
    build_sequence,
    components,
    cycle_edges,
    exchange_step,
    greedy_spanning_tree,
    pack,
    run_stage,
)
from treepack.generate import SplitMix64
from treepack.kpartition import _sequence_precedes
from treepack.multigraph import RootedForest, _union_within, fundamental_cycle, root_forest
from treepack.packer import _exchange_from

from references import cycle_edges_by_low_points


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


# The families every per-exchange test runs: graph and k by name, the name
# also each test's id. Each makes at least one exchange; the planted cut
# (stp = 2) ends at a certificate, the others at a packing. Some union seeds
# certify the union minus an edge before any exchange (2009 and 2010 do);
# 2008 makes exchanges in both instances.
FAMILIES: dict[str, tuple[MultiGraph, int]] = {
    "Q6": (hypercube(6), 3),
    "Q8": (hypercube(8), 4),
    "union-n200": (union_of_spanning_trees(2008, 200, 3), 3),
    "K16": (complete_graph(16), 8),
    "planted-cut-n400": (planted_cut(5, 10, 40, 2, 1), 3),
}


def stage_cap(g: MultiGraph, t: KPartition) -> int:
    """The exchange cap ``pack`` gives the stage of ``t``: ``max(1, k * n * m)``."""
    return max(1, t.k * g.n * g.m)


def random_stages(k: int) -> Iterator[tuple[int, MultiGraph, KPartition]]:
    """``(seed, g, coloring)`` for each seed in 0..249 that makes a stage of ``k`` colors.

    ``g`` is k random spanning trees on up to 14 vertices plus loops and
    parallel copies, ids shuffled; colors ``1..k-1`` are trees taken
    greedily and color ``k`` the rest. A seed whose extraction fails is skipped.
    """
    for seed in range(250):
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
        trees, rest = [], set(range(g.m))
        for _ in range(k - 1):
            if components(g, rest).num_classes > 1:
                break
            tree = greedy_spanning_tree(g, rest)
            trees.append(tree)
            rest -= tree
        else:
            yield seed, g, KPartition.from_edge_sets(k, [*trees, rest], g.m)


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

    Color 1 takes a non-loop edge of another color and hands that color an
    edge off the path that joins the taken edge's ends in color 1's
    breadth-first forest: the fundamental cycle's path when color 1 is a
    tree. None when color 1 does not have ``n - 1`` edges joining those
    ends, or when every one of them lies on that path.
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
    forest = root_forest(g, tree)  # color 1 may already hold a cycle
    up, down = (forest.climb(v) for v in g.edges[e])
    if up[-1] != down[-1]:  # color 1 does not join e's ends
        return None
    path = {forest.via[v] for v in set(up) ^ set(down)}
    off = [f for f in tree if f not in path]
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


def spans(g: MultiGraph, forest: RootedForest, ids) -> bool:
    """``forest`` is a rooted spanning forest of the edge set ``ids``: each
    parent link is its ``via`` edge, and those edges are distinct ids of the
    set with as many components and no cycle, so the links climb to roots."""
    taken = [e for e in forest.via if e >= 0]
    for v in range(g.n):
        up, e = forest.above[v], forest.via[v]
        if (up == v) != (e == -1) or up != v and sorted(g.edges[e]) != sorted((v, up)):
            return False
    parts = components(g, ids).num_classes
    return (
        set(taken) <= set(ids)
        and len(set(taken)) == len(taken) == g.n - parts
        and components(g, taken).num_classes == parts
    )


class WhiteBoxPass:
    """One run of a corpus with the calls the packer makes inside each
    ``run_stage`` rebound and checked, and its findings by check:

    - ``kernels``: each ``cycle_edges`` and ``fundamental_cycle`` call gets a
      forest spanning exactly its ids, before and after, and returns what
      the per-call kernel returns;
    - ``low_points``: each ``cycle_edges`` call returns what
      ``references.cycle_edges_by_low_points`` returns;
    - ``forests``: after each exchange every forest of the stage's dict
      spans its color and tree ``c_m``'s is its color rooted afresh (a
      tree has one rooting, at its least vertex, which ``swap`` never
      moves); each stage starts an empty dict of its own and keeps it;
    - ``rootings``: a stage roots each color it exchanges with once, at its
      first use, never from an earlier stage and never outside an exchange;
    - ``exit_rule``: ``j == 0`` and two classes at index 1 hold exactly when
      a fresh sequence of ``after`` has no steps, and the stage builds
      ``after``'s sequence exactly when they do not;
    - ``builds``: a stage that ends connected builds one sequence per exchange;
    - ``first_event``: after the run, ``exchange_step`` from each stage's
      first coloring is, field by field, the stage's first event;
    - ``contract``: with ``contract``, every exchange passes
      ``exchange_violations``.

    ``violations`` maps each check to ``"<where>: <what>"`` lines; the
    counts say how much was checked.
    """

    def __init__(self, contract: bool = False):
        self.contract, self.label, self._where = contract, "", ""
        self.violations: dict[str, list[str]] = {
            name: [] for name in ("kernels", "low_points", "forests", "rootings",
                                  "exit_rule", "builds", "first_event", "contract")
        }
        self.calls = {"cycle_edges": 0, "fundamental_cycle": 0}
        self.exchanges = self.reported = self.first_events = self.connected = 0
        self.rooted: list[int] = []  # root_forest calls of each stage
        self._firsts: list[tuple[str, MultiGraph, ExchangeEvent]] = []
        self._dicts: list[dict] = []  # each stage's dict of forests
        self._log: list = []  # the stage's builds and exchanges, in order
        self._dict: dict | None = None

    def failures(self, *checks: str) -> list[str]:
        """The violations of the named checks."""
        return [line for check in checks for line in self.violations[check]]

    def flag(self, check: str, ok: bool, what: str) -> None:
        if not ok:
            self.violations[check].append(f"{self._where}: {what}")

    def report(self, event: ExchangeEvent) -> None:
        """The ``on_exchange`` callback: counts the exchanges reported."""
        self.reported += 1

    @contextmanager
    def rebound(self):
        """Rebind the packer's calls for the block, then compare the first events."""
        with pytest.MonkeyPatch.context() as patch:
            for name in ("run_stage", "build_sequence", "root_forest", "_exchange_from",
                         "cycle_edges", "fundamental_cycle"):
                patch.setattr(treepack.packer, name, getattr(self, name))
            yield self
        for where, g, event in self._firsts:
            self._where, step = where, exchange_step(g, event.before)
            differ = [f.name for f in dataclasses.fields(ExchangeEvent)
                      if getattr(step, f.name) != getattr(event, f.name)]
            self.flag("first_event", differ == [], f"exchange_step differs in {differ}")
            self.first_events += 1
        self._firsts, self._dicts, self._log, self._dict = [], [], [], None  # held no longer

    def run_stage(self, g, coloring, **kwargs):
        self._where, self._log, self._dict = f"{self.label}stage {coloring.k}", [], None
        self.rooted.append(0)
        outcome = run_stage(g, coloring, **kwargs)
        self.exchanges += outcome.exchanges
        events = [i for i, entry in enumerate(self._log) if isinstance(entry, ExchangeEvent)]
        self.flag("forests", len(events) == outcome.exchanges, "an exchange went unchecked")
        self.flag("rootings", self.rooted[-1] == len(self._dict or {}),
                  "a color rooted twice or outside an exchange")
        if events:
            self._firsts.append((self._where, g, self._log[events[0]]))
        if events and outcome.certificate is None:
            self.connected += 1
            builds = len(self._log) - len(events)
            self.flag("builds", builds == len(events), f"{builds} builds, {len(events)} exchanges")
        for count, i in enumerate(events, start=1):
            event = self._log[i]
            after = build_sequence(g, event.after)
            exits = event.j == 0 and event.sequence.partition_at(1).num_classes == 2
            rebuilt = i + 1 < len(self._log) and self._log[i + 1] is event.after
            self.flag("exit_rule", exits == (not after.steps) and rebuilt != exits,
                      f"exchange {count}: exit rule {exits}, rebuilt {rebuilt}")
            if self.contract:
                for name in exchange_violations(g, event, after):
                    self.flag("contract", False, f"exchange {count}: {name}")
        return outcome

    def build_sequence(self, g, t, **kwargs):
        self._log.append(t)
        return build_sequence(g, t, **kwargs)

    def root_forest(self, g, ids):
        self.rooted[-1] += 1
        return root_forest(g, ids)

    def _exchange_from(self, g, t, seq, forests):
        colors, rooted = set(forests), self.rooted[-1]
        event = _exchange_from(g, t, seq, forests)
        self._log.append(event)
        used, new = {event.colors, event.c_m}, set(forests) - colors
        self.flag("rootings", self.rooted[-1] - rooted == len(new) and new <= used,
                  f"rooted {new} for colors {used}")
        if self._dict is None:
            fresh = not colors and all(d is not forests for d in self._dicts)
            self.flag("forests", fresh, "the stage began with another stage's forests")
            self._dict = forests
            self._dicts.append(forests)
        self.flag("forests", forests is self._dict, "the stage changed its dict of forests")
        tree = root_forest(g, event.after.edges_of_color(event.c_m))
        self.flag(
            "forests",
            used <= set(forests)
            and all(spans(g, f, event.after.edges_of_color(c)) for c, f in forests.items())
            and all(getattr(forests[event.c_m], f.name) == getattr(tree, f.name)
                    for f in dataclasses.fields(RootedForest)),
            f"a forest does not span its color after {event.e} for {event.e_prime}",
        )
        return event

    def cycle_edges(self, g, ids, *, forest=None):
        self.calls["cycle_edges"] += 1
        rooted = forest is not None and spans(g, forest, ids)
        got = cycle_edges(g, ids, forest=forest)
        self.flag("kernels", rooted and spans(g, forest, ids) and got == cycle_edges(g, ids),
                  "cycle_edges")
        self.flag("low_points", got == cycle_edges_by_low_points(g, ids), "cycle_edges")
        return got

    def fundamental_cycle(self, g, tree_ids, e, *, forest=None):
        self.calls["fundamental_cycle"] += 1
        rooted = forest is not None and spans(g, forest, tree_ids)
        got = fundamental_cycle(g, tree_ids, e, forest=forest)
        self.flag("kernels", rooted and spans(g, forest, tree_ids)
                  and got == fundamental_cycle(g, tree_ids, e), f"fundamental_cycle of {e}")
        return got


@functools.cache
def family_pass(family: str) -> WhiteBoxPass:
    """The white-box pass of ``pack`` on one of ``FAMILIES``, run once."""
    g, k = FAMILIES[family]
    found = WhiteBoxPass()
    with found.rebound():
        pack(g, k, on_exchange=found.report)
    return found


@functools.cache
def random_stage_pass(k: int) -> WhiteBoxPass:
    """The white-box pass of every stage of ``random_stages(k)``, with the
    exchange contract, run once."""
    found = WhiteBoxPass(contract=True)
    with found.rebound():
        for seed, g, t in random_stages(k):
            found.label = f"seed {seed}, "
            found.run_stage(g, t, cap=stage_cap(g, t), on_exchange=found.report)
    return found


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
