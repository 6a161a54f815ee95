"""Edge colorings into k slots, their partition sequences and edge levels.

A ``KPartition`` assigns every edge of a graph to one of k color slots;
slot k is the unconstrained remainder while slots 1..k-1 hold spanning
trees during packing. The associated *partition sequence* starts from the
one-class vertex partition and repeatedly splits every class into the
components of the least color that is disconnected inside some class,
until every color is connected on every class. The *level* of an edge is
the last index at which its endpoints still share a class; the sequence
builder records it in the round whose split separates them. The sequence,
compared lexicographically by (partition, splitter), induces the strict
improvement order used to prove that edge exchanges terminate.
A forest color is tested by counting its edges inside classes instead of
taking its components; a caller that knows which colors are forests (the
packer's tree colors) can say so and spare the builder the test. A
coloring builds its per-color edge lists once, on first use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Container, Iterable, Mapping, NamedTuple

from .multigraph import EdgeId, MultiGraph, _roots_within, restrict_components
from .partition import Partition

# Level of an edge whose endpoints are never separated (loops included).
INFINITE_LEVEL: float = math.inf

Level = int | float
LevelMap = tuple[Level, ...]


@dataclass(frozen=True)
class KPartition:
    """A total assignment of edge ids to colors ``1..k``."""

    k: int
    color_of: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("need at least one color")
        object.__setattr__(self, "color_of", tuple(self.color_of))
        for eid, color in enumerate(self.color_of):
            if not 1 <= color <= self.k:
                raise ValueError(f"edge {eid} has color {color}, not in 1..{self.k}")

    @classmethod
    def from_edge_sets(
        cls, k: int, edge_sets: Iterable[Iterable[EdgeId]], m: int
    ) -> "KPartition":
        """Build a coloring from k edge-id sets that partition ``range(m)``."""
        color_of = [0] * m
        for color, ids in enumerate(edge_sets, start=1):
            for e in ids:
                if not 0 <= e < m:
                    raise ValueError(f"edge id {e} out of range")
                if color_of[e]:
                    raise ValueError(f"edge {e} assigned to two colors")
                color_of[e] = color
        if any(c == 0 for c in color_of):
            missing = color_of.index(0)
            raise ValueError(f"edge {missing} has no color")
        return cls(k, tuple(color_of))

    @property
    def m(self) -> int:
        return len(self.color_of)

    @cached_property
    def _edges_by_color(self) -> tuple[tuple[EdgeId, ...], ...]:
        """Every color's edge ids in increasing order, from one pass; index 0 is empty."""
        lists: list[list[EdgeId]] = [[] for _ in range(self.k + 1)]
        for e, c in enumerate(self.color_of):
            lists[c].append(e)
        return tuple(map(tuple, lists))

    def edges_of_color(self, color: int) -> tuple[EdgeId, ...]:
        """All edge ids of one color, in increasing id order; ``()`` outside ``1..k``."""
        return self._edges_by_color[color] if 1 <= color <= self.k else ()

    def recolor(self, changes: Mapping[EdgeId, int]) -> "KPartition":
        colors = list(self.color_of)
        for e, color in changes.items():
            if not 0 <= e < len(colors):
                raise ValueError(f"edge id {e} out of range")
            colors[e] = color
        return KPartition(self.k, tuple(colors))


class SequenceStep(NamedTuple):
    partition: Partition
    splitter: int


@dataclass(frozen=True)
class PartitionSequence:
    """The refinement sequence associated with a coloring.

    ``steps[i]`` pairs the i-th partition with its splitter, the least
    color disconnected inside some class of that partition; ``steps[0]``
    always holds the one-class partition. ``terminal`` is the first
    partition on which every color is connected within every class. Past
    the recorded steps the sequence is constant by convention: partitions
    equal ``terminal`` and splitters equal the ``k + 1`` sentinel.
    ``levels[e]`` is the level of edge ``e``, recorded while the sequence
    was built (see ``edge_levels``).
    """

    k: int
    steps: tuple[SequenceStep, ...]
    terminal: Partition
    levels: LevelMap

    @property
    def terminal_splitter(self) -> int:
        return self.k + 1

    def partition_at(self, i: int) -> Partition:
        if i < len(self.steps):
            return self.steps[i].partition
        return self.terminal

    def splitter_at(self, i: int) -> int:
        if i < len(self.steps):
            return self.steps[i].splitter
        return self.terminal_splitter


def build_sequence(
    g: MultiGraph, t: KPartition, *, forests: Container[int] | None = None
) -> PartitionSequence:
    """Compute the partition sequence of ``t`` and the level of every edge.

    Each round takes the least color disconnected inside some class as the
    splitter and replaces every class by its components within it, so
    there are at most ``n - 1`` steps. A forest color with ``intra`` edges
    inside the classes of ``P`` splits some class iff ``intra < n - |P|``;
    any other color, a broken tree color included, gets a union-find.
    After the split at index ``i``, one pass over the non-loop edges still
    inside a class gives level ``i`` to those it separates and lowers
    their colors' ``intra``.
    ``forests`` names colors the caller knows to be forests, trusted as
    such; every other color is then taken as no forest. With None, the
    default, one union-find per color finds the forests.
    """
    if t.m != g.m:
        raise ValueError("coloring does not match the graph's edge count")
    n, k, edges, color_of = g.n, t.k, g.edges, t.color_of
    colors = [t.edges_of_color(c) for c in range(k + 1)]
    if forests is None:
        forest = [len(_roots_within(g, ids, [0] * n)[1]) == len(ids) for ids in colors]
    else:
        forest = [c in forests for c in range(k + 1)]
    intra = [len(ids) for ids in colors]  # read for forest colors only
    inside = [e for e, (u, v) in enumerate(edges) if u != v]
    levels: list[Level] = [INFINITE_LEVEL] * g.m
    current, size = Partition.trivial(n), 1
    steps: list[SequenceStep] = []
    while True:
        for c in range(1, k + 1):
            if forest[c] and intra[c] >= n - size:
                continue  # a forest that splits no class
            refined = restrict_components(g, colors[c], current)
            if refined.num_classes > size:
                break
        else:
            return PartitionSequence(k, tuple(steps), current, tuple(levels))
        level = len(steps)
        steps.append(SequenceStep(current, c))
        current, size = refined, refined.num_classes
        class_of = current.class_of
        kept = []
        for e in inside:
            u, v = edges[e]
            if class_of[u] != class_of[v]:
                levels[e] = level
                intra[color_of[e]] -= 1
            else:
                kept.append(e)
        inside = kept


def edge_levels(g: MultiGraph, t: KPartition, seq: PartitionSequence) -> LevelMap:
    """Level of every edge: the last index at which its ends share a class.

    Returns the levels ``build_sequence`` recorded in ``seq``. Loops and
    edges inside a terminal class have ``INFINITE_LEVEL``.
    """
    if t.m != g.m or len(seq.levels) != g.m or seq.terminal.n != g.n:
        raise ValueError("coloring or sequence does not match the graph")
    return seq.levels


def precedes(a: KPartition, b: KPartition, g: MultiGraph) -> bool:
    """Strict improvement order on colorings of the same graph.

    ``a`` precedes ``b`` when, at the first index where their sequences
    differ, either ``a``'s partition strictly refines ``b``'s, or the
    partitions agree and ``a``'s splitter is smaller. The order is partial;
    incomparable or equal sequences simply yield False.
    """
    if a.k != b.k:
        raise ValueError("colorings use different numbers of colors")
    if a.m != g.m or b.m != g.m:
        raise ValueError("coloring does not match the graph's edge count")
    seq_a = build_sequence(g, a)
    seq_b = build_sequence(g, b)
    last = max(len(seq_a.steps), len(seq_b.steps))
    for i in range(last + 1):
        pa, pb = seq_a.partition_at(i), seq_b.partition_at(i)
        if pa != pb:
            return pa.strictly_refines(pb)
        ca, cb = seq_a.splitter_at(i), seq_b.splitter_at(i)
        if ca != cb:
            return ca < cb
    return False
