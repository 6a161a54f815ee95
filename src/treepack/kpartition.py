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
The builder works on label tuples: it keeps each color's edges still inside
a class, loops included (a loop joins and splits nothing), and splits only
through ``restrict_components``' kernel, which returns the labels themselves
when nothing splits; a caller that knows which colors are forests (the
packer's tree colors) can say so, and one that knows the components of color
k (the packer, from the exchange it just made) hands them to round 0. A
sequence builds ``Partition`` objects only when its steps or terminal are
read. A coloring builds its per-color edge lists when it is constructed, and
a recoloring carries them over and checks only the colors it changes.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property
from typing import Container, Iterable, Mapping, NamedTuple

from .integers import exact_int
from .multigraph import EdgeId, MultiGraph, _split
from .partition import Partition

# Level of an edge whose endpoints are never separated (loops included).
INFINITE_LEVEL: float = math.inf

Level = int | float
LevelMap = tuple[Level, ...]


@dataclass(frozen=True)
class KPartition:
    """A total assignment of edge ids to colors ``1..k``.

    Each color's ids, increasing, are listed once the constructor's checks pass.
    """

    k: int
    color_of: tuple[int, ...]
    _edges_by_color: tuple[tuple[EdgeId, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        exact_int(self.k, "k", 1)
        color_of = tuple(self.color_of)
        object.__setattr__(self, "color_of", color_of)
        # Set checks in one pass, types first so that an unhashable color is
        # named like any other; the per-entry rule only names the least bad edge.
        if not set(map(type, color_of)) <= {int} or not set(color_of) <= set(range(1, self.k + 1)):
            raise ValueError(_first_error(enumerate(color_of), self.m, self.k))
        lists: list[list[EdgeId]] = [[] for _ in range(self.k + 1)]
        for e, c in enumerate(color_of):
            lists[c].append(e)
        object.__setattr__(self, "_edges_by_color", tuple(map(tuple, lists)))

    @classmethod
    def from_edge_sets(
        cls, k: int, edge_sets: Iterable[Iterable[EdgeId]], m: int
    ) -> "KPartition":
        """Build a coloring from k edge-id sets that partition ``range(m)``.

        Each id and its set's color are checked by ``recolor``'s per-entry
        rule, which names the least bad edge; ``k`` and ``m`` by ``exact_int``.
        """
        exact_int(k, "k", 1)
        exact_int(m, "edge count")
        entries = [(e, color) for color, ids in enumerate(edge_sets, start=1) for e in ids]
        if any(_entry_error(e, color, m, k) for e, color in entries):
            raise ValueError(_first_error(entries, m, k))
        color_of = [0] * m
        for e, color in entries:
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

    def edges_of_color(self, color: int) -> tuple[EdgeId, ...]:
        """The ids of one color, in increasing order; ``()`` for an int outside ``1..k``."""
        if type(color) is not int:  # the fast path's one test; exact_int raises
            exact_int(color, "color")
        return self._edges_by_color[color] if 1 <= color <= self.k else ()

    def recolor(self, changes: Mapping[EdgeId, int]) -> "KPartition":
        """A copy with some edges recolored, carrying over the edge lists.

        Only the changes are checked, by the rule the constructor applies to
        every edge: the parent's colors were checked when it was built.
        """
        m, k = self.m, self.k
        if any(_entry_error(e, color, m, k) for e, color in changes.items()):
            raise ValueError(_first_error(changes.items(), m, k))
        colors, lists = list(self.color_of), list(self._edges_by_color)
        for e, color in changes.items():
            old, colors[e] = colors[e], color
            if old != color:  # only a color that gains or loses an edge
                i, j = bisect_left(lists[old], e), bisect_left(lists[color], e)
                lists[old] = lists[old][:i] + lists[old][i + 1 :]
                lists[color] = lists[color][:j] + (e,) + lists[color][j:]
        after = object.__new__(KPartition)
        vars(after).update(k=k, color_of=tuple(colors), _edges_by_color=tuple(lists))
        return after


def _entry_error(e: object, color: object, m: int, k: int) -> str | None:
    """Why edge ``e`` may not have ``color`` in a coloring of ``m`` edges into ``k`` colors.

    An edge id must be exactly an int in ``0..m-1`` and a color exactly an
    int in ``1..k``: a float or bool equal to one is not one. None when valid.
    """
    if type(e) is not int or not 0 <= e < m:
        return f"edge id {e} out of range"
    if type(color) is not int or not 1 <= color <= k:
        return f"edge {e} has color {color}, not in 1..{k}"
    return None


def _first_error(entries: Iterable[tuple[object, object]], m: int, k: int) -> str:
    """The error of the least bad edge among ``(edge, color)`` entries.

    An id that is not an int comes before every int id, in the given order.
    """

    def rank(entry: tuple[object, object]) -> tuple[bool, object]:
        e = entry[0]
        return (True, e) if type(e) is int else (False, 0)

    bad = [(e, color) for e, color in entries if _entry_error(e, color, m, k)]
    return _entry_error(*min(bad, key=rank), m, k)


class SequenceStep(NamedTuple):
    partition: Partition
    splitter: int


@dataclass(frozen=True)
class PartitionSequence:
    """The refinement sequence associated with a coloring.

    ``labels[i]`` is the canonical label tuple (``Partition.class_of``) of
    the i-th partition and ``counts[i]`` its class count, for each step and
    last for the terminal partition, the first on which every color is
    connected within every class. ``splitters[i]`` is the least color
    disconnected inside some class of step ``i``; step 0 always holds the
    one-class partition. ``steps`` (partition and splitter pairs) and
    ``terminal`` build and validate their ``Partition`` objects on first
    read, over the same label tuples. Past the recorded steps the sequence
    is constant by convention: partitions equal ``terminal`` and splitters
    the ``k + 1`` sentinel, as ``partition_at`` and ``splitter_at`` say.
    ``levels[e]`` is the level of edge ``e``, recorded while the sequence
    was built (see ``edge_levels``).
    """

    k: int
    labels: tuple[tuple[int, ...], ...]
    counts: tuple[int, ...]
    splitters: tuple[int, ...]
    levels: LevelMap

    @cached_property
    def steps(self) -> tuple[SequenceStep, ...]:
        return tuple(map(SequenceStep, map(Partition, self.labels[:-1]), self.splitters))

    @cached_property
    def terminal(self) -> Partition:
        return Partition(self.labels[-1])

    def partition_at(self, i: int) -> Partition:
        if i < len(self.splitters):
            return self.steps[i].partition
        return self.terminal

    def splitter_at(self, i: int) -> int:
        if i < len(self.splitters):
            return self.splitters[i]
        return self.k + 1


def build_sequence(
    g: MultiGraph,
    t: KPartition,
    *,
    forests: Container[int] = (),
    remainder: tuple[tuple[int, ...], int] | None = None,
) -> PartitionSequence:
    """Compute the partition sequence of ``t`` and the level of every edge.

    Each round takes the least color disconnected inside some class as the
    splitter and replaces every class by its components within it, so there are
    at most ``n - 1`` steps. The partitions are kept as canonical label tuples
    and no ``Partition`` is built. Every color keeps the list of its edges
    still inside a class of ``P``, from its edge tuple on, and each round's
    union-finds read only those lists; a loop joins nothing and no split drops
    it, and only forests, which hold none, skip by list length. Every color
    goes through ``multigraph._split``, which returns the labels themselves
    when it splits no class and checks no id (the lists hold ``t``'s checked
    ids), but a forest whose list has ``n - |P|`` edges splits none and is
    skipped, and so is the last round's splitter: the classes that round made
    are the components of its inside edges, so it cannot split them. After the
    split at index ``i``, one pass over each other color's list gives level
    ``i`` to the edges the split separates and drops them (the splitter's
    edges all stay inside its components). ``forests`` names colors the caller
    knows to be forests, trusted as such; the flag only skips work, so any set
    of true forests, the default none included, gives the same sequence.
    ``remainder``, trusted in the same way, is the canonical labels and count
    of color ``k``'s components on the whole graph: round 0 takes them for
    color ``k`` instead of a union-find, and every later round is unchanged.
    """
    if t.m != g.m:
        raise ValueError("coloring does not match the graph's edge count")
    n, k, edges = g.n, t.k, g.edges
    forest = [c in forests for c in range(k + 1)]
    inside = [t.edges_of_color(c) for c in range(k + 1)]
    levels: list[Level] = [INFINITE_LEVEL] * g.m
    current, size, last = (0,) * n, 1, 0
    labels: list[tuple[int, ...]] = []
    counts: list[int] = []
    splitters: list[int] = []
    while True:
        labels.append(current)
        counts.append(size)
        for c in range(1, k + 1):
            if c == last or forest[c] and len(inside[c]) >= n - size:
                continue  # splits no class
            if c == k and remainder:
                class_of, count = remainder
            else:
                class_of, count = _split(g, inside[c], current, size)
            if count != size:
                break
        else:
            return PartitionSequence(
                k, tuple(labels), tuple(counts), tuple(splitters), tuple(levels)
            )
        level = len(splitters)
        splitters.append(c)
        current, size, last, remainder = class_of, count, c, None
        for d, ids in enumerate(inside):
            if d == c:
                continue
            kept = []
            for e in ids:
                u, v = edges[e]
                if class_of[u] == class_of[v]:
                    kept.append(e)
                else:
                    levels[e] = level
            inside[d] = kept


def edge_levels(g: MultiGraph, t: KPartition, seq: PartitionSequence) -> LevelMap:
    """Level of every edge: the last index at which its ends share a class.

    Returns the levels ``build_sequence`` recorded in ``seq``. Loops and
    edges inside a terminal class have ``INFINITE_LEVEL``.
    """
    if t.m != g.m or len(seq.levels) != g.m or len(seq.labels[-1]) != g.n:
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
    return _sequence_precedes(build_sequence(g, a), build_sequence(g, b))


def _sequence_precedes(seq_a: PartitionSequence, seq_b: PartitionSequence) -> bool:
    """``precedes`` on the two colorings' built sequences."""
    last = max(len(seq_a.splitters), len(seq_b.splitters))
    for i in range(last + 1):
        pa, pb = seq_a.partition_at(i), seq_b.partition_at(i)
        if pa != pb:
            return pa.strictly_refines(pb)
        ca, cb = seq_a.splitter_at(i), seq_b.splitter_at(i)
        if ca != cb:
            return ca < cb
    return False
