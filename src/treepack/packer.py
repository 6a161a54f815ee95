"""Staged spanning-tree packing by edge exchange.

``pack(g, k)`` builds k pairwise edge-disjoint spanning trees one at a
time. Within a stage, colors ``1..s-1`` are the trees fixed so far and
color ``s`` is the remainder. While the remainder is disconnected, either
the terminal partition of the current sequence certifies that no packing
exists (too few remainder edges cross it), or some remainder edge of
finite level lies on a cycle and can be exchanged into the tree color
that splits its level, strictly improving the coloring. Improvement is
strict in a partial order on a finite set, so stages terminate.
"""

from __future__ import annotations

import sys
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, replace
from itertools import compress

from .kpartition import (
    INFINITE_LEVEL,
    KPartition,
    LevelMap,
    PartitionSequence,
    build_sequence,
    edge_levels,
)
from .multigraph import (
    EdgeId,
    InternalInvariantError,
    MultiGraph,
    RootedForest,
    _check_edge_ids,
    _check_tree_count,
    _union_within,
    components,  # unused here, but perfbench's span self-test reads packer.components
    cycle_edges,
    fundamental_cycle,
    root_forest,
)
from .partition import Partition


@dataclass(frozen=True)
class ExchangeEvent:
    """One exchange, as ``exchange_step`` returns it and ``on_exchange`` sees it.

    In a stage of ``colors`` colors, ``sequence`` is the partition sequence
    of ``before``, and ``after`` is ``before`` with ``e`` and ``e_prime``
    swapped; a trace record holds the eight fields below under their names.
    ``e`` is the minimum-level cycle edge of the remainder color, ``m`` its
    level and ``class_p`` the class at level ``m`` containing both its
    ends. ``cycle`` is the fundamental cycle of ``e`` in tree color
    ``c_m``; ``e_prime`` is its minimum-level edge, of level ``j < m``,
    with both ends in ``class_q`` at level ``j``. Every cycle vertex lies
    in ``class_q``.
    """

    colors: int
    before: KPartition
    after: KPartition
    sequence: PartitionSequence
    e: EdgeId
    m: int
    class_p: tuple[int, ...]
    c_m: int
    cycle: tuple[EdgeId, ...]
    e_prime: EdgeId
    j: int
    class_q: tuple[int, ...]


@dataclass(frozen=True)
class StageOutcome:
    """Result of one stage: its last coloring, whose remainder is connected or certified."""

    coloring: KPartition
    certificate: Partition | None
    exchanges: int


@dataclass(frozen=True)
class PackResult:
    """Either ``k`` edge-disjoint spanning trees or a violating partition."""

    k: int
    trees: tuple[frozenset[EdgeId], ...] | None
    certificate: Partition | None
    exchanges: int

    @property
    def verdict(self) -> str:
        return "packing" if self.trees is not None else "certificate"


OnExchange = Callable[[ExchangeEvent], None]


def density_check(
    g: MultiGraph, t: KPartition, seq: PartitionSequence
) -> Partition | None:
    """Certificate test at the terminal partition of the sequence.

    With colors ``1..k-1`` spanning trees and color ``k`` disconnected,
    each tree contributes exactly ``|P| - 1`` edges across the terminal
    partition ``P``. If fewer than ``|P| - 1`` remainder edges cross ``P``,
    the total crossing count is below ``k * (|P| - 1)`` and ``P`` is
    returned as a certificate; otherwise None is returned and a finite-level
    remainder edge on a cycle is guaranteed to exist.

    The guards read the first splitter, the least color disconnected on the
    whole graph, and the edge lists: connected with ``n - 1`` edges is a tree.
    ``run_stage`` checks its trees once and ends at the exchange with ``j == 0``
    and ``|P_1| == 2``: ``e``, on a cycle, splits no remainder component
    (``P_1``), and ``e'`` joins two iff ``j == 0``, so "already connected" is
    a missed exit. A remainder edge crosses ``P`` exactly when the sequence
    gave it a finite level: loops and edges inside a class of ``P`` keep none.
    """
    k = t.k
    splitter = seq.splitter_at(0)
    for color in range(1, k):
        if color == splitter or len(t.edges_of_color(color)) != g.n - 1:
            raise InternalInvariantError(f"color {color} is not a spanning tree")
    if splitter != k:
        raise InternalInvariantError("remainder color is already connected")
    levels, terminal = seq.levels, seq.terminal
    crossing = sum(1 for e in t.edges_of_color(k) if levels[e] != INFINITE_LEVEL)
    if crossing < terminal.num_classes - 1:
        return terminal
    return None


def _check_cap(cap: object) -> None:
    """The one rule for an exchange cap: exactly an ``int``, ``>= 0``; else ValueError."""
    if type(cap) is not int:
        raise ValueError(f"exchange cap must be an int, not {cap!r}")
    if cap < 0:
        raise ValueError("exchange cap must be nonnegative")


def _least_by_level(ids: Iterable[EdgeId], levels: LevelMap) -> EdgeId | None:
    """The least id among the ids of least level, or None for no ids.

    ``min`` keeps the first of equal keys, so over ids in increasing order
    it gives what ``min`` keyed by ``(level, id)`` gives, without a tuple per id.
    """
    return min(sorted(ids), key=levels.__getitem__, default=None)


def _exchange_from(
    g: MultiGraph, t: KPartition, seq: PartitionSequence, forests: dict[int, RootedForest]
) -> ExchangeEvent:
    """The exchange ``exchange_step`` describes, from ``t``'s sequence ``seq``.

    Step ``m`` is read once, after the guard ``m < len(seq.steps)``, for
    ``class_p`` and ``c_m``, and step ``j < m`` once for ``class_q``.
    ``forests`` holds the stage's forests by color, each spanning exactly
    its color; one a color lacks is rooted and kept there. Both forests the
    exchange uses take it (``RootedForest.swap``): the remainder's swaps
    ``e`` out and ``e'`` in, its ``cover`` the one ``cycle_edges`` just
    left, and tree ``c_m``'s the reverse. So each still spans its color.
    """
    k = t.k
    levels = edge_levels(g, t, seq)
    rest = t.edges_of_color(k)
    if k not in forests:
        forests[k] = root_forest(g, rest)
    e = _least_by_level(cycle_edges(g, rest, forest=forests[k]), levels)
    if e is None or levels[e] == INFINITE_LEVEL:
        raise InternalInvariantError("no finite-level cycle edge in the remainder")
    m = int(levels[e])
    if m >= len(seq.steps):
        raise InternalInvariantError("finite level beyond the last refinement step")

    part_m, c_m = seq.steps[m]
    u, v = g.edges[e]
    if part_m.class_of[u] != part_m.class_of[v]:
        raise InternalInvariantError("selected edge spans two classes at its level")
    if not 1 <= c_m <= k - 1:
        raise InternalInvariantError(f"splitter at the selected level is {c_m}, not a tree color")

    tree = t.edges_of_color(c_m)
    if c_m not in forests:
        forests[c_m] = root_forest(g, tree)
    cycle = fundamental_cycle(g, tree, e, forest=forests[c_m])
    e_prime = _least_by_level(cycle, levels)
    if levels[e_prime] == INFINITE_LEVEL or levels[e_prime] >= m:
        raise InternalInvariantError("fundamental cycle has no edge below the selected level")
    j = int(levels[e_prime])

    part_j = seq.steps[j].partition
    x, y = g.edges[e_prime]
    if part_j.class_of[x] != part_j.class_of[y]:
        raise InternalInvariantError("exchanged-out edge spans two classes at its level")
    label_p, label_q = part_m.class_of[u], part_j.class_of[x]
    class_p = tuple(compress(range(g.n), map(label_p.__eq__, part_m.class_of)))
    class_q = tuple(compress(range(g.n), map(label_q.__eq__, part_j.class_of)))
    for eid in cycle:
        a, b = g.edges[eid]
        if part_j.class_of[a] != label_q or part_j.class_of[b] != label_q:
            raise InternalInvariantError("fundamental cycle leaves its low-level class")

    after = t.recolor({e: c_m, e_prime: k})
    forests[k].swap(g.edges, e, e_prime)
    forests[c_m].swap(g.edges, e_prime, e)
    return ExchangeEvent(
        colors=k,
        before=t,
        after=after,
        sequence=seq,
        e=e,
        m=m,
        class_p=class_p,
        c_m=c_m,
        cycle=cycle,
        e_prime=e_prime,
        j=j,
        class_q=class_q,
    )


def exchange_step(g: MultiGraph, t: KPartition) -> ExchangeEvent:
    """One improving exchange between the remainder color and a tree color.

    Picks the minimum-level remainder edge ``e`` lying on a cycle (ties by
    lowest id), moves it into the tree color that splits its level, and
    returns the minimum-level edge of the resulting fundamental cycle to
    the remainder; the new coloring is the event's ``after``. Requires that
    ``density_check`` returned None for the same coloring.
    """
    return _exchange_from(g, t, build_sequence(g, t), {})


def run_stage(
    g: MultiGraph,
    coloring: KPartition,
    *,
    forests: dict[int, RootedForest],
    cap: int,
    on_exchange: OnExchange | None = None,
) -> StageOutcome:
    """Exchange until the remainder color is connected or a certificate appears.

    Colors ``1..k-1`` of ``coloring`` are the spanning trees fixed so far and
    color ``k`` the remainder. A first sequence with no steps means all are
    connected; else each tree is checked once, and exchanges keep them trees
    (``e`` enters ``c_m``, ``e'`` leaves the cycle it closes there), so builds
    take them as forests. The exchange with ``j == 0`` and ``|P_1| == 2`` ends
    the stage: ``e``, on a cycle, splits no remainder component (``P_1``), and
    ``e'`` joins two iff ``j == 0``. ``cap`` bounds exchanges (``_check_cap``);
    exceeding it raises InternalInvariantError. ``forests`` maps colors to
    rooted forests of exactly their edges; each exchange roots and patches
    those it uses (``_exchange_from``); the remainder's is dropped.
    """
    _check_cap(cap)
    t, colors = coloring, coloring.k
    if t.m != g.m:
        raise ValueError("coloring does not match the graph's edge count")
    seq, exchanges, certificate = build_sequence(g, t, forests=range(1, colors)), 0, None
    for c in range(1, colors if seq.steps else 1):
        ids = t.edges_of_color(c)
        if len(ids) != g.n - 1 or len(_union_within(g, ids, [0] * g.n)[1]) != g.n - 1:
            raise InternalInvariantError(f"color {c} is not a spanning tree")
    while seq.steps:
        certificate = density_check(g, t, seq)
        if certificate is not None:
            break
        if exchanges >= cap:
            raise InternalInvariantError(f"exchange cap {cap} exceeded")
        event = _exchange_from(g, t, seq, forests)
        exchanges += 1
        if on_exchange is not None:
            on_exchange(event)
        t = event.after
        if event.j == 0 and seq.partition_at(1).num_classes == 2:
            break  # e' joined the remainder's only two components
        seq = build_sequence(g, t, forests=range(1, colors))
    forests.pop(colors, None)
    return StageOutcome(t, certificate, exchanges)


def greedy_spanning_tree(
    g: MultiGraph, edge_ids: Iterable[EdgeId], order: str = "asc"
) -> frozenset[EdgeId]:
    """Spanning tree of the connected subgraph ``(V, edge_ids)``, greedily.

    Scans edges by id (``asc`` or ``desc``) and keeps every edge joining
    two components; loops never qualify.
    """
    if order not in ("asc", "desc"):
        raise ValueError("order must be 'asc' or 'desc'")
    ids = _check_edge_ids(g, edge_ids)
    if order == "desc":
        ids.reverse()
    _, chosen = _union_within(g, ids, [0] * g.n)
    if len(chosen) != g.n - 1:
        raise InternalInvariantError("edge set does not span a connected graph")
    return frozenset(chosen)


def _stages(
    g: MultiGraph, cap: int | None, seedtree_order: str, on_exchange: OnExchange | None
) -> Iterator[StageOutcome]:
    """Outcomes of stages 1, 2, ..., each stage run once; ends at a certificate.

    One coloring and one dict of tree forests run through every stage. A
    connected stage ``s`` is yielded with the next stage's coloring: the
    tree taken greedily from color ``s`` keeps it, and the rest moves to
    color ``s + 1``. Stage ``s`` gets the exchange cap ``cap``, or
    ``max(1, s * n * m)`` when ``cap`` is None. A certificate comes by
    stage ``m // (n - 1) + 1``, where ``s * (n - 1) > m`` and the one-vertex
    classes alone violate the count; asking for a stage past it raises
    InternalInvariantError. Needs ``n >= 2``.
    """
    t, forests = KPartition(1, (1,) * g.m), {}
    for stage in range(1, g.m // (g.n - 1) + 2):
        limit = cap if cap is not None else max(1, stage * g.n * g.m)
        outcome = run_stage(g, t, forests=forests, cap=limit, on_exchange=on_exchange)
        if outcome.certificate is not None:
            yield outcome
            return
        rest = outcome.coloring.edges_of_color(stage)
        tree = greedy_spanning_tree(g, rest, seedtree_order)
        color_of = list(outcome.coloring.color_of)
        for e in set(rest) - tree:
            color_of[e] = stage + 1
        t = KPartition(stage + 1, tuple(color_of))
        yield replace(outcome, coloring=t)
    raise InternalInvariantError("no certificate at the arithmetic ceiling")


def pack(
    g: MultiGraph,
    k: int,
    *,
    cap: int | None = None,
    seedtree_order: str = "asc",
    on_exchange: OnExchange | None = None,
) -> PackResult:
    """Find k edge-disjoint spanning trees or a violating partition.

    Runs the first ``k`` stages of ``_stages``, which set each stage's
    exchange cap, and reads the trees from the last stage's coloring as
    ``k`` sets; any stage certificate is also a certificate for the full
    ``k`` since a violation of ``t * (|P| - 1)`` at stage ``t <= k`` implies
    one of ``k * (|P| - 1)``, so a ``k`` beyond the stages (even ``10**20``)
    gets that certificate. ``k = 0`` and single-vertex graphs succeed
    vacuously, for any ``k`` a tuple can hold (a larger one is a
    ValueError). Loops can never enter a tree and simply stay in the
    remainder. A cap other than None is checked by ``_check_cap``.
    """
    _check_tree_count(k)
    if g.n < 1:
        raise ValueError("graph must have at least one vertex")
    if seedtree_order not in ("asc", "desc"):
        raise ValueError("seedtree_order must be 'asc' or 'desc'")
    if cap is not None:
        _check_cap(cap)
    if g.n == 1 or k == 0:
        if k > sys.maxsize:
            raise ValueError(f"input too large: k must be at most {sys.maxsize} on one vertex")
        return PackResult(k=k, trees=(frozenset(),) * k, certificate=None, exchanges=0)
    exchanges = 0
    for _, last in zip(range(k), _stages(g, cap, seedtree_order, on_exchange)):
        exchanges += last.exchanges
    if last.certificate is not None:
        return PackResult(k=k, trees=None, certificate=last.certificate, exchanges=exchanges)
    trees = tuple(frozenset(last.coloring.edges_of_color(c)) for c in range(1, k + 1))
    return PackResult(k=k, trees=trees, certificate=None, exchanges=exchanges)


def stp_number(g: MultiGraph, *, cap: int | None = None) -> tuple[int, Partition]:
    """Largest k packing k spanning trees, plus the certificate for k + 1.

    Runs the stages of ``_stages`` to the first certificate, with the caps
    they have in ``pack``: a certificate at stage ``s`` yields
    ``(s - 1, certificate)``; the cap is checked as in ``pack``. Graphs with
    fewer than two vertices pack every k vacuously and are rejected.
    """
    if g.n <= 1:
        raise ValueError("packing number is unbounded for graphs with n <= 1")
    if cap is not None:
        _check_cap(cap)
    for k_max, last in enumerate(_stages(g, cap, "asc", None)):
        pass  # the stages end at their certificate
    return k_max, last.certificate
