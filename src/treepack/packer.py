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

from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, replace
from itertools import count, islice

from .kpartition import (
    INFINITE_LEVEL,
    KPartition,
    PartitionSequence,
    build_sequence,
    edge_levels,
)
from .multigraph import (
    EdgeId,
    MultiGraph,
    _roots_within,
    components,
    cycle_edges,
    fundamental_cycle,
)
from .partition import Partition


class InternalInvariantError(RuntimeError):
    """A guarantee of the exchange argument failed; indicates a bug, not an input."""


@dataclass(frozen=True)
class ExchangeTrace:
    """Record of one exchange: what moved, where, and why it was legal.

    ``e`` is the minimum-level cycle edge of the remainder color, ``m`` its
    level and ``class_p`` the class at level ``m`` containing both its
    ends. ``cycle`` is the fundamental cycle of ``e`` in tree color
    ``c_m``; ``e_prime`` is its minimum-level edge, of level ``j < m``,
    with both ends in ``class_q`` at level ``j``. Every cycle vertex lies
    in ``class_q``.
    """

    e: EdgeId
    m: int
    class_p: tuple[int, ...]
    c_m: int
    cycle: tuple[EdgeId, ...]
    e_prime: EdgeId
    j: int
    class_q: tuple[int, ...]


@dataclass(frozen=True)
class ExchangeEvent:
    """One exchange as observed by a ``pack``/``run_stage`` callback."""

    colors: int
    before: KPartition
    after: KPartition
    sequence: PartitionSequence
    trace: ExchangeTrace


@dataclass(frozen=True)
class StageOutcome:
    """Result of one stage: a connected remainder or a certificate."""

    trees: tuple[frozenset[EdgeId], ...] | None
    rest: frozenset[EdgeId] | None
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

    The guards come from the sequence's first round, whose splitter is the
    least color disconnected on the whole graph (no round: all connected),
    and from the coloring's edge lists: connected with ``n - 1`` edges is a tree.
    ``run_stage``'s builds take tree colors as forests; it checks them per stage.
    """
    k = t.k
    splitter = seq.steps[0].splitter if seq.steps else k + 1
    for color in range(1, k):
        if color == splitter or len(t.edges_of_color(color)) != g.n - 1:
            raise InternalInvariantError(f"color {color} is not a spanning tree")
    if splitter != k:
        raise InternalInvariantError("remainder color is already connected")
    rest = t.edges_of_color(k)
    terminal = seq.terminal
    crossing = 0
    for e in rest:
        u, v = g.edges[e]
        if terminal.class_of[u] != terminal.class_of[v]:
            crossing += 1
    if crossing < terminal.num_classes - 1:
        return terminal
    return None


def _exchange_from(
    g: MultiGraph, t: KPartition, seq: PartitionSequence
) -> tuple[KPartition, ExchangeTrace]:
    k = t.k
    levels = edge_levels(g, t, seq)
    on_cycles = cycle_edges(g, t.edges_of_color(k))
    e = min(on_cycles, key=lambda eid: (levels[eid], eid), default=None)
    if e is None or levels[e] == INFINITE_LEVEL:
        raise InternalInvariantError("no finite-level cycle edge in the remainder")
    m = int(levels[e])

    part_m = seq.partition_at(m)
    u, v = g.edges[e]
    if part_m.class_of[u] != part_m.class_of[v]:
        raise InternalInvariantError("selected edge spans two classes at its level")
    class_p = part_m.members(part_m.class_of[u])
    if m >= len(seq.steps):
        raise InternalInvariantError("finite level beyond the last refinement step")
    c_m = seq.steps[m].splitter
    if not 1 <= c_m <= k - 1:
        raise InternalInvariantError(f"splitter at the selected level is {c_m}, not a tree color")

    cycle = fundamental_cycle(g, t.edges_of_color(c_m), e)
    e_prime = min(cycle, key=lambda eid: (levels[eid], eid))
    if levels[e_prime] == INFINITE_LEVEL or levels[e_prime] >= m:
        raise InternalInvariantError("fundamental cycle has no edge below the selected level")
    j = int(levels[e_prime])

    part_j = seq.partition_at(j)
    x, y = g.edges[e_prime]
    if part_j.class_of[x] != part_j.class_of[y]:
        raise InternalInvariantError("exchanged-out edge spans two classes at its level")
    class_q = part_j.members(part_j.class_of[x])
    inside = set(class_q)
    for eid in cycle:
        a, b = g.edges[eid]
        if a not in inside or b not in inside:
            raise InternalInvariantError("fundamental cycle leaves its low-level class")

    after = t.recolor({e: c_m, e_prime: k})
    trace = ExchangeTrace(
        e=e,
        m=m,
        class_p=class_p,
        c_m=c_m,
        cycle=tuple(cycle),
        e_prime=e_prime,
        j=j,
        class_q=class_q,
    )
    return after, trace


def exchange_step(g: MultiGraph, t: KPartition) -> tuple[KPartition, ExchangeTrace]:
    """One improving exchange between the remainder color and a tree color.

    Picks the minimum-level remainder edge ``e`` lying on a cycle (ties by
    lowest id), moves it into the tree color that splits its level, and
    returns the minimum-level edge of the resulting fundamental cycle to
    the remainder. Requires that ``density_check`` returned None for the
    same coloring.
    """
    return _exchange_from(g, t, build_sequence(g, t))


def run_stage(
    g: MultiGraph,
    trees: Iterable[Iterable[EdgeId]],
    rest: Iterable[EdgeId],
    *,
    cap: int | None = None,
    on_exchange: OnExchange | None = None,
) -> StageOutcome:
    """Exchange until the remainder color is connected or a certificate appears.

    ``trees`` are the spanning trees fixed so far (exchanges may rotate
    edges through them, but they stay spanning trees); ``rest`` is every
    remaining edge; the stage ends once it is connected (``components``
    before any exchange, a sequence with no steps after one). ``cap`` is a
    safety bound on exchanges; exceeding it raises InternalInvariantError.
    Before its first exchange a stage checks each tree once: an exchange
    keeps them trees (``e`` enters ``c_m``, ``e'`` leaves the cycle ``e``
    closes there), so each sequence build takes them as forests unchecked.
    """
    tree_sets = [frozenset(tree) for tree in trees]
    rest_set = frozenset(rest)
    colors = len(tree_sets) + 1
    t = KPartition.from_edge_sets(colors, [*tree_sets, rest_set], g.m)
    if cap is None:
        cap = max(1, colors * g.n * g.m)
    if components(g, rest_set).num_classes <= 1:
        return StageOutcome(tuple(tree_sets), rest_set, None, 0)
    for c in range(1, colors):
        ids = t.edges_of_color(c)
        if len(ids) != g.n - 1 or len(_roots_within(g, ids, [0] * g.n)[1]) != g.n - 1:
            raise InternalInvariantError(f"color {c} is not a spanning tree")

    exchanges = 0
    while True:
        seq = build_sequence(g, t, forests=range(1, colors))
        if not seq.steps:
            final_trees = tuple(frozenset(t.edges_of_color(c)) for c in range(1, colors))
            return StageOutcome(final_trees, frozenset(t.edges_of_color(colors)), None, exchanges)
        certificate = density_check(g, t, seq)
        if certificate is not None:
            return StageOutcome(None, None, certificate, exchanges)
        if exchanges >= cap:
            raise InternalInvariantError(f"exchange cap {cap} exceeded")
        after, trace = _exchange_from(g, t, seq)
        exchanges += 1
        if on_exchange is not None:
            on_exchange(
                ExchangeEvent(
                    colors=colors, before=t, after=after, sequence=seq, trace=trace
                )
            )
        t = after


def greedy_spanning_tree(
    g: MultiGraph, edge_ids: Iterable[EdgeId], order: str = "asc"
) -> frozenset[EdgeId]:
    """Spanning tree of the connected subgraph ``(V, edge_ids)``, greedily.

    Scans edges by id (``asc`` or ``desc``) and keeps every edge joining
    two components; loops never qualify.
    """
    if order not in ("asc", "desc"):
        raise ValueError("order must be 'asc' or 'desc'")
    ids = sorted(edge_ids, reverse=(order == "desc"))
    _, chosen = _roots_within(g, ids, [0] * g.n)
    if len(chosen) != g.n - 1:
        raise InternalInvariantError("edge set does not span a connected graph")
    return frozenset(chosen)


def _stages(
    g: MultiGraph, cap: int | None, seedtree_order: str, on_exchange: OnExchange | None
) -> Iterator[StageOutcome]:
    """Outcomes of stages 1, 2, ..., each stage run once; ends at a certificate.

    A connected stage is yielded with the next tree, extracted greedily from
    its remainder, moved from ``rest`` to ``trees``. Stage ``s`` gets the
    exchange cap ``cap``, or ``max(1, s * n * m)`` when ``cap`` is None.
    """
    trees: tuple[frozenset[EdgeId], ...] = ()
    rest = frozenset(range(g.m))
    for stage in count(1):
        limit = cap if cap is not None else max(1, stage * g.n * g.m)
        outcome = run_stage(g, trees, rest, cap=limit, on_exchange=on_exchange)
        if outcome.certificate is not None:
            yield outcome
            return
        assert outcome.trees is not None and outcome.rest is not None
        new_tree = greedy_spanning_tree(g, outcome.rest, seedtree_order)
        trees = (*outcome.trees, new_tree)
        rest = outcome.rest - new_tree
        yield replace(outcome, trees=trees, rest=rest)


def pack(
    g: MultiGraph,
    k: int,
    *,
    cap: int | None = None,
    seedtree_order: str = "asc",
    on_exchange: OnExchange | None = None,
) -> PackResult:
    """Find k edge-disjoint spanning trees or a violating partition.

    Trees are extracted one stage at a time; any stage certificate is also
    a certificate for the full ``k`` since a violation of ``t * (|P| - 1)``
    at stage ``t <= k`` implies one of ``k * (|P| - 1)``. ``k = 0`` and
    single-vertex graphs succeed vacuously. Loops can never enter a tree
    and simply stay in the remainder. Every stage gets the exchange cap
    ``cap``, by default ``max(1, k * n * m)``; a negative cap is a
    ValueError.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if g.n < 1:
        raise ValueError("graph must have at least one vertex")
    if seedtree_order not in ("asc", "desc"):
        raise ValueError("seedtree_order must be 'asc' or 'desc'")
    if cap is not None and cap < 0:
        raise ValueError("exchange cap must be nonnegative")
    limit = cap if cap is not None else max(1, k * g.n * g.m)
    outcomes = list(islice(_stages(g, limit, seedtree_order, on_exchange), k))
    last = outcomes[-1] if outcomes else StageOutcome((), None, None, 0)
    return PackResult(
        k=k,
        trees=last.trees,
        certificate=last.certificate,
        exchanges=sum(outcome.exchanges for outcome in outcomes),
    )


def stp_number(g: MultiGraph, *, cap: int | None = None) -> tuple[int, Partition]:
    """Largest k packing k spanning trees, plus the certificate for k + 1.

    Runs stages 1, 2, ... once each and stops at the first certificate: a
    certificate at stage ``s`` yields ``(s - 1, certificate)``. Stage ``s``
    gets the exchange cap ``cap``, by default ``max(1, s * n * m)``, the
    cap it has in ``pack(g, s)``; a negative cap is a ValueError. A
    certificate is guaranteed by stage ``m // (n - 1) + 1``, where the
    one-vertex classes alone violate the count. Graphs with fewer than two
    vertices pack every k vacuously and are rejected.
    """
    if g.n <= 1:
        raise ValueError("packing number is unbounded for graphs with n <= 1")
    if cap is not None and cap < 0:
        raise ValueError("exchange cap must be nonnegative")
    ceiling = g.m // (g.n - 1) + 1
    outcomes = islice(_stages(g, cap, "asc", None), ceiling)
    for stage, outcome in enumerate(outcomes, start=1):
        if outcome.certificate is not None:
            return stage - 1, outcome.certificate
    raise InternalInvariantError("no certificate at the arithmetic ceiling")
