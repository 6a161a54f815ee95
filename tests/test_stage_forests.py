"""The stage's rooted forests against the per-call kernels.

``run_stage`` keeps a forest for the remainder, and for each tree color an
exchange uses, each rooted by one search at its first use; the exchange
(``packer._exchange_from``) patches both colors it changes with one
``RootedForest.swap`` each, right after the recoloring. The tree forests
outlive the stage: ``pack`` and ``stp_number`` carry them, with the
coloring, into the next one. Here every
forest call of a stage is held to the per-call result, every forest to its
color after each exchange, the carried forests to their colors and to a run
that carries none, the search, the climb and each swap are checked on
their own, ``exchange_step`` is held to a stage's first event, and a
corrupt forest must fail loudly instead of looping.
"""

from __future__ import annotations

import dataclasses

import pytest

import treepack.multigraph
import treepack.packer
from treepack import (
    ExchangeEvent,
    InternalInvariantError,
    KPartition,
    MultiGraph,
    NoCycleError,
    build_sequence,
    components,
    exchange_step,
    pack,
    run_stage,
    stp_number,
)
from treepack.multigraph import RootedForest, cycle_edges, fundamental_cycle, root_forest

from graphs import (
    complete_graph,
    deadline,
    hypercube,
    prefix_violations,
    random_multigraph,
    random_stage,
    union_of_spanning_trees,
)


def _assert_rooted(g: MultiGraph, forest: RootedForest, ids) -> None:
    """``forest`` is a rooted spanning forest of the edge set ``ids``."""
    ids = set(ids)
    taken = _forest_edges(forest)
    assert taken <= ids
    assert len(taken) == sum(e >= 0 for e in forest.via)
    for v in range(g.n):
        up, e = forest.above[v], forest.via[v]
        if up == v:
            assert e == -1
        else:
            assert sorted(g.edges[e]) == sorted((v, up)), (v, e)
        forest.climb(v)  # raises if the parent links form a cycle
    assert sum(forest.above[v] != v for v in range(g.n)) == len(taken)
    assert len(taken) == g.n - components(g, ids).num_classes


def _forest_edges(forest: RootedForest) -> set[int]:
    return set(forest.via) - {-1}


@pytest.fixture
def checked_kernels(monkeypatch):
    """Rebind the packer's kernels so every stage call is checked; returns the call counts."""
    calls = {"cycle_edges": 0, "fundamental_cycle": 0}

    def checked_cycle_edges(g, ids, *, forest=None):
        assert forest is not None, "the stage called cycle_edges without its forest"
        _assert_rooted(g, forest, ids)
        got = cycle_edges(g, ids, forest=forest)
        _assert_rooted(g, forest, ids)
        assert got == cycle_edges(g, ids)
        calls["cycle_edges"] += 1
        return got

    def checked_fundamental_cycle(g, tree_ids, e, *, forest=None):
        assert forest is not None, "the stage called fundamental_cycle without its forest"
        _assert_rooted(g, forest, tree_ids)
        got = fundamental_cycle(g, tree_ids, e, forest=forest)
        _assert_rooted(g, forest, tree_ids)
        assert got == fundamental_cycle(g, tree_ids, e)
        calls["fundamental_cycle"] += 1
        return got

    monkeypatch.setattr(treepack.packer, "cycle_edges", checked_cycle_edges)
    monkeypatch.setattr(treepack.packer, "fundamental_cycle", checked_fundamental_cycle)
    return calls


FAMILIES = [
    pytest.param(hypercube(6), 3, id="Q6"),
    pytest.param(hypercube(8), 4, id="Q8"),
    pytest.param(union_of_spanning_trees(2008, 200, 3), 3, id="union-n200"),
    pytest.param(complete_graph(16), 8, id="K16"),
]


@pytest.mark.parametrize("g, k", FAMILIES)
def test_stage_forests_agree_with_per_call_kernels_on_families(checked_kernels, g, k):
    result = pack(g, k)
    assert result.exchanges >= 1
    assert checked_kernels == {"cycle_edges": result.exchanges, "fundamental_cycle": result.exchanges}


@pytest.mark.parametrize("k", [2, 3])
def test_stage_forests_agree_with_per_call_kernels_on_random_stages(checked_kernels, k):
    # Every exchange also keeps the prefix property, as in the families.
    exchanges, checked, violations = 0, 0, []

    def check(event: ExchangeEvent) -> None:
        nonlocal checked
        checked += 1
        after = build_sequence(g, event.after)
        violations.extend(prefix_violations(event, after, f"seed {seed}, exchange {checked}"))

    for seed in range(250):
        case = random_stage(seed, k)
        if case is not None:
            g, trees, rest = case
            t = KPartition.from_edge_sets(k, [*trees, set(rest)], g.m)
            cap = max(1, k * g.n * g.m)
            exchanges += run_stage(g, t, forests={}, cap=cap, on_exchange=check).exchanges
    assert checked_kernels == {"cycle_edges": exchanges, "fundamental_cycle": exchanges}
    assert checked == exchanges >= 100
    assert violations == [], violations[:5]


def _assert_forests_match(g: MultiGraph, forests, event: ExchangeEvent) -> None:
    """Every forest of the stage's dict spans exactly its color after the exchange."""
    assert {event.colors, event.c_m} <= set(forests)
    for color, forest in forests.items():
        _assert_rooted(g, forest, event.after.edges_of_color(color))


@pytest.mark.parametrize("k", [2, 3])
def test_every_forest_matches_its_color_after_each_exchange_on_random_stages(k):
    # Both colors an exchange changes are patched before the callback runs.
    exchanges = checked = 0

    def check(event: ExchangeEvent) -> None:
        nonlocal checked
        _assert_forests_match(g, forests, event)
        checked += 1

    for seed in range(250):
        case = random_stage(seed, k)
        if case is not None:
            g, trees, rest = case
            forests: dict[int, RootedForest] = {}
            t = KPartition.from_edge_sets(k, [*trees, set(rest)], g.m)
            cap = max(1, k * g.n * g.m)
            exchanges += run_stage(g, t, forests=forests, cap=cap, on_exchange=check).exchanges
    assert checked == exchanges >= 100


@pytest.mark.parametrize("g, k", FAMILIES)
def test_every_forest_matches_its_color_after_each_exchange_on_families(monkeypatch, g, k):
    stage = treepack.packer.run_stage
    checked = 0

    def checked_stage(g, coloring, *, forests=None, on_exchange=None, **kwargs):
        assert forests is not None, "the stage carries no forests"

        def check(event: ExchangeEvent) -> None:
            nonlocal checked
            _assert_forests_match(g, forests, event)
            checked += 1
            if on_exchange is not None:
                on_exchange(event)

        return stage(g, coloring, forests=forests, on_exchange=check, **kwargs)

    monkeypatch.setattr(treepack.packer, "run_stage", checked_stage)
    assert pack(g, k).exchanges == checked >= 1


def test_each_stage_roots_each_color_it_uses_once(monkeypatch):
    # The remainder is rooted once in each stage that exchanges; a tree
    # color at most once in the whole run, at its first use after it became
    # a tree. Never again per exchange, and never by the per-call fallback
    # inside cycle_edges or fundamental_cycle.
    g = union_of_spanning_trees(2008, 200, 3)
    stages: list[dict] = []
    pending: list[tuple[int, ...]] = []
    stage, root = treepack.packer.run_stage, root_forest

    def counted_stage(g, coloring, **kwargs):
        stages.append({"remainder": coloring.k, "rooted": [], "used": set()})
        return stage(g, coloring, **kwargs)

    def counted_root(g, ids):
        pending.append(tuple(ids))
        return root(g, ids)

    def record(event: ExchangeEvent) -> None:
        for ids in pending:  # rooted for this exchange: name the color
            color = event.before.color_of[ids[0]]
            assert ids == event.before.edges_of_color(color)
            stages[-1]["rooted"].append(color)
        pending.clear()
        stages[-1]["used"].update({event.colors, event.c_m})

    monkeypatch.setattr(treepack.packer, "run_stage", counted_stage)
    monkeypatch.setattr(treepack.packer, "root_forest", counted_root)
    monkeypatch.setattr(treepack.multigraph, "root_forest", counted_root)
    assert pack(g, 3, on_exchange=record).exchanges >= 1
    assert pending == []
    used_as_tree: set[int] = set()
    for s in stages:
        remainder = s["remainder"]
        first_uses = s["used"] - {remainder} - used_as_tree
        assert sorted(s["rooted"]) == sorted(first_uses | (s["used"] & {remainder}))
        used_as_tree |= s["used"] - {remainder}
    assert [len(s["rooted"]) for s in stages] == [0, 2, 2]


def _first_stage_event(g: MultiGraph, t: KPartition) -> ExchangeEvent | None:
    """The first exchange ``run_stage`` reports from ``t`` with fresh forests."""
    events: list[ExchangeEvent] = []
    run_stage(g, t, forests={}, cap=max(1, t.k * g.n * g.m), on_exchange=events.append)
    return events[0] if events else None


def _assert_same_event(g: MultiGraph, t: KPartition, where: str) -> bool:
    """``exchange_step(g, t)`` is, field by field, the stage's first event;
    False when the stage makes no exchange."""
    expected = _first_stage_event(g, t)
    if expected is None:
        return False
    event = exchange_step(g, t)
    assert type(event) is ExchangeEvent, where
    for field in dataclasses.fields(ExchangeEvent):
        assert getattr(event, field.name) == getattr(expected, field.name), (where, field.name)
    return True


@pytest.mark.parametrize("k", [2, 3])
def test_exchange_step_is_the_first_event_of_its_stage_on_random_stages(k):
    compared = 0
    for seed in range(250):
        case = random_stage(seed, k)
        if case is not None:
            g, trees, rest = case
            t = KPartition.from_edge_sets(k, [*trees, set(rest)], g.m)
            compared += _assert_same_event(g, t, f"seed {seed}")
    assert compared >= 60, compared


def test_exchange_step_is_the_first_event_of_its_stage_on_a_family():
    # The coloring the last stage of Q6 at k = 3 starts its exchanges from.
    g = hypercube(6)
    events: list[ExchangeEvent] = []
    pack(g, 3, on_exchange=events.append)
    t = next(event.before for event in events if event.colors == 3)
    assert _assert_same_event(g, t, "Q6, stage 3")


def _checked_stages(monkeypatch):
    """Rebind ``run_stage`` so that the forests carried into and out of
    every stage are checked against its coloring."""
    stage = treepack.packer.run_stage
    checked = []

    def check(g, coloring, forests) -> None:
        assert set(forests) <= set(range(1, coloring.k)), "a remainder forest was carried"
        for color, forest in forests.items():
            _assert_rooted(g, forest, coloring.edges_of_color(color))
        checked.append(len(forests))

    def checked_stage(g, coloring, *, forests=None, **kwargs):
        assert forests is not None, "the stage carries no forests"
        check(g, coloring, forests)
        outcome = stage(g, coloring, forests=forests, **kwargs)
        check(g, outcome.coloring, forests)
        return outcome

    monkeypatch.setattr(treepack.packer, "run_stage", checked_stage)
    return checked


def _fresh_stages(monkeypatch):
    """Rebind ``run_stage`` so that every stage starts from a coloring built
    by ``from_edge_sets`` and with no forest carried in."""
    stage = treepack.packer.run_stage

    def fresh_stage(g, coloring, *, forests=None, **kwargs):
        sets = [coloring.edges_of_color(c) for c in range(1, coloring.k + 1)]
        return stage(g, KPartition.from_edge_sets(coloring.k, sets, g.m), forests={}, **kwargs)

    monkeypatch.setattr(treepack.packer, "run_stage", fresh_stage)


def _run(g, k):
    events: list[ExchangeEvent] = []
    return pack(g, k, on_exchange=events.append), events, stp_number(g)


def _carried_forest_cases():
    cases = [(hypercube(6), 3), (hypercube(8), 4), (complete_graph(16), 8)]
    cases += [(union_of_spanning_trees(2008, 200, 3), 3)]
    for seed in range(60):
        g = random_multigraph(seed, max_m=24)
        if g.n >= 2:
            cases.append((g, g.m // (g.n - 1) + 1))
    return cases


def test_carried_forests_match_their_colors_and_a_run_that_carries_none(monkeypatch):
    cases = _carried_forest_cases()
    loops = parallels = carried = exchanges = 0
    for g, k in cases:
        with monkeypatch.context() as m:
            checked = _checked_stages(m)
            carrying = _run(g, k)
        with monkeypatch.context() as m:
            _fresh_stages(m)
            fresh = _run(g, k)
        assert carrying == fresh, g
        carried += sum(checked)
        exchanges += carrying[0].exchanges
        loops += any(u == v for u, v in g.edges)
        parallels += len({tuple(sorted(e)) for e in g.edges}) < g.m
    assert loops >= 40 and parallels >= 40, (loops, parallels)
    assert carried >= 120 and exchanges >= 300, (carried, exchanges)


# A path 0-1-2-3 whose closing edge is (0, 3).
PATH = MultiGraph(4, ((0, 1), (1, 2), (2, 3), (0, 3)))


def test_root_forest_spans_every_vertex_from_its_least_vertex():
    # Components {0, 3, 5} (with a loop, a parallel copy and a repeated id),
    # {1, 6} and the lone vertices 2 and 4.
    g = MultiGraph(7, ((5, 3), (3, 3), (0, 5), (6, 1), (3, 5), (0, 3)))
    ids = [0, 1, 2, 3, 4, 5, 0]
    forest = root_forest(g, ids)
    _assert_rooted(g, forest, ids)
    assert [forest.climb(v)[-1] for v in range(g.n)] == [0, 1, 2, 0, 4, 0, 1]
    for seed in range(60):
        case = random_stage(seed, 2)
        if case is not None:
            g, _, rest = case
            forest = root_forest(g, rest)
            _assert_rooted(g, forest, rest)
            least = components(g, rest).class_of  # labels by first occurrence
            roots = [forest.climb(v)[-1] for v in range(g.n)]
            assert roots == [least.index(least[v]) for v in range(g.n)], seed


def test_climb_stops_at_the_first_vertex_in_stop():
    forest = root_forest(PATH, range(3))  # the path 0-1-2-3, rooted at 0
    assert forest.climb(3) == [3, 2, 1, 0]
    assert forest.climb(3, {1}) == [3, 2, 1]
    assert forest.climb(3, {0, 2}) == [3, 2]
    assert forest.climb(3, (3,)) == [3]
    assert forest.climb(1, {2, 3}) == [1, 0]  # a stop below x is never met


# Each swap on its own --------------------------------------------------------

def _patched_remainder(edges, before, e, e_prime):
    """Span ``before`` by ``cycle_edges``, as a stage does before its exchange,
    swap ``e`` out and ``e_prime`` in, and check the patch."""
    g = MultiGraph(1 + max(max(pair) for pair in edges), tuple(edges))
    forest = root_forest(g, before)
    cycle_edges(g, before, forest=forest)
    after = tuple(sorted(set(before) - {e} | {e_prime}))
    forest.swap(g.edges, e, e_prime)
    _assert_rooted(g, forest, after)
    assert cycle_edges(g, after, forest=forest) == cycle_edges(g, after)
    return forest


def test_remainder_patch_when_e_prime_is_the_only_replacement():
    # 0 -e- 1 -f- 2 with e a forest edge and a bridge, so no closing edge
    # covers it: only e' = (2, 0) rejoins {1, 2} to 0.
    forest = _patched_remainder([(0, 1), (1, 2), (2, 0)], [0, 1], e=0, e_prime=2)
    assert _forest_edges(forest) == {1, 2}


def test_remainder_patch_when_e_prime_joins_two_trees():
    # {0, 1} with a parallel pair and the lone vertex 2: the copy replaces e,
    # and then e' = (1, 2) links the two trees.
    forest = _patched_remainder([(0, 1), (0, 1), (1, 2)], [0, 1], e=0, e_prime=2)
    assert _forest_edges(forest) == {1, 2}


def test_remainder_patch_when_e_prime_closes_a_cycle():
    # A path 0-1-2-3 plus a chord; e' = (3, 0) joins vertices of one tree.
    edges = [(0, 1), (1, 2), (2, 3), (1, 3), (3, 0)]
    forest = _patched_remainder(edges, [0, 1, 2, 3], e=3, e_prime=4)
    assert 4 not in _forest_edges(forest) and len(_forest_edges(forest)) == 3


def test_remainder_patch_passes_over_a_loop():
    # e' = (0, 3) links vertex 3. Cutting e = (0, 1) detaches {1}; the loop
    # at 1 is a closing edge but covers nothing, so (1, 2) replaces e.
    edges = [(0, 1), (1, 1), (1, 2), (2, 0), (0, 3)]
    forest = _patched_remainder(edges, [0, 1, 2, 3], e=0, e_prime=4)
    assert _forest_edges(forest) == {2, 3, 4}


def test_remainder_patch_takes_a_parallel_copy():
    # e' = (2, 3) links vertex 3; the parallel copy of e = (0, 1) replaces it.
    edges = [(0, 1), (1, 2), (0, 1), (2, 3)]
    forest = _patched_remainder(edges, [0, 1, 2], e=0, e_prime=3)
    assert _forest_edges(forest) == {1, 2, 3}


def test_remainder_patch_when_e_is_a_closing_edge():
    # The triangle 0-1-2 is rooted at 0 by (0, 1) and (0, 2), so e = (1, 2)
    # is its closing edge: nothing is cut, and e' = (2, 3) links vertex 3.
    forest = _patched_remainder([(0, 1), (1, 2), (0, 2), (2, 3)], [0, 1, 2], e=1, e_prime=3)
    assert _forest_edges(forest) == {0, 2, 3}


@pytest.mark.parametrize("e", [4, 5])
@pytest.mark.parametrize("e_prime", [1, 2, 3])
def test_tree_patch_on_either_side_of_the_cycle(e, e_prime):
    # A path 0-1-2-3-4 rooted at 0; e = (1, 4) closes 1-2-3-4, and the swap
    # takes e' out and e in, the remainder's roles reversed. The tree has no
    # cover, so e is the replacement. With e = (1, 4) the cut lies on the
    # climb of its second end, 4; with its reversed copy (4, 1), on the climb
    # of its first end.
    g = MultiGraph(5, ((0, 1), (1, 2), (2, 3), (3, 4), (1, 4), (4, 1)))
    tree = root_forest(g, range(4))
    tree.swap(g.edges, e_prime, e)
    after = sorted(set(range(4)) - {e_prime} | {e})
    _assert_rooted(g, tree, after)
    for f in range(g.m):
        if f not in after:
            assert fundamental_cycle(g, after, f, forest=tree) == fundamental_cycle(g, after, f)


# A corrupt forest fails loudly -----------------------------------------------

def test_climb_on_cyclic_parent_links_raises():
    looped = RootedForest([1, 0, 1, 2], [0, 0, 1, 2])  # 0 and 1 climb to each other
    with deadline(), pytest.raises(InternalInvariantError, match="form a cycle"):
        looped.climb(3)
    with deadline(), pytest.raises(InternalInvariantError, match="form a cycle"):
        looped.climb(3, {4})


def test_fundamental_cycle_climbs_that_reach_two_roots_raise():
    split = RootedForest([0, 0, 2, 2], [-1, 0, -1, 2])  # 2 lost its parent
    with deadline(), pytest.raises(NoCycleError, match="not connected"):
        fundamental_cycle(PATH, range(3), 3, forest=split)


def test_fundamental_cycle_on_cyclic_parent_links_raises():
    looped = RootedForest([1, 0, 1, 2], [0, 0, 1, 2])
    with deadline(), pytest.raises(InternalInvariantError, match="form a cycle"):
        fundamental_cycle(PATH, range(3), 3, forest=looped)


def test_cycle_edges_climbs_that_reach_two_roots_raise():
    split = RootedForest([0, 0, 2, 2], [-1, 0, -1, 2])
    with deadline(), pytest.raises(InternalInvariantError, match="joins two trees"):
        cycle_edges(PATH, range(4), forest=split)


def test_cycle_edges_on_cyclic_parent_links_raises():
    looped = RootedForest([1, 0, 1, 2], [0, 0, 1, 2])
    with deadline(), pytest.raises(InternalInvariantError, match="form a cycle"):
        cycle_edges(PATH, range(4), forest=looped)


def test_remainder_forest_edge_without_a_replacement_raises():
    # In the path 0-1-2, e = (1, 2) is a bridge, and e' = (2, 3) joins the
    # side cutting it detaches, {2}, to the lone vertex 3, not back to {0, 1}.
    forest = root_forest(PATH, [0, 1])
    cycle_edges(PATH, [0, 1], forest=forest)
    with deadline(), pytest.raises(InternalInvariantError, match="no replacement"):
        forest.swap(PATH.edges, 1, 2)
    # Nor does a forged cover: in 0-1=2 with a parallel pair, the copy of
    # (1, 2) has both ends on the side that cutting the bridge (0, 1) detaches.
    g = MultiGraph(4, ((0, 1), (1, 2), (1, 2), (2, 3)))
    forest = root_forest(g, [0, 1, 2])
    cycle_edges(g, [0, 1, 2], forest=forest)
    forest.cover[0] = 2
    with deadline(), pytest.raises(InternalInvariantError, match="no replacement"):
        forest.swap(g.edges, 0, 3)
    # Nor does into stand in for a cover that fails: in the triangle 0-1-2
    # with a copy of (0, 1), rooted at 0 by (0, 1) and (0, 2), a forged cover
    # (0, 2) does not rejoin {1}, though e' = the copy would.
    g = MultiGraph(3, ((0, 1), (1, 2), (0, 2), (0, 1)))
    forest = root_forest(g, [0, 1, 2])
    cycle_edges(g, [0, 1, 2], forest=forest)
    forest.cover[0] = 2
    with deadline(), pytest.raises(InternalInvariantError, match="no replacement"):
        forest.swap(g.edges, 0, 3)
    # Nor does a forged closing edge that forms a cycle with the parent links.
    looped = RootedForest([1, 0, 1, 2], [0, 0, 1, 2])
    with deadline(), pytest.raises(InternalInvariantError, match="form a cycle"):
        looped.swap(PATH.edges, 2, 3)
    # Nor does a tree's e whose cycle misses e': in the path 0-1-2-3-4, the
    # cycle 1-2-3 that (1, 3) closes misses (0, 1).
    g = MultiGraph(5, ((0, 1), (1, 2), (2, 3), (3, 4), (1, 3)))
    tree = root_forest(g, range(4))
    with deadline(), pytest.raises(InternalInvariantError, match="no replacement"):
        tree.swap(g.edges, 0, 4)
