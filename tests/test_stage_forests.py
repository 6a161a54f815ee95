"""The stage's rooted forests against the per-call kernels.

``run_stage`` keeps a forest for the remainder, and for each tree color an
exchange uses, each rooted by one search at its first use, and patches
both colors an exchange changes with one ``RootedForest.swap`` each. The
tree forests outlive the stage: ``pack`` and ``stp_number`` carry them, with
the coloring, into the next one. Here every forest call of a stage is held
to the per-call result, the carried forests to their colors and to a run
that carries none, the search, the climb and each swap are checked on
their own, and a corrupt forest must fail loudly instead of looping.
"""

from __future__ import annotations

import pytest

import treepack.multigraph
import treepack.packer
from treepack import (
    ExchangeEvent,
    InternalInvariantError,
    KPartition,
    MultiGraph,
    NoCycleError,
    components,
    greedy_spanning_tree,
    pack,
    run_stage,
    stp_number,
)
from treepack.generate import SplitMix64
from treepack.multigraph import RootedForest, cycle_edges, fundamental_cycle, root_forest

from graphs import (
    _shuffle,
    complete_graph,
    deadline,
    hypercube,
    prefix_violations,
    random_multigraph,
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


@pytest.mark.parametrize(
    "g, k",
    [
        pytest.param(hypercube(6), 3, id="Q6"),
        pytest.param(hypercube(8), 4, id="Q8"),
        pytest.param(union_of_spanning_trees(2008, 200, 3), 3, id="union-n200"),
        pytest.param(complete_graph(16), 8, id="K16"),
    ],
)
def test_stage_forests_agree_with_per_call_kernels_on_families(checked_kernels, g, k):
    result = pack(g, k)
    assert result.exchanges >= 1
    assert checked_kernels == {"cycle_edges": result.exchanges, "fundamental_cycle": result.exchanges}


def _random_stage(seed: int, k: int):
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


@pytest.mark.parametrize("k", [2, 3])
def test_stage_forests_agree_with_per_call_kernels_on_random_stages(checked_kernels, k):
    # Every exchange also keeps the prefix property, as in the families.
    exchanges, checked, violations = 0, 0, []

    def check(event: ExchangeEvent) -> None:
        nonlocal checked
        checked += 1
        violations.extend(prefix_violations(g, event, f"seed {seed}, exchange {checked}"))

    for seed in range(250):
        case = _random_stage(seed, k)
        if case is not None:
            g, trees, rest = case
            t = KPartition.from_edge_sets(k, [*trees, set(rest)], g.m)
            exchanges += run_stage(g, t, on_exchange=check).exchanges
    assert checked_kernels == {"cycle_edges": exchanges, "fundamental_cycle": exchanges}
    assert checked == exchanges >= 100
    assert violations == [], violations[:5]


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
        stages[-1]["used"].update({event.colors, event.trace.c_m})

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
        return stage(g, KPartition.from_edge_sets(coloring.k, sets, g.m), **kwargs)

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
        case = _random_stage(seed, 2)
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
