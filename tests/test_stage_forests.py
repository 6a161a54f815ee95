"""The stage's rooted forests against the per-call kernels.

``run_stage`` owns a dict of forests: one for the remainder, and one for
each tree color an exchange uses, each rooted by one search at its first
use in the stage; the exchange (``packer._exchange_from``) patches both
colors it changes with one ``RootedForest.swap`` each, right after the
recoloring. The dict goes when the stage returns. Every forest call of a
stage is held to the per-call result, every forest to its color after each
exchange (a tree's to its color rooted afresh) and ``exchange_step`` to a
stage's first event by ``graphs.WhiteBoxPass``, run once per family and
once per random-stage ``k``; the tests below read its findings. The search,
the climb and each swap are also checked on their own, and a corrupt forest
must fail loudly instead of looping.
"""

from __future__ import annotations

import pytest

from treepack import (
    InternalInvariantError,
    MultiGraph,
    NoCycleError,
    components,
)
from treepack.multigraph import RootedForest, cycle_edges, fundamental_cycle, root_forest

from graphs import (
    FAMILIES,
    deadline,
    family_pass,
    random_stage_pass,
    random_stages,
    spans,
)


def _forest_edges(forest: RootedForest) -> set[int]:
    return set(forest.via) - {-1}


@pytest.mark.parametrize("family", FAMILIES)
def test_stage_forests_agree_with_per_call_kernels_on_families(family):
    found = family_pass(family)
    assert found.exchanges >= 1
    assert found.calls == {"cycle_edges": found.exchanges, "fundamental_cycle": found.exchanges}
    assert found.failures("kernels") == []


@pytest.mark.parametrize("k", [2, 3])
def test_stage_forests_agree_with_per_call_kernels_on_random_stages(k):
    # Every exchange also passes exchange_violations, and cycle_edges the
    # low-point reference, as in the families.
    found = random_stage_pass(k)
    assert found.calls == {"cycle_edges": found.exchanges, "fundamental_cycle": found.exchanges}
    assert found.reported == found.exchanges >= 100
    assert found.failures("kernels", "low_points", "contract") == []


@pytest.mark.parametrize("k", [2, 3])
def test_every_forest_matches_its_color_after_each_exchange_on_random_stages(k):
    # Both colors an exchange changes are patched before the callback runs;
    # each stage's dict is its own.
    found = random_stage_pass(k)
    assert found.exchanges >= 100
    assert found.failures("forests") == []


@pytest.mark.parametrize("family", FAMILIES)
def test_every_forest_matches_its_color_after_each_exchange_on_families(family):
    # Each stage of pack has its own dict of forests, seen in no other stage.
    found = family_pass(family)
    assert found.exchanges >= 1
    assert found.failures("forests") == []


def test_each_stage_roots_each_color_it_uses_exactly_once():
    # Each stage roots the remainder and every tree color it exchanges with
    # once, at its first use there: never again per exchange, never from an
    # earlier stage's forest, and never by the per-call fallback inside
    # cycle_edges or fundamental_cycle (the kernels check flags a call
    # without a forest).
    for family in FAMILIES:
        assert family_pass(family).failures("rootings") == [], family
    assert family_pass("union-n200").rooted == [0, 2, 3]
    for k in (2, 3):
        assert random_stage_pass(k).failures("rootings") == [], k


@pytest.mark.parametrize("k", [2, 3])
def test_exchange_step_is_the_first_event_of_its_stage_on_random_stages(k):
    found = random_stage_pass(k)
    assert found.first_events >= 60, found.first_events
    assert found.failures("first_event") == []


def test_exchange_step_is_the_first_event_of_its_stage_on_a_family():
    # Every stage of each family that exchanges, the last stage of Q6 at
    # k = 3 among them.
    for family in FAMILIES:
        found = family_pass(family)
        assert found.first_events >= 1, family
        assert found.failures("first_event") == []


# A path 0-1-2-3 whose closing edge is (0, 3).
PATH = MultiGraph(4, ((0, 1), (1, 2), (2, 3), (0, 3)))


def test_root_forest_spans_every_vertex_from_its_least_vertex():
    # Components {0, 3, 5} (with a loop, a parallel copy and a repeated id),
    # {1, 6} and the lone vertices 2 and 4.
    g = MultiGraph(7, ((5, 3), (3, 3), (0, 5), (6, 1), (3, 5), (0, 3)))
    ids = [0, 1, 2, 3, 4, 5, 0]
    forest = root_forest(g, ids)
    assert spans(g, forest, ids)
    assert [forest.climb(v)[-1] for v in range(g.n)] == [0, 1, 2, 0, 4, 0, 1]
    for seed, g, t in random_stages(2):
        rest = t.edges_of_color(2)
        ids = [*rest, *rest[: seed % 4]]  # 0-3 ids repeated
        forest = root_forest(g, ids)
        assert spans(g, forest, ids), seed
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
    assert spans(g, forest, after)
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
    assert spans(g, tree, after)
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
