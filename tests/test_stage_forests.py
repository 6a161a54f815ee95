"""The stage's rooted forests against the per-call kernels.

``run_stage`` keeps a forest for the remainder, and for each tree color an
exchange uses, each grown by its first call's own search, and patches
them for the edges each exchange moves. Here every forest call of a stage
is held to the per-call result, each patch is checked on its own, and a
corrupt forest must fail loudly instead of looping.
"""

from __future__ import annotations

import signal
from contextlib import contextmanager

import pytest

import treepack.multigraph
import treepack.packer
from treepack import (
    ExchangeEvent,
    InternalInvariantError,
    MultiGraph,
    NoCycleError,
    components,
    greedy_spanning_tree,
    pack,
    run_stage,
)
from treepack.generate import SplitMix64
from treepack.multigraph import RootedForest, cycle_edges, fundamental_cycle, root_forest
from treepack.packer import _relink_remainder, _relink_tree

from graphs import _shuffle, complete_graph, hypercube, union_of_spanning_trees


def _assert_rooted(g: MultiGraph, forest: RootedForest, ids) -> None:
    """``forest`` is a rooted forest of the edge set ``ids``, spanning every
    vertex its search has reached, and all of them once it has reached all."""
    ids = set(ids)
    reached = [v for v in range(g.n) if forest.above[v] >= 0]
    assert sorted(forest.reached) == reached
    taken = _forest_edges(forest)
    assert taken <= ids
    assert len(taken) == sum(forest.via[v] >= 0 for v in reached)
    for v in reached:
        up, e = forest.above[v], forest.via[v]
        if up == v:
            assert e == -1
        else:
            assert sorted(g.edges[e]) == sorted((v, up)), (v, e)
        forest.climb(v)  # raises if the parent links form a cycle
    assert sum(forest.above[v] != v for v in reached) == len(taken)
    if len(reached) < g.n:  # a spanned forest has dropped its adjacency
        for v in forest.reached[: forest.expanded]:
            for w, e in forest.adjacency[v]:
                assert forest.above[w] >= 0, "an expanded vertex has a neighbour not reached"
    if len(reached) == g.n:
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
        assert len(forest.reached) == g.n
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
    exchanges = 0
    for seed in range(250):
        case = _random_stage(seed, k)
        if case is not None:
            exchanges += run_stage(*case).exchanges
    assert checked_kernels == {"cycle_edges": exchanges, "fundamental_cycle": exchanges}
    assert exchanges >= 100


def test_each_stage_roots_each_color_it_uses_once(monkeypatch):
    # The remainder, and every tree color an exchange enters, is rooted
    # once in its stage: never again per exchange, and never by the
    # per-call fallback inside cycle_edges or fundamental_cycle.
    g = union_of_spanning_trees(2008, 200, 3)
    stages: list[dict] = []
    stage, root = treepack.packer.run_stage, root_forest

    def counted_stage(*args, **kwargs):
        stages.append({"rootings": 0, "colors": set()})
        return stage(*args, **kwargs)

    def counted_root(g, ids):
        stages[-1]["rootings"] += 1
        return root(g, ids)

    def record(event: ExchangeEvent) -> None:
        stages[-1]["colors"].update({event.colors, event.trace.c_m})

    monkeypatch.setattr(treepack.packer, "run_stage", counted_stage)
    monkeypatch.setattr(treepack.packer, "root_forest", counted_root)
    monkeypatch.setattr(treepack.multigraph, "root_forest", counted_root)
    assert pack(g, 3, on_exchange=record).exchanges >= 1
    assert [s["rootings"] for s in stages] == [len(s["colors"]) for s in stages]
    assert sum(s["rootings"] for s in stages) >= 2


def test_fundamental_cycle_grows_the_search_only_as_far_as_it_needs():
    # A path 0-1-2-3-4-5 and e = (0, 2): the search from 0 stops once it
    # reaches 2, and e = (3, 5) grows it further.
    g = MultiGraph(6, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 2), (3, 5)))
    tree = root_forest(g, range(5))
    assert fundamental_cycle(g, range(5), 5, forest=tree) == (0, 1, 5)
    assert set(tree.reached) == {0, 1, 2}
    assert fundamental_cycle(g, range(5), 6, forest=tree) == (3, 4, 6)
    assert set(tree.reached) == set(range(6))
    _assert_rooted(g, tree, range(5))


def test_tree_patch_on_a_partly_grown_tree():
    # The search from 0 reaches only {0, 1, 2} for e = (0, 2); cutting
    # e' = (1, 2) re-hangs 2 from 0, and a later call grows the rest.
    g = MultiGraph(6, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 2), (3, 5)))
    tree = root_forest(g, range(5))
    cycle = fundamental_cycle(g, range(5), 5, forest=tree)
    _relink_tree(g, tree, cycle, 1)
    after = [0, 2, 3, 4, 5]
    _assert_rooted(g, tree, after)
    assert set(tree.reached) == {0, 1, 2}
    assert fundamental_cycle(g, after, 6, forest=tree) == fundamental_cycle(g, after, 6)
    _assert_rooted(g, tree, after)
    assert set(tree.reached) == set(range(6))


# Each patch on its own -------------------------------------------------------

def _patched_remainder(edges, before, e, e_prime):
    """Span ``before`` by ``cycle_edges``, as a stage does before its exchange,
    move ``e`` out and ``e_prime`` in, and check the patch."""
    g = MultiGraph(1 + max(max(pair) for pair in edges), tuple(edges))
    forest = root_forest(g, before)
    cycle_edges(g, before, forest=forest)
    after = tuple(sorted(set(before) - {e} | {e_prime}))
    _relink_remainder(g, forest, e, e_prime)
    _assert_rooted(g, forest, after)
    assert cycle_edges(g, after, forest=forest) == cycle_edges(g, after)
    return forest


def test_remainder_patch_when_e_prime_is_the_only_replacement():
    # 0 -e- 1 -f- 2 with e a forest edge and a bridge, so no closing edge
    # covers it: only e' = (2, 0) rejoins 1.
    forest = _patched_remainder([(0, 1), (1, 2), (2, 0)], [0, 1], e=0, e_prime=2)
    assert _forest_edges(forest) == {1, 2}


def test_remainder_patch_when_e_prime_joins_two_trees():
    # {0, 1} with a parallel pair and the lone vertex 2; e' = (1, 2) links them.
    forest = _patched_remainder([(0, 1), (0, 1), (1, 2)], [0, 1], e=0, e_prime=2)
    assert _forest_edges(forest) == {1, 2}


def test_remainder_patch_when_e_prime_closes_a_cycle():
    # A path 0-1-2-3 plus a chord; e' = (3, 0) joins vertices of one tree.
    edges = [(0, 1), (1, 2), (2, 3), (1, 3), (3, 0)]
    forest = _patched_remainder(edges, [0, 1, 2, 3], e=3, e_prime=4)
    assert 4 not in _forest_edges(forest) and len(_forest_edges(forest)) == 3


def test_remainder_patch_passes_over_a_loop():
    # e' = (0, 3) links vertex 3. Cutting e = (0, 1) detaches {1}; the loop
    # at 1 comes first in id order but covers nothing, so (1, 2) replaces e.
    edges = [(0, 1), (1, 1), (1, 2), (2, 0), (0, 3)]
    forest = _patched_remainder(edges, [0, 1, 2, 3], e=0, e_prime=4)
    assert _forest_edges(forest) == {2, 3, 4}


def test_remainder_patch_takes_a_parallel_copy():
    # e' = (2, 3) links vertex 3; the parallel copy of e = (0, 1) replaces it.
    edges = [(0, 1), (1, 2), (0, 1), (2, 3)]
    forest = _patched_remainder(edges, [0, 1, 2], e=0, e_prime=3)
    assert _forest_edges(forest) == {1, 2, 3}


@pytest.mark.parametrize("e", [4, 5])
@pytest.mark.parametrize("e_prime", [1, 2, 3])
def test_tree_patch_on_either_side_of_the_cycle(e, e_prime):
    # A path 0-1-2-3-4 rooted at 0; e = (1, 4) closes 1-2-3-4 and e' is
    # cut from it. The cycle runs from u to v, so with e = (1, 4) the cut
    # detaches v's side, and with its reversed copy (4, 1) u's side.
    g = MultiGraph(5, ((0, 1), (1, 2), (2, 3), (3, 4), (1, 4), (4, 1)))
    tree = root_forest(g, range(4))
    tree.grow()
    cycle = fundamental_cycle(g, range(4), e, forest=tree)
    _relink_tree(g, tree, cycle, e_prime)
    after = sorted(set(range(4)) - {e_prime} | {e})
    _assert_rooted(g, tree, after)
    for f in range(g.m):
        if f not in after:
            assert fundamental_cycle(g, after, f, forest=tree) == fundamental_cycle(g, after, f)


# A corrupt forest fails loudly -----------------------------------------------

@contextmanager
def _deadline(seconds: int = 2):
    def expire(signum, frame):
        raise TimeoutError("a corrupt forest looped instead of failing")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


# A path 0-1-2-3 whose closing edge is (0, 3).
PATH = MultiGraph(4, ((0, 1), (1, 2), (2, 3), (0, 3)))


def _forged(above, via) -> RootedForest:
    """A forest whose search has reached and expanded every vertex."""
    return RootedForest(above, via, reached=list(range(len(above))), expanded=len(above))


def test_fundamental_cycle_climbs_that_reach_two_roots_raise():
    split = _forged([0, 0, 2, 2], [-1, 0, -1, 2])  # 1 lost its parent
    with _deadline(), pytest.raises(NoCycleError, match="not connected"):
        fundamental_cycle(PATH, range(3), 3, forest=split)


def test_fundamental_cycle_on_cyclic_parent_links_raises():
    looped = _forged([1, 0, 1, 2], [0, 0, 1, 2])
    with _deadline(), pytest.raises(NoCycleError, match="form a cycle"):
        fundamental_cycle(PATH, range(3), 3, forest=looped)


def test_cycle_edges_climbs_that_reach_two_roots_raise():
    split = _forged([0, 0, 2, 2], [-1, 0, -1, 2])
    with _deadline(), pytest.raises(InternalInvariantError, match="joins two trees"):
        cycle_edges(PATH, range(4), forest=split)


def test_cycle_edges_on_cyclic_parent_links_raises():
    looped = _forged([1, 0, 1, 2], [0, 0, 1, 2])
    with _deadline(), pytest.raises(InternalInvariantError, match="form a cycle"):
        cycle_edges(PATH, range(4), forest=looped)


def test_remainder_forest_edge_without_a_replacement_raises():
    # In the path 0-1-2, e = (1, 2) is a bridge, and e' = (2, 3) only links 3.
    forest = root_forest(PATH, [0, 1])
    cycle_edges(PATH, [0, 1], forest=forest)
    with _deadline(), pytest.raises(InternalInvariantError, match="no replacement"):
        _relink_remainder(PATH, forest, 1, 2)
    # Nor does a forged cover: in 0-1=2 with a parallel pair, the copy of
    # (1, 2) has both ends on the side that cutting the bridge (0, 1) detaches.
    g = MultiGraph(4, ((0, 1), (1, 2), (1, 2), (2, 3)))
    forest = root_forest(g, [0, 1, 2])
    cycle_edges(g, [0, 1, 2], forest=forest)
    forest.cover[0] = 2
    with _deadline(), pytest.raises(InternalInvariantError, match="no replacement"):
        _relink_remainder(g, forest, 0, 3)
    # Nor does a forged closing edge that forms a cycle with the parent links.
    looped = _forged([1, 0, 1, 2], [0, 0, 1, 2])
    with _deadline(), pytest.raises(InternalInvariantError, match="form a cycle"):
        _relink_remainder(PATH, looped, 2, 3)
