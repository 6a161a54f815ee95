from __future__ import annotations

import functools

import pytest

from treepack import (
    MultiGraph,
    Partition,
    components,
    density_margin,
    pack,
    stp_number,
    verify_certificate,
    verify_packing,
)

from treepack.generate import SplitMix64

from graphs import (
    complete_graph,
    cycle_graph,
    path_graph,
    random_multigraph,
    union_of_spanning_trees,
)
from references import (
    edge_scan_density_margin,
    exists_packing_exhaustive,
    restricted_growth_strings,
)


BELL = {1: 1, 2: 2, 3: 5, 4: 15, 5: 52, 6: 203, 7: 877, 8: 4140}


# restricted_growth_strings ---------------------------------------------------------

def _class_maps(n: int) -> list[tuple[int, ...]]:
    return [tuple(labels) for labels in restricted_growth_strings(n)]


def test_counts_for_tiny_n():
    assert len(_class_maps(1)) == 1
    assert len(_class_maps(2)) == 2
    three = _class_maps(3)
    assert len(three) == 5
    assert three[0] == Partition.trivial(3).class_of
    assert three[-1] == Partition.singletons(3).class_of


def test_enumeration_is_duplicate_free_and_complete():
    for n in range(1, 9):
        seen = {Partition.from_class_map(labels) for labels in restricted_growth_strings(n)}
        assert len(seen) == BELL[n]


def test_enumeration_order_is_rgs_lexicographic():
    assert _class_maps(3) == [
        (0, 0, 0),
        (0, 0, 1),
        (0, 1, 0),
        (0, 1, 1),
        (0, 1, 2),
    ]


# density_margin -----------------------------------------------------------------

def test_margin_vertex_count_range():
    # k's range is checked with the other checkers' k below.
    for n in (0, 13):
        with pytest.raises(ValueError, match=f"^vertex count must be in 1..12, not {n}$"):
            density_margin(MultiGraph(n, ()), 1)


def test_margin_single_vertex():
    assert density_margin(MultiGraph(1, ()), 5).margin == 0


def test_margin_path3_for_two_trees():
    report = density_margin(path_graph(3), 2)
    assert report.margin == 2 - 4
    assert report.witness == Partition.singletons(3)


def test_margin_k4_for_two_trees():
    report = density_margin(complete_graph(4), 2)
    assert report.margin == 0


def test_margin_and_witness_match_the_edge_scan_reference():
    # 25 multigraphs at each n in 1..9, with loops and parallel edges; the
    # walk must find the reference's margin and its first minimizer.
    rng = SplitMix64(0x0_7AC1E)
    ks = (0, 1, 2, 3, 4, 5, 10**20)
    loops = parallels = 0
    for i in range(225):
        n = 1 + i % 9
        edges = tuple((rng.below(n), rng.below(n)) for _ in range(rng.below(3 * n + 1)))
        g, k = MultiGraph(n, edges), ks[rng.below(len(ks))]
        assert density_margin(g, k) == edge_scan_density_margin(g, k), (g, k)
        loops += any(u == v for u, v in edges)
        parallels += len({frozenset(e) for e in edges}) < len(edges)
    assert loops >= 100 and parallels >= 100


def test_negative_margin_at_one_iff_disconnected():
    for seed in range(50):
        g = random_multigraph(seed)
        disconnected = components(g, range(g.m)).num_classes > 1
        assert (density_margin(g, 1).margin < 0) == disconnected


# the packer against the oracle at n = 9..11 -----------------------------------------

def _near_packable(rng: SplitMix64, n: int, k: int) -> MultiGraph:
    """k random spanning trees with up to three edges rewired at random
    (loops allowed), then one edge dropped or up to two added: m stays
    within two of k(n - 1), so some graphs pack k trees and some do not."""
    edges = list(union_of_spanning_trees(rng.next_word(), n, k).edges)
    for _ in range(rng.below(4)):
        edges[rng.below(len(edges))] = (rng.below(n), rng.below(n))
    if rng.below(2):
        del edges[rng.below(len(edges))]
    else:
        edges += [(rng.below(n), rng.below(n)) for _ in range(rng.below(3))]
    return MultiGraph(n, tuple(edges))


def test_packer_agrees_with_the_oracle_at_n_9_to_11():
    # The acceptance corpus stops at n = 6; these reach the oracle's larger sizes.
    rng = SplitMix64(0x9_11)
    verdicts = set()
    for n, count in ((9, 12), (10, 8), (11, 4)):
        for i in range(count):
            g, k = _near_packable(rng, n, 2 + i % 2), 2 + i % 2
            margin = functools.cache(lambda j: density_margin(g, j).margin)
            verdict = pack(g, k).verdict
            assert (verdict == "packing") == (margin(k) >= 0), (g, k)
            s, _ = stp_number(g)
            assert margin(s) >= 0 > margin(s + 1), (g, s)
            verdicts.add(verdict)
    assert verdicts == {"packing", "certificate"}


# verify_packing -----------------------------------------------------------------

def test_verify_packing_accepts_empty_for_k0():
    ok, detail = verify_packing(path_graph(3), [], 0)
    assert ok, detail


def test_verify_packing_accepts_the_unique_tree():
    g = path_graph(4)
    ok, detail = verify_packing(g, [range(g.m)], 1)
    assert ok, detail


def test_verify_packing_rejections():
    g = complete_graph(4)
    good = pack(g, 2).trees
    assert verify_packing(g, good, 3)[0] is False  # wrong count
    shared = [list(good[0]), list(good[0])]
    ok, detail = verify_packing(g, shared, 2)
    assert not ok and "share" in detail
    repeated = [list(good[0]) + [min(good[0])], list(good[1])]
    ok, detail = verify_packing(g, repeated, 2)
    assert not ok and "repeats" in detail
    short = [list(good[0])[:-1], list(good[1])]
    ok, detail = verify_packing(g, short, 2)
    assert not ok and "edges" in detail
    loopy = MultiGraph(2, ((0, 1), (1, 1)))
    ok, detail = verify_packing(loopy, [[1]], 1)
    assert not ok and "loop" in detail
    split = MultiGraph(4, ((0, 1), (2, 3), (0, 1)))
    ok, detail = verify_packing(split, [[0, 1, 2]], 1)
    assert not ok and "connected" in detail
    for e in (g.m, -1):
        assert verify_packing(g, [[0, 1, e]], 1) == (False, f"tree 0 uses unknown edge id {e}")


def test_verify_packing_names_a_shared_edge_before_a_loop():
    # Edges 1 and 3 are loops; the share check comes first, then the first loop.
    g = MultiGraph(3, ((0, 1), (1, 1), (1, 2), (2, 2)))
    assert verify_packing(g, [[0, 2], [3, 1, 0]], 2) == (False, "trees 0 and 1 share edge 0")
    assert verify_packing(g, [[3, 1]], 1) == (False, "tree 0 contains loop edge 3")


@pytest.mark.parametrize("e", [True, 1.0, False, 0.0, [0], {}], ids=repr)
def test_verify_packing_rejects_an_edge_id_that_is_not_an_int(e):
    # On the triangle a bool id once passed as edge 1, and a float one raised
    # TypeError; an unhashable one did too, in the repeat check.
    g = MultiGraph(3, ((0, 1), (1, 2), (0, 2)))
    other = 2 if e else 1
    assert verify_packing(g, [[e, other]], 1) == (False, f"tree 0 uses unknown edge id {e}")


# verify_certificate --------------------------------------------------------------

def test_verify_certificate_tree_singletons():
    g = path_graph(5)
    ok, detail = verify_certificate(g, Partition.singletons(5), 2)
    assert ok, detail


def test_verify_certificate_rejects_all_partitions_on_k4():
    g = complete_graph(4)
    for labels in restricted_growth_strings(4):
        assert verify_certificate(g, Partition.from_class_map(labels), 2)[0] is False


def test_verify_certificate_trivial_partition_never_works():
    g = random_multigraph(8)
    assert verify_certificate(g, Partition.trivial(g.n), 3)[0] is False


def test_verify_certificate_requires_matching_ground_set():
    with pytest.raises(ValueError):
        verify_certificate(path_graph(3), Partition.trivial(4), 1)


# doubly-independent existence check ----------------------------------------------

def test_exhaustive_search_agrees_with_density_condition():
    checked = 0
    for seed in range(120):
        g = random_multigraph(seed, max_n=4, max_m=8)
        if g.n > 4 or g.m > 8:
            continue
        for k in (1, 2):
            expected = density_margin(g, k).margin >= 0
            assert exists_packing_exhaustive(g, k) == expected
            checked += 1
    assert checked >= 40


@pytest.mark.parametrize("k", [True, False, 1.0, 1.5, -1, "1"], ids=repr)
def test_checkers_take_k_by_packs_rule(k):
    # On the triangle, True and 1.0 once verified one tree, and 1.5 asked
    # for fewer than 3.0 crossing edges and scaled the margin.
    g = cycle_graph(3)
    checks = [
        lambda: verify_packing(g, [[0, 1]], k),
        lambda: verify_certificate(g, Partition.singletons(3), k),
        lambda: density_margin(g, k),
        lambda: pack(g, k),
    ]
    message = f"k must be >= 0, not {k}" if k == -1 else f"k must be an int, not {k!r}"
    for check in checks:
        with pytest.raises(ValueError) as raised:
            check()
        assert str(raised.value) == message


def test_exhaustive_search_guards_its_size():
    with pytest.raises(ValueError):
        exists_packing_exhaustive(complete_graph(6), 3)


def test_exhaustive_search_on_k_zero_and_below():
    assert exists_packing_exhaustive(MultiGraph(3, ()), 0) is True  # vacuous, though disconnected
