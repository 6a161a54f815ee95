from __future__ import annotations

import re

import pytest

from treepack import (
    MultiGraph,
    NoCycleError,
    Partition,
    components,
    cycle_edges,
    fundamental_cycle,
    greedy_spanning_tree,
    quotient,
    restrict_components,
)
from treepack.generate import SplitMix64

from graphs import (
    FAMILIES,
    _shuffle,
    family_pass,
    path_graph,
    random_multigraph,
    random_partition_labels,
    star_graph,
)
from references import cycle_edges_by_low_points


def test_construction_allows_loops_and_parallels():
    g = MultiGraph(2, ((0, 1), (0, 1), (1, 1)))
    assert g.m == 3
    assert g.is_loop(2) and not g.is_loop(0)


def test_construction_rejects_bad_endpoints():
    with pytest.raises(ValueError):
        MultiGraph(2, ((0, 2),))
    with pytest.raises(ValueError):
        MultiGraph(1, ((-1, 0),))
    with pytest.raises(ValueError, match="^vertex count must be >= 0, not -1$"):
        MultiGraph(-1, ())


@pytest.mark.parametrize("n", [2.5, 3.0, True])
def test_construction_rejects_a_vertex_count_that_is_not_an_int(n):
    with pytest.raises(ValueError, match=f"^vertex count must be an int, not {n!r}$"):
        MultiGraph(n, ())


@pytest.mark.parametrize(
    "edges, message",
    [
        # A float endpoint once failed in pack with a bare TypeError, and a
        # bool one packed as vertex 1.
        (((0, 1.0), (1, 2)), "edge 0 endpoint out of range: (0, 1.0)"),
        (((0, True), (1, 2)), "edge 0 endpoint out of range: (0, True)"),
        (((1, 2), (False, 2)), "edge 1 endpoint out of range: (False, 2)"),
    ],
)
def test_construction_rejects_an_endpoint_that_is_not_an_int(edges, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        MultiGraph(3, edges)


@pytest.mark.parametrize("edges", [(5,), ((0, 1), None), 5], ids=repr)
def test_construction_rejects_an_edge_that_is_not_a_pair(edges):
    # (5,) once raised a bare TypeError.
    with pytest.raises(ValueError, match="^edges must be an iterable of endpoint pairs$"):
        MultiGraph(2, edges)


@pytest.mark.parametrize("pair", [(0, 1, 2), (0,)], ids=repr)
def test_construction_names_an_edge_of_the_wrong_length(pair):
    # Each once raised "too many" or "not enough values to unpack".
    for edges, eid in (((pair,), 0), (((0, 1), pair, (1, 2)), 1)):
        message = f"^edge {eid} is not an endpoint pair: {re.escape(repr(pair))}$"
        with pytest.raises(ValueError, match=message):
            MultiGraph(3, edges)


# quotient ------------------------------------------------------------------

def test_quotient_triangle_two_classes():
    g = MultiGraph(3, ((0, 1), (0, 2), (1, 2)))
    q = quotient(g, Partition.from_classes([[0, 1], [2]]))
    assert q.n == 2
    assert q.edges == ((0, 1), (0, 1))  # only (0,2) and (1,2) cross


def test_quotient_trivial_partition_drops_everything():
    g = random_multigraph(11)
    q = quotient(g, Partition.trivial(g.n))
    assert q.n == 1 and q.m == 0


def test_quotient_singletons_keeps_all_but_loops():
    g = MultiGraph(3, ((0, 1), (1, 1), (1, 2), (2, 2)))
    q = quotient(g, Partition.singletons(g.n))
    assert q.n == 3
    assert q.edges == ((0, 1), (1, 2))


def test_quotient_requires_matching_partition():
    with pytest.raises(ValueError):
        quotient(MultiGraph(3, ()), Partition.trivial(2))


def test_quotient_edge_count_matches_crossing_count():
    for seed in range(40):
        g = random_multigraph(seed)
        p = Partition.from_class_map(random_partition_labels(seed + 1000, g.n))
        crossing = sum(1 for u, v in g.edges if p.class_of[u] != p.class_of[v])
        assert quotient(g, p).m == crossing
        loops = sum(1 for e in range(g.m) if g.is_loop(e))
        assert quotient(g, Partition.singletons(g.n)).m == g.m - loops


# components ----------------------------------------------------------------

def test_components_path_is_one_class():
    g = path_graph(3)
    assert components(g, range(g.m)) == Partition.trivial(3)


def test_components_empty_edge_set_is_singletons():
    g = random_multigraph(5)
    assert components(g, ()) == Partition.singletons(g.n)


def test_components_two_pairs():
    g = MultiGraph(4, ((0, 1), (2, 3)))
    assert components(g, (0, 1)) == Partition.from_classes([[0, 1], [2, 3]])


def test_components_rejects_bad_edge_ids():
    with pytest.raises(ValueError):
        components(MultiGraph(2, ((0, 1),)), (1,))


@pytest.mark.parametrize("bad", [True, False, 1.0, 0.5, "1", None])
def test_edge_ids_must_be_exact_ints(bad):
    # An edge id is exactly an int, as in KPartition: True was taken as
    # edge 1 (fundamental_cycle(g, [0, 2], True) returned (0, 2, True)),
    # and a float or a string raised TypeError.
    g = MultiGraph(3, ((0, 1), (1, 2), (0, 2)))
    calls = [
        lambda: components(g, [bad]),
        lambda: restrict_components(g, [bad], Partition.trivial(3)),
        lambda: greedy_spanning_tree(g, [bad, 0]),
        lambda: cycle_edges(g, [bad, 0, 2]),
        lambda: fundamental_cycle(g, [bad, 0], 2),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="^edge id out of range$"):
            call()
    with pytest.raises(ValueError, match=f"^edge id must be an int, not {re.escape(repr(bad))}$"):
        fundamental_cycle(g, [0, 2], bad)


# restrict_components --------------------------------------------------------

def test_restrict_components_rejects_a_partition_of_another_size():
    g = MultiGraph(3, ((0, 1), (1, 2)))
    for p in (Partition.trivial(2), Partition.singletons(4)):
        with pytest.raises(ValueError, match="partition does not match"):
            restrict_components(g, (0, 1), p)


def test_restrict_spanning_inside_every_class_is_identity():
    g = MultiGraph(4, ((0, 1), (2, 3)))
    p = Partition.from_classes([[0, 1], [2, 3]])
    assert restrict_components(g, (0, 1), p) == p


def test_restrict_empty_edges_gives_singletons():
    g = random_multigraph(9)
    p = Partition.trivial(g.n)
    assert restrict_components(g, (), p) == Partition.singletons(g.n)


def test_restrict_four_cycle_split():
    g = MultiGraph(4, ((0, 1), (1, 2), (2, 3), (3, 0)))
    p = Partition.trivial(4)
    got = restrict_components(g, (0, 2), p)  # edges (0,1) and (2,3)
    assert got == Partition.from_classes([[0, 1], [2, 3]])


def test_restrict_refines_and_matches_components_on_trivial():
    for seed in range(40):
        g = random_multigraph(seed)
        edge_ids = [e for e in range(g.m) if e % 2 == seed % 2]
        own = components(g, edge_ids)
        # Random classes usually split; the singletons, the edge set's own
        # components and anything they refine never do.
        for p in (
            Partition.from_class_map(random_partition_labels(seed + 7, g.n)),
            Partition.singletons(g.n),
            own,
            Partition.from_class_map([own.class_of[v] * 2 + v % 2 for v in range(g.n)]),
            components(g, range(g.m)),
            Partition.trivial(g.n),
        ):
            got = restrict_components(g, edge_ids, p)
            assert got.refines(p)
            assert (got is p) == (got == p)
        trivial = Partition.trivial(g.n)
        assert restrict_components(g, edge_ids, trivial) == components(g, edge_ids)
    # A connected edge set splits nothing; a path missing one edge splits in two.
    g = path_graph(5)
    trivial = Partition.trivial(g.n)
    assert restrict_components(g, range(g.m), trivial) is trivial
    split = restrict_components(g, range(1, g.m), trivial)
    assert split is not trivial and split.num_classes == 2


# cycle_edges ----------------------------------------------------------------

def test_forest_has_no_cycle_edges():
    g = path_graph(5)
    assert cycle_edges(g, range(g.m)) == frozenset()


def test_triangle_is_all_cycle_edges():
    g = MultiGraph(3, ((0, 1), (0, 2), (1, 2)))
    assert cycle_edges(g, range(3)) == frozenset({0, 1, 2})


def test_loop_is_a_cycle_edge():
    g = MultiGraph(2, ((0, 1), (1, 1)))
    assert cycle_edges(g, (0, 1)) == frozenset({1})


def test_parallel_pair_is_two_cycle_edges():
    g = MultiGraph(2, ((0, 1), (0, 1)))
    assert cycle_edges(g, (0, 1)) == frozenset({0, 1})


def _cycle_edges_by_removal(g: MultiGraph, edge_ids: list[int]) -> frozenset[int]:
    # an edge lies on a cycle iff removing it leaves the components unchanged
    base = components(g, edge_ids)
    out = set()
    for e in edge_ids:
        if g.is_loop(e):
            out.add(e)
        elif components(g, [x for x in edge_ids if x != e]) == base:
            out.add(e)
    return frozenset(out)


def test_cycle_edges_against_removal_oracle():
    for seed in range(1200):
        g = random_multigraph(seed, max_n=10, max_m=24)
        ids = [e for e in range(g.m) if (seed + e) % 3 != 0]
        assert cycle_edges(g, ids) == _cycle_edges_by_removal(g, ids)


def _tree_like(seed: int) -> tuple[MultiGraph, list[int]]:
    """A random spanning tree on up to 150 vertices plus 0-8 extra edges
    (loops, parallels, chords), ids shuffled, with some ids repeated."""
    rng = SplitMix64(seed)
    n = 1 + rng.below(150)
    edges = [(rng.below(v), v) for v in range(1, n)]
    for _ in range(rng.below(9)):
        kind = rng.below(3)
        if kind == 0:
            v = rng.below(n)
            edges.append((v, v))
        elif kind == 1 and edges:
            edges.append(edges[rng.below(len(edges))][::-1])
        else:
            edges.append((rng.below(n), rng.below(n)))
    _shuffle(rng, edges)
    ids = list(range(len(edges)))
    ids += [ids[rng.below(len(ids))] for _ in range(rng.below(4) if ids else 0)]
    _shuffle(rng, ids)
    return MultiGraph(n, tuple(edges)), ids


def test_repeated_id_counts_once():
    g = MultiGraph(3, ((0, 1), (1, 2), (0, 1)))
    assert cycle_edges(g, [0, 0, 1]) == frozenset()
    assert cycle_edges(g, [2, 0, 0]) == frozenset({0, 2})


def test_cycle_edges_against_low_points_on_tree_like_multigraphs():
    for seed in range(400):
        g, ids = _tree_like(seed)
        assert cycle_edges(g, ids) == cycle_edges_by_low_points(g, ids), seed


@pytest.mark.parametrize("family", FAMILIES)
def test_cycle_edges_against_low_points_on_every_pack_remainder(family):
    # graphs.WhiteBoxPass compares every cycle_edges call of a stage.
    found = family_pass(family)
    assert found.calls["cycle_edges"] == found.exchanges >= 1
    assert found.failures("low_points") == []


# fundamental_cycle -----------------------------------------------------------

def test_fundamental_cycle_on_path_closure():
    g = MultiGraph(3, ((0, 1), (1, 2), (0, 2)))
    assert fundamental_cycle(g, (0, 1), 2) == (0, 1, 2)


def test_fundamental_cycle_on_star():
    g = star_graph(4)
    chord = MultiGraph(4, g.edges + ((1, 2),))
    cycle = fundamental_cycle(chord, range(3), 3)
    assert set(cycle) == {0, 1, 3}
    assert cycle[-1] == 3


def test_fundamental_cycle_with_parallel_tree_edge():
    g = MultiGraph(2, ((0, 1), (0, 1)))
    assert fundamental_cycle(g, (0,), 1) == (0, 1)


def test_fundamental_cycle_errors():
    g = MultiGraph(4, ((0, 1), (2, 3), (0, 2), (1, 1)))
    with pytest.raises(NoCycleError):
        fundamental_cycle(g, (0, 1), 2)  # endpoints in different tree components
    with pytest.raises(ValueError):
        fundamental_cycle(g, (0, 2), 0)  # e already a tree edge
    with pytest.raises(ValueError):
        fundamental_cycle(g, (0,), 3)  # e is a loop
    for e in (-1, g.m):
        with pytest.raises(ValueError, match=f"^edge id must be in 0..3, not {e}$"):
            fundamental_cycle(g, (0, 1), e)
    with pytest.raises(ValueError, match="^edge id cannot be 0: no value is valid$"):
        fundamental_cycle(MultiGraph(2, ()), [], 0)  # an edgeless graph has no edge id


def test_fundamental_cycle_rejects_tree_ids_that_hold_a_cycle_or_e():
    # On the triangle, ids that hold e once gave (0, 2, 1). Edge 3 is (2, 3)
    # and edge 4 a loop; a repeated id counts once.
    g = MultiGraph(4, ((0, 1), (1, 2), (0, 2), (2, 3), (3, 3)))
    for ids, e in (([0, 1, 2], 1), ([0, 1, 2], 3), ([0, 4], 1)):
        with pytest.raises(ValueError, match="^tree edge ids hold a cycle$"):
            fundamental_cycle(g, ids, e)
    with pytest.raises(ValueError, match="^edge already belongs to the tree edge set$"):
        fundamental_cycle(g, [0, 1], 1)
    assert fundamental_cycle(g, [0, 1, 0], 2) == (0, 1, 2)


def test_fundamental_cycle_is_a_closed_degree_two_walk():
    from treepack import greedy_spanning_tree

    for seed in range(40):
        g = random_multigraph(seed, max_n=6, max_m=12)
        if components(g, range(g.m)).num_classes > 1:
            continue
        tree = greedy_spanning_tree(g, range(g.m))
        non_tree = [
            e for e in range(g.m) if e not in tree and not g.is_loop(e)
        ]
        for e in non_tree:
            cycle = fundamental_cycle(g, tree, e)
            degree: dict[int, int] = {}
            for eid in cycle:
                for v in g.edges[eid]:
                    degree[v] = degree.get(v, 0) + 1
            assert all(d == 2 for d in degree.values())
            assert len(set(cycle)) == len(cycle)


def _fundamental_cycle_by_dict_bfs(g: MultiGraph, tree_ids: list[int], e: int) -> tuple[int, ...]:
    # The BFS fundamental_cycle ran with dict parents, checking for v only
    # between the vertices it expands.
    u, v = g.edges[e]
    adjacency: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
    for eid in sorted(tree_ids):
        a, b = g.edges[eid]
        adjacency[a].append((b, eid))
        adjacency[b].append((a, eid))
    parent_edge = {u: (-1, -1)}
    queue, head = [u], 0
    while head < len(queue) and v not in parent_edge:
        x = queue[head]
        head += 1
        for w, eid in adjacency[x]:
            if w not in parent_edge:
                parent_edge[w] = (x, eid)
                queue.append(w)
    path, x = [], v
    while x != u:
        x, eid = parent_edge[x]
        path.append(eid)
    return tuple(reversed(path)) + (e,)


def test_fundamental_cycle_against_dict_bfs_on_random_trees():
    for seed in range(300):
        rng = SplitMix64(seed)
        n = 2 + rng.below(40)
        tree = [(rng.below(v), v) for v in range(1, n)]
        # parallels of tree edges, chords and loops, then ids in any order
        extra = [tree[rng.below(len(tree))] for _ in range(rng.below(4))]
        extra += [(rng.below(n), rng.below(n)) for _ in range(rng.below(6))]
        edges = tree + extra
        position = list(range(len(edges)))  # edges[i] gets id position[i]
        _shuffle(rng, position)
        g = MultiGraph(n, tuple(edges[position.index(i)] for i in range(len(edges))))
        tree_ids = position[: n - 1]
        _shuffle(rng, tree_ids)
        for e in range(g.m):
            if e not in tree_ids and not g.is_loop(e):
                expected = _fundamental_cycle_by_dict_bfs(g, tree_ids, e)
                assert fundamental_cycle(g, tree_ids, e) == expected, (seed, e)
