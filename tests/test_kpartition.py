from __future__ import annotations

import pytest

from treepack import (
    INFINITE_LEVEL,
    KPartition,
    MultiGraph,
    Partition,
    build_sequence,
    edge_levels,
    precedes,
)
from treepack.generate import SplitMix64

from graphs import (
    broken_tree_coloring,
    planted_coloring,
    random_coloring,
    random_multigraph,
    two_step_sequence_instance,
    two_tree_cycle_with_chords,
)


# An independent, straight-from-definition evaluator of the sequence,
# using per-class breadth-first search instead of union-find.

def _connected_within(g: MultiGraph, edge_ids: list[int], members: tuple[int, ...]) -> bool:
    inside = set(members)
    adjacency: dict[int, list[int]] = {v: [] for v in inside}
    for e in edge_ids:
        u, v = g.edges[e]
        if u in inside and v in inside:
            adjacency[u].append(v)
            adjacency[v].append(u)
    queue = [members[0]]
    seen = {members[0]}
    while queue:
        x = queue.pop()
        for w in adjacency[x]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return seen == inside


def _split_class(g: MultiGraph, edge_ids: list[int], members: tuple[int, ...]) -> list[list[int]]:
    inside = set(members)
    adjacency: dict[int, list[int]] = {v: [] for v in inside}
    for e in edge_ids:
        u, v = g.edges[e]
        if u in inside and v in inside:
            adjacency[u].append(v)
            adjacency[v].append(u)
    parts = []
    left = set(inside)
    while left:
        start = min(left)
        queue = [start]
        seen = {start}
        while queue:
            x = queue.pop()
            for w in adjacency[x]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        parts.append(sorted(seen))
        left -= seen
    return parts


def naive_sequence(g: MultiGraph, t: KPartition) -> tuple[list[Partition], list[int]]:
    """Definition re-read: least disconnected color, split every class."""
    partitions = [Partition.trivial(g.n)]
    splitters: list[int] = []
    while True:
        current = partitions[-1]
        chosen = None
        for color in range(1, t.k + 1):
            ids = [e for e in range(g.m) if t.color_of[e] == color]
            if any(not _connected_within(g, ids, cls) for cls in current.classes):
                chosen = color
                break
        if chosen is None:
            return partitions, splitters
        ids = [e for e in range(g.m) if t.color_of[e] == chosen]
        classes: list[list[int]] = []
        for cls in current.classes:
            classes.extend(_split_class(g, ids, cls))
        partitions.append(Partition.from_classes(classes, g.n))
        splitters.append(chosen)


def naive_level(g: MultiGraph, partitions: list[Partition], e: int):
    """Largest index whose partition keeps the endpoints together."""
    u, v = g.edges[e]
    if partitions[-1].class_of[u] == partitions[-1].class_of[v]:
        return INFINITE_LEVEL
    best = 0
    for i, p in enumerate(partitions):
        if p.class_of[u] == p.class_of[v]:
            best = i
    return best


def differential_cases(seeds: range, offset: int):
    """Colorings to hold the builder against the definitions above.

    Per seed: a uniform random coloring (k 1-3), a planted one (greedy
    spanning forests as colors 1..k-1, k 1-4, up to two recolorings) and,
    where one exists, a planted one whose color 1 has ``n - 1`` edges and a
    cycle. Loops and parallel edges occur throughout.
    """
    for seed in seeds:
        g = random_multigraph(seed)
        if g.m:
            yield "random", g, random_coloring(seed + offset, g, 1 + seed % 3)
        dense = random_multigraph(seed, max_n=9, max_m=24)
        k = 1 + seed % 4
        yield "planted", dense, planted_coloring(seed + offset, dense, k)
        broken = broken_tree_coloring(seed + offset, dense, max(2, k))
        if broken is not None:
            yield "broken tree", dense, broken


# KPartition basics -----------------------------------------------------------

def test_kpartition_validates_colors():
    with pytest.raises(ValueError):
        KPartition(2, (1, 3))
    with pytest.raises(ValueError):
        KPartition(0, ())
    # k must be exactly an int, checked before the colors.
    for k in (2.5, 2.0, True):
        with pytest.raises(ValueError, match=f"k must be an int, not {k!r}"):
            KPartition(k, (1,))
    # A color between two valid ones is still not a color.
    with pytest.raises(ValueError, match="edge 0 has color 1.5, not in 1..2"):
        KPartition(2, (1.5, 2))
    with pytest.raises(ValueError, match="edge 0 has color 1.5, not in 1..2"):
        KPartition(2, (1, 2)).recolor({0: 1.5})
    with pytest.raises(ValueError, match="edge 2 has color 0, not in 1..2"):
        KPartition(2, (1, 2, 0, 3))
    # A float or bool equal to a valid color is not a color either.
    with pytest.raises(ValueError, match="edge 1 has color 2.0, not in 1..2"):
        KPartition(2, (1, 2.0))
    with pytest.raises(ValueError, match="edge 0 has color True, not in 1..2"):
        KPartition(2, (True, 2))
    with pytest.raises(ValueError, match="edge 0 has color 2.0, not in 1..2"):
        KPartition(2, (1, 2)).recolor({0: 2.0})
    with pytest.raises(ValueError, match="edge 0 has color True, not in 1..2"):
        KPartition(2, (2, 2)).recolor({0: True})
    # An unhashable color is named the same way on both paths.
    with pytest.raises(ValueError, match=r"edge 0 has color \[1\], not in 1..2"):
        KPartition(2, ([1], 2))
    with pytest.raises(ValueError, match=r"edge 0 has color \[1\], not in 1..2"):
        KPartition(2, (1, 2)).recolor({0: [1]})
    with pytest.raises(ValueError):
        KPartition.from_edge_sets(2, [[0], [0]], 1)
    with pytest.raises(ValueError):
        KPartition.from_edge_sets(2, [[0], []], 2)


def test_edges_of_color_and_recolor():
    t = KPartition(3, (1, 2, 1, 3))
    assert t.edges_of_color(1) == (0, 2)
    u = t.recolor({0: 3})
    assert u.edges_of_color(3) == (0, 3)
    assert t.edges_of_color(3) == (3,)  # original untouched


@pytest.mark.parametrize("color", [True, 1.0], ids=repr)
def test_edges_of_color_takes_an_exact_int(color):
    # True once returned color 1's edges, and 1.0 raised a bare TypeError.
    with pytest.raises(ValueError, match=f"^color must be an int, not {color!r}$"):
        KPartition(2, (1, 2, 1)).edges_of_color(color)


def test_recolor_carries_the_edge_lists_of_a_fresh_coloring():
    # Changes are random and may keep an edge's color; a coloring lists its
    # edges when it is constructed, and recolor carries the lists over.
    for seed in range(300):
        rng = SplitMix64(seed)
        m, k = 1 + rng.below(20), 1 + rng.below(4)
        t = KPartition(k, tuple(1 + rng.below(k) for _ in range(m)))
        if seed % 3:
            t.edges_of_color(1)  # reading the lists leaves them as built
        changes = {rng.below(m): 1 + rng.below(k) for _ in range(rng.below(4))}
        changes[0] = t.color_of[0]
        after = t.recolor(changes)
        assert "_edges_by_color" in vars(t) and "_edges_by_color" in vars(after)
        # recolor builds its child without the constructor's full scan.
        fresh = KPartition(k, after.color_of)
        assert type(after.color_of) is tuple
        assert after == fresh and hash(after) == hash(fresh) and repr(after) == repr(fresh)
        assert [after.edges_of_color(c) for c in range(k + 2)] == [
            fresh.edges_of_color(c) for c in range(k + 2)
        ]


def test_recolor_rejects_a_bad_color_before_touching_the_lists():
    # Color 3 has no list slot, so touching the lists first would be an IndexError.
    t = KPartition(2, (1, 2, 1))
    lists = [t.edges_of_color(c) for c in (1, 2)]
    with pytest.raises(ValueError, match="not in 1..2"):
        t.recolor({0: 3})
    assert [t.edges_of_color(c) for c in (1, 2)] == lists


def test_recolor_rejects_edge_ids_outside_the_coloring():
    # -1 would index the last edge and m would be an IndexError.
    # True and 1.0 equal edge 1 but are not edge ids.
    t = KPartition(2, (1, 2, 1))
    for e in (-1, t.m, t.m + 5, True, 1.0):
        with pytest.raises(ValueError, match=f"edge id {e} out of range"):
            t.recolor({e: 2})
    assert t.color_of == (1, 2, 1)


def test_recolor_names_the_least_bad_edge():
    # Every entry is checked, whatever the dict order; the message names
    # the least bad edge id, and an id that is not an int comes first.
    t = KPartition(3, (1, 2, 3, 1, 2, 3))
    cases = [
        ({5: 0, 4: 1, 2: 9, 3: 2}, "edge 2 has color 9, not in 1..3"),
        ({4: 3, 1: 2.0, 0: 2, 3: True}, "edge 1 has color 2.0, not in 1..3"),
        ({4: 0, 6: 1, -2: 1}, "edge id -2 out of range"),
        ({0: 4, 7: 1}, "edge 0 has color 4, not in 1..3"),
        ({3: 0, "x": 1, -1: 2}, "edge id x out of range"),
        ({5: 1, 1.0: 1, 0: 7}, "edge id 1.0 out of range"),
    ]
    for changes, message in cases:
        for order in (changes, dict(reversed(changes.items()))):
            with pytest.raises(ValueError) as raised:
                t.recolor(order)
            assert str(raised.value) == message, order
    # The constructor names its least bad edge by the same rule.
    with pytest.raises(ValueError, match="^edge 1 has color 0, not in 1..3$"):
        KPartition(3, (1, 0, 4, 2.0))
    # So does from_edge_sets, each id with the color of its set: neither a
    # float nor a bool is an edge id (0.5 would fail as a list index, True
    # would pass for edge 1).
    for sets, message in [
        ([[0.5], [0, 1]], "edge id 0.5 out of range"),
        ([[True], [0]], "edge id True out of range"),
        ([[1, 4], [0, -1]], "edge id -1 out of range"),
        ([[1], [0, "x", 7]], "edge id x out of range"),
        ([[1], [0], [2, 9]], "edge 2 has color 3, not in 1..2"),
    ]:
        with pytest.raises(ValueError) as raised:
            KPartition.from_edge_sets(2, sets, 3)
        assert str(raised.value) == message, sets
    with pytest.raises(ValueError, match="^k must be an int, not 2.0$"):
        KPartition.from_edge_sets(2.0, [[0]], 1)


def test_from_edge_sets_names_a_repeat_apart_from_an_edge_in_two_colors():
    # A repeat within one set names its one color; an id in two sets names both.
    for k, sets, m, message in [
        (1, [[0, 0]], 1, "edge 0 repeated in color 1"),
        (3, [[1], [0], [2, 2]], 3, "edge 2 repeated in color 3"),
        (2, [[0], [0]], 1, "edge 0 assigned to two colors, 1 and 2"),
        (3, [[1, 0], [2], [1]], 3, "edge 1 assigned to two colors, 1 and 3"),
    ]:
        with pytest.raises(ValueError) as raised:
            KPartition.from_edge_sets(k, sets, m)
        assert str(raised.value) == message, sets


# split_off ---------------------------------------------------------------------


def test_split_off_carries_the_edge_lists_of_a_fresh_coloring():
    # A random color keeps a random subset of its ids; the rest go, in id
    # order, to the new color k + 1, and every other list is carried over.
    for seed in range(300):
        rng = SplitMix64(seed)
        m, k = 1 + rng.below(20), 1 + rng.below(4)
        t = KPartition(k, tuple(1 + rng.below(k) for _ in range(m)))
        color = 1 + rng.below(k)
        keep = frozenset(e for e in t.edges_of_color(color) if rng.below(2))
        after = t.split_off(color, keep)
        fresh = KPartition(k + 1, tuple(k + 1 if c == color and e not in keep else c
                                        for e, c in enumerate(t.color_of)))
        assert type(after.color_of) is tuple and after.k == k + 1
        assert after == fresh and hash(after) == hash(fresh) and repr(after) == repr(fresh)
        assert [after.edges_of_color(c) for c in range(k + 3)] == [
            fresh.edges_of_color(c) for c in range(k + 3)
        ]
        assert after.edges_of_color(color) == tuple(sorted(keep))


def test_split_off_lists_the_colorings_own_ids():
    # True and 2.0 equal kept ids 1 and 2; the lists hold the int ids.
    after = KPartition(2, (2, 1, 1, 1)).split_off(1, frozenset({True, 2.0}))
    assert after == KPartition(3, (2, 1, 1, 3))
    assert [type(e) for e in after.edges_of_color(1)] == [int, int]


def test_split_off_rejects_a_kept_id_outside_its_color_before_building(monkeypatch):
    built = []
    monkeypatch.setattr(KPartition, "_carried", classmethod(lambda cls, *args: built.append(args)))
    t = KPartition(2, (1, 2, 1, 2))
    for keep in ({1}, {0, 1}, {0, 4}, {-1}, {0, 2, 3}):
        with pytest.raises(ValueError, match="^kept ids are not all edges of color 1$"):
            t.split_off(1, frozenset(keep))
    for color, message in [
        (True, "color must be an int, not True"),
        (1.0, "color must be an int, not 1.0"),
        (0, "color must be in 1..2, not 0"),
        (3, "color must be in 1..2, not 3"),
    ]:
        with pytest.raises(ValueError) as raised:
            t.split_off(color, frozenset())
        assert str(raised.value) == message
    assert built == []


@pytest.mark.parametrize("m", [1.0, True, "1", -1], ids=repr)
def test_from_edge_sets_takes_the_edge_count_as_an_exact_int(m):
    # True once built a one-edge coloring, and 1.0 raised a bare TypeError.
    message = "edge count must be >= 0, not -1" if m == -1 else f"edge count must be an int, not {m!r}"
    with pytest.raises(ValueError) as raised:
        KPartition.from_edge_sets(1, [[0]], m)
    assert str(raised.value) == message


# build_sequence ---------------------------------------------------------------

def test_sequence_terminates_immediately_when_all_colors_connected():
    g, t = two_tree_cycle_with_chords()
    seq = build_sequence(g, t)
    assert seq.steps == ()
    assert seq.terminal == Partition.trivial(g.n)
    assert seq.splitter_at(0) == t.k + 1  # the k+1 sentinel right away


def test_sequence_single_color_disconnected_graph():
    g = MultiGraph(4, ((0, 1), (2, 3)))
    t = KPartition(1, (1, 1))
    seq = build_sequence(g, t)
    assert len(seq.steps) == 1
    assert seq.steps[0].partition == Partition.trivial(4)
    assert seq.steps[0].splitter == 1
    assert seq.terminal == Partition.from_classes([[0, 1], [2, 3]])


def test_two_step_sequence_shape():
    g, t = two_step_sequence_instance()
    seq = build_sequence(g, t)
    assert [step.splitter for step in seq.steps] == [2, 1]
    assert seq.steps[0].partition == Partition.trivial(8)
    assert seq.steps[1].partition == Partition.from_classes(
        [[0, 1, 2, 3], [4, 5, 6, 7]]
    )
    assert seq.terminal == Partition.from_classes([[0, 1, 2, 3], [4], [5], [6], [7]])
    # agrees with the straight-from-definition evaluator
    partitions, splitters = naive_sequence(g, t)
    assert splitters == [2, 1]
    assert partitions[-1] == seq.terminal


def test_a_read_step_shares_the_stored_label_tuple():
    # Steps and terminal are built on first read, as validated partitions
    # over the very label tuples the builder stored.
    g, t = two_step_sequence_instance()
    seq = build_sequence(g, t)
    assert seq.splitters == (2, 1) and seq.counts == (1, 2, 5)
    parts = [step.partition for step in seq.steps] + [seq.terminal]
    assert all(p.class_of is labels for p, labels in zip(parts, seq.labels, strict=True))
    assert [p.num_classes for p in parts] == list(seq.counts)


def test_sequence_matches_naive_evaluator_on_random_colorings():
    kinds = {"random": 0, "planted": 0, "broken tree": 0}
    for kind, g, t in differential_cases(range(500), 500):
        seq = build_sequence(g, t)
        partitions, splitters = naive_sequence(g, t)
        assert [s.partition for s in seq.steps] == partitions[:-1], (kind, g, t)
        assert [s.splitter for s in seq.steps] == splitters, (kind, g, t)
        assert seq.terminal == partitions[-1]
        kinds[kind] += 1
    assert min(kinds.values()) >= 150, kinds


def _forest_colors(g: MultiGraph, t: KPartition) -> set[int]:
    """Colors whose edges, loops counted, leave exactly ``n - |E|`` components."""
    everything = tuple(range(g.n))
    return {
        c
        for c in range(1, t.k + 1)
        if len(_split_class(g, t.edges_of_color(c), everything)) == g.n - len(t.edges_of_color(c))
    }


def test_sequence_with_forest_flags_equals_the_tested_sequence():
    # Any set of true forests, the packer's "colors 1..k-1" included when
    # they all are, gives the same steps, terminal and levels.
    # A forest holds no loop, so the builder filters loops only from the
    # other colors; the cases with a loop there keep that filter tested.
    stage_flags = loops_outside_forests = 0
    for kind, g, t in differential_cases(range(400), 77):
        expected = build_sequence(g, t)
        forests = _forest_colors(g, t)
        loops_outside_forests += any(
            g.is_loop(e) and t.color_of[e] not in forests for e in range(g.m)
        )
        flag_sets = [set(), forests]
        if forests >= set(range(1, t.k)):
            flag_sets.append(range(1, t.k))
            stage_flags += 1
        for flags in flag_sets:
            assert build_sequence(g, t, forests=flags) == expected, (kind, g, t, flags)
    assert stage_flags >= 300, stage_flags
    assert loops_outside_forests >= 600, loops_outside_forests


def test_sequence_strictly_descends_and_splitters_are_minimal():
    for seed in range(60):
        g = random_multigraph(seed)
        if g.m == 0:
            continue
        t = random_coloring(seed + 900, g, 1 + seed % 3)
        seq = build_sequence(g, t)
        assert len(seq.steps) <= max(0, g.n - 1)
        chain = [s.partition for s in seq.steps] + [seq.terminal]
        for earlier, later in zip(chain, chain[1:]):
            assert later.strictly_refines(earlier)
        for step in seq.steps:
            for color in range(1, step.splitter):
                ids = [e for e in range(g.m) if t.color_of[e] == color]
                assert all(
                    _connected_within(g, ids, cls) for cls in step.partition.classes
                )


# edge_levels -------------------------------------------------------------------

def test_loop_has_infinite_level():
    g = MultiGraph(2, ((0, 1), (1, 1)))
    t = KPartition(1, (1, 1))
    seq = build_sequence(g, t)
    levels = edge_levels(g, t, seq)
    assert levels[1] == INFINITE_LEVEL


def test_edge_separated_at_first_split_has_level_zero():
    g = MultiGraph(4, ((0, 1), (2, 3), (1, 2)))
    t = KPartition.from_edge_sets(2, [[0, 1], [2]], 3)
    seq = build_sequence(g, t)
    levels = edge_levels(g, t, seq)
    assert levels[2] == 0  # (1,2) crosses the components of color 1


def test_levels_match_definitional_scan():
    # The coloring's cached edge lists, which the packer reads with the
    # levels, are checked too, colors 0 and k + 1 included.
    for kind, g, t in differential_cases(range(500), 123):
        seq = build_sequence(g, t)
        levels = edge_levels(g, t, seq)
        partitions = [s.partition for s in seq.steps] + [seq.terminal]
        expected = [naive_level(g, partitions, e) for e in range(g.m)]
        assert list(levels) == expected, (kind, g, t)
        for c in range(t.k + 2):
            scan = tuple(e for e in range(g.m) if t.color_of[e] == c)
            assert t.edges_of_color(c) == scan, (kind, g, t, c)


def test_build_sequence_rejects_a_coloring_of_another_edge_count():
    g = MultiGraph(3, ((0, 1), (1, 2)))
    for t in (KPartition(1, (1,)), KPartition(1, (1, 1, 1))):
        with pytest.raises(ValueError, match="does not match the graph's edge count"):
            build_sequence(g, t)


def test_edge_levels_rejects_a_sequence_of_another_graph():
    g = MultiGraph(3, ((0, 1), (1, 2)))
    t = KPartition(1, (1, 1))
    more_edges = MultiGraph(3, ((0, 1), (1, 2), (0, 2)))
    more_vertices = MultiGraph(4, ((0, 1), (2, 3)))
    for other in (more_edges, more_vertices):
        seq = build_sequence(other, KPartition(1, (1,) * other.m))
        with pytest.raises(ValueError):
            edge_levels(g, t, seq)


def test_level_terminal_consistency():
    for seed in range(40):
        g = random_multigraph(seed)
        if g.m == 0:
            continue
        t = random_coloring(seed + 321, g, 1 + seed % 3)
        seq = build_sequence(g, t)
        levels = edge_levels(g, t, seq)
        for e, (u, v) in enumerate(g.edges):
            together = seq.terminal.class_of[u] == seq.terminal.class_of[v]
            assert (levels[e] == INFINITE_LEVEL) == together


# precedes ----------------------------------------------------------------------

def test_precedes_is_irreflexive():
    g = random_multigraph(3)
    t = random_coloring(77, g, 2)
    assert not precedes(t, t, g)


def test_precedes_on_strictly_finer_first_partition():
    g = MultiGraph(4, ((0, 1), (2, 3), (0, 1), (2, 3)))
    finer = KPartition.from_edge_sets(2, [[0], [1, 2, 3]], 4)
    coarser = KPartition.from_edge_sets(2, [[0, 1], [2, 3]], 4)
    assert precedes(finer, coarser, g)
    assert not precedes(coarser, finer, g)


def test_precedes_checks_compatibility():
    g = MultiGraph(2, ((0, 1),))
    with pytest.raises(ValueError):
        precedes(KPartition(1, (1,)), KPartition(2, (1,)), g)
    with pytest.raises(ValueError):
        precedes(KPartition(1, (1,)), KPartition(1, (1, 1)), g)


def test_precedes_is_antisymmetric_on_random_pairs():
    for seed in range(50):
        g = random_multigraph(seed)
        if g.m == 0:
            continue
        k = 1 + seed % 3
        a = random_coloring(seed + 1, g, k)
        b = random_coloring(seed + 2, g, k)
        assert not (precedes(a, b, g) and precedes(b, a, g))
