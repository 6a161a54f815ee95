from __future__ import annotations

import inspect
import re
from collections import Counter
from dataclasses import replace

import pytest

import treepack.kpartition
import treepack.packer
from treepack import (
    INFINITE_LEVEL,
    ExchangeEvent,
    InternalInvariantError,
    KPartition,
    MultiGraph,
    Partition,
    StageOutcome,
    build_sequence,
    components,
    density_check,
    density_margin,
    exchange_step,
    greedy_spanning_tree,
    pack,
    precedes,
    run_stage,
    stp_number,
    verify_certificate,
    verify_packing,
)

from graphs import (
    FAMILIES,
    ExchangeLog,
    bowtie,
    complete_graph,
    cycle_graph,
    doubled_triangle,
    early_improvement_graph,
    exchange_violations,
    family_pass,
    is_spanning_tree,
    parallel_pair_instance,
    path_graph,
    planted_coloring,
    random_coloring,
    random_multigraph,
    random_stage_pass,
    stage_cap,
    star_graph,
    two_step_exchange_instance,
    union_of_spanning_trees,
)
from treepack.generate import SplitMix64


# density_check ----------------------------------------------------------------

def test_density_check_certifies_simple_tree_for_two():
    g = path_graph(5)
    t = KPartition.from_edge_sets(2, [range(g.m), []], g.m)
    seq = build_sequence(g, t)
    assert density_check(g, t, seq) == Partition.singletons(5)


def test_density_check_certifies_disconnected_for_one():
    g = MultiGraph(5, ((0, 1), (1, 2), (3, 4)))
    t = KPartition(1, (1, 1, 1))
    seq = build_sequence(g, t)
    assert density_check(g, t, seq) == components(g, range(g.m))


def test_density_check_on_bowtie_matches_exhaustive_minimum():
    g = bowtie()
    result = pack(g, 2)
    assert result.verdict == "certificate"
    certificate = result.certificate
    assert certificate == Partition.singletons(5)
    # 6 crossing edges against a bound of 2 * 4 = 8
    ok, detail = verify_certificate(g, certificate, 2)
    assert ok, detail
    report = density_margin(g, 2)
    assert report.margin == 6 - 8
    assert report.witness == certificate


def test_density_check_proceeds_when_threshold_met():
    g, t = two_step_exchange_instance()
    assert density_check(g, t, build_sequence(g, t)) is None


def test_density_check_rejects_a_sequence_of_another_graph():
    # A 6-cycle's sequence has as many levels as K4 has edges; its six
    # singletons were once returned as K4's certificate.
    g = complete_graph(4)
    star_and_triangle = KPartition.from_edge_sets(2, [[0, 1, 2], [3, 4, 5]], g.m)
    c6 = cycle_graph(6)
    seq = build_sequence(c6, KPartition.from_edge_sets(2, [range(5), [5]], c6.m))
    with pytest.raises(ValueError, match="^coloring or sequence does not match the graph$"):
        density_check(g, star_and_triangle, seq)


def test_density_check_rejects_connected_remainder():
    g, t = parallel_pair_instance()
    connected = t.recolor({1: 2})  # move a path edge over: remainder now spans
    with pytest.raises(InternalInvariantError):
        density_check(g, connected, build_sequence(g, connected))


def _density_check_raises(g: MultiGraph, t: KPartition) -> bool:
    try:
        density_check(g, t, build_sequence(g, t))
    except InternalInvariantError:
        return True
    return False


def _guards_fail(g: MultiGraph, t: KPartition) -> bool:
    trees_ok = all(is_spanning_tree(g, t.edges_of_color(c)) for c in range(1, t.k))
    return not trees_ok or components(g, t.edges_of_color(t.k)).num_classes <= 1


def test_density_check_guards_match_their_definition():
    # Raises exactly when a color 1..k-1 is not a spanning tree or the
    # remainder color is connected; loops and parallel edges included.
    outcomes = {True: 0, False: 0}
    for seed in range(1500):
        sparse, dense = random_multigraph(seed), random_multigraph(seed, max_m=20)
        for k in range(1, 5):
            for g, t in (
                (sparse, random_coloring(4 * seed + k, sparse, k)),
                (dense, planted_coloring(4 * seed + k, dense, k)),
            ):
                expected = _guards_fail(g, t)
                assert _density_check_raises(g, t) == expected, (seed, k, t)
                outcomes[expected] += 1
    assert min(outcomes.values()) > 1000, outcomes


def test_density_check_counts_crossing_edges_by_their_labels():
    # density_check counts the remainder edges of finite level; here they
    # are counted by the terminal labels of their ends, on random and
    # planted colorings and on the colorings pack exchanges from.
    outcomes = {"certificate": 0, "exchange": 0}
    for seed in range(1000):
        sparse, dense = random_multigraph(seed, max_n=8), random_multigraph(seed, max_n=8, max_m=20)
        cases = []
        for k in range(1, 5):
            cases += [(sparse, random_coloring(4 * seed + k, sparse, k))]
            cases += [(dense, planted_coloring(4 * seed + k, dense, k))]
        events: list[ExchangeEvent] = []
        for k in (2, 3, 4):
            pack(dense, k, on_exchange=events.append)
        cases += [(dense, event.before) for event in events]
        for g, t in cases:
            seq = build_sequence(g, t)
            labels = seq.terminal.class_of
            rest = t.edges_of_color(t.k)
            crossing = sum(labels[g.edges[e][0]] != labels[g.edges[e][1]] for e in rest)
            assert crossing == sum(seq.levels[e] != INFINITE_LEVEL for e in rest), (seed, t)
            if _guards_fail(g, t):
                continue
            certified = crossing < seq.terminal.num_classes - 1
            assert density_check(g, t, seq) == (seq.terminal if certified else None), (seed, t)
            outcomes["certificate" if certified else "exchange"] += 1
    assert outcomes["certificate"] > 1000 and outcomes["exchange"] > 150, outcomes


@pytest.mark.parametrize(
    "edges, colors",
    [
        # color 1 has n - 1 = 3 edges, but they close the triangle 0-1-2
        (((0, 1), (1, 2), (0, 2), (2, 3), (0, 3)), (1, 1, 1, 2, 2)),
        # color 1 is connected, the 4-cycle with n = 4 edges
        (((0, 1), (1, 2), (2, 3), (3, 0), (0, 2)), (1, 1, 1, 1, 2)),
    ],
)
def test_density_check_rejects_tree_color_that_is_not_a_tree(edges, colors):
    g = MultiGraph(4, edges)
    t = KPartition(2, colors)
    assert components(g, t.edges_of_color(2)).num_classes > 1
    with pytest.raises(InternalInvariantError, match="color 1 is not a spanning tree"):
        density_check(g, t, build_sequence(g, t))


# exchange_step -----------------------------------------------------------------

def test_package_root_exports_one_exchange_type():
    # ExchangeTrace folded into ExchangeEvent.
    assert sorted(treepack.__all__) == sorted([
        "DensityReport", "ExchangeEvent", "INFINITE_LEVEL", "InternalInvariantError",
        "KPartition", "MultiGraph", "NoCycleError", "PackResult", "Partition",
        "PartitionSequence", "SequenceStep", "StageOutcome", "build_sequence",
        "components", "cycle_edges", "density_check", "density_margin", "edge_levels",
        "exchange_step", "fundamental_cycle", "greedy_spanning_tree", "pack", "precedes",
        "quotient", "restrict_components", "run_stage", "stp_number", "verify_certificate",
        "verify_packing",
    ])
    assert not hasattr(treepack, "ExchangeTrace")
    assert not hasattr(treepack.packer, "ExchangeTrace")


def test_exchange_picks_lower_id_member_of_crossing_parallel_pair():
    g, t = parallel_pair_instance()
    event = exchange_step(g, t)
    assert event.e == 6  # the lower-id copy of the doubled (1,2)
    assert event.m == 1
    assert event.c_m == 1
    assert event.class_p == (0, 1, 2, 3)
    assert set(event.cycle) == {1, 2, 6}
    assert event.e_prime == 1
    assert event.j == 0
    assert event.class_q == (0, 1, 2, 3, 4)
    assert event.after.color_of[6] == 1 and event.after.color_of[1] == 2
    assert is_spanning_tree(g, event.after.edges_of_color(1))


def test_least_by_level_is_the_least_id_of_least_level():
    # Random level maps with ties and infinite levels, ids in any order.
    least = treepack.packer._least_by_level
    ties = infinite = 0
    for seed in range(300):
        rng = SplitMix64(seed)
        m = 1 + rng.below(30)
        levels = tuple(INFINITE_LEVEL if rng.below(4) == 0 else rng.below(4) for _ in range(m))
        ids = [e for e in range(m) if rng.below(2)]
        ids.sort(key=lambda e: rng.next_word())
        if not ids:
            assert least(ids, levels) is None
            continue
        expected = min(ids, key=lambda e: (levels[e], e))
        assert least(ids, levels) == expected, (levels, ids)
        assert least(frozenset(ids), levels) == expected, (levels, ids)
        ties += sum(levels[e] == levels[expected] for e in ids) > 1
        infinite += levels[expected] == INFINITE_LEVEL
    assert ties >= 120 and infinite >= 3, (ties, infinite)


def test_exchange_improves_two_step_instance():
    g, t = two_step_exchange_instance()
    event = exchange_step(g, t)
    assert event.m == 1
    assert event.j == 0
    assert event.e == 10  # remainder edge (4,5)
    assert event.e_prime == 3  # star edge (0,4)
    assert precedes(t, event.after, g)
    assert is_spanning_tree(g, event.after.edges_of_color(1))


def test_exchange_from_finds_no_cycle_in_a_forest_remainder():
    # K4 minus two edges: tree 0-1, 0-2, 0-3 and the remainder edge 2-3 alone.
    g = MultiGraph(4, ((0, 1), (0, 2), (0, 3), (2, 3)))
    t = KPartition.from_edge_sets(2, [[0, 1, 2], [3]], g.m)
    with pytest.raises(InternalInvariantError, match="^no finite-level cycle edge in the remainder$"):
        exchange_step(g, t)


def _with_step(seq, i, *, partition=None, splitter=None):
    """``seq`` with the partition or splitter of step ``i`` replaced; step
    ``len(seq.splitters)`` is the terminal, which has no splitter."""
    labels, counts, splitters = list(seq.labels), list(seq.counts), list(seq.splitters)
    if partition is not None:
        labels[i], counts[i] = partition.class_of, partition.num_classes
    if splitter is not None:
        splitters[i] = splitter
    return replace(seq, labels=tuple(labels), counts=tuple(counts), splitters=tuple(splitters))


# Forgeries of the real sequence of K4 with tree 0-1, 0-2, 0-3 (edges 0-2)
# and remainder 1-2, 1-3, 2-3 (edges 3-5). Its steps are the one-class
# partition (splitter 2) and {0}, {1, 2, 3} (splitter 1); the exchange
# takes e = 3 at m = 1 into tree 1, and e' = 0 (the edge 0-1) at j = 0
# leaves the cycle 0, 1, 3 on the vertices 0, 1, 2.
_FORGED_SEQUENCES = [
    pytest.param(
        # From m = 2 on the sequence stays at its terminal singletons, which
        # split e = 1-2 too; the bound is checked before any step is read.
        lambda seq: replace(seq, levels=(2,) * 6),
        "finite level beyond the last refinement step",
        id="level-past-the-last-step",
    ),
    pytest.param(
        lambda seq: _with_step(seq, 1, partition=Partition.singletons(4)),
        "selected edge spans two classes at its level",
        id="step-m-splits-e",
    ),
    pytest.param(
        lambda seq: _with_step(seq, 1, splitter=2),
        "splitter at the selected level is 2, not a tree color",
        id="remainder-splits-step-m",
    ),
    pytest.param(
        lambda seq: replace(seq, levels=(INFINITE_LEVEL,) * 3 + (1,) * 3),
        "fundamental cycle has no edge below the selected level",
        id="tree-edges-never-separated",
    ),
    pytest.param(
        lambda seq: _with_step(seq, 0, partition=Partition.singletons(4)),
        "exchanged-out edge spans two classes at its level",
        id="step-j-splits-e-prime",
    ),
    pytest.param(
        lambda seq: _with_step(seq, 0, partition=Partition.from_classes([[0, 1], [2, 3]])),
        "fundamental cycle leaves its low-level class",
        id="step-j-cuts-the-cycle",
    ),
]


@pytest.mark.parametrize("forge, message", _FORGED_SEQUENCES)
def test_exchange_from_guards_a_forged_sequence(forge, message):
    g = complete_graph(4)
    t = KPartition.from_edge_sets(2, [[0, 1, 2], [3, 4, 5]], g.m)
    seq = build_sequence(g, t)
    event = treepack.packer._exchange_from(g, t, seq, {})
    assert (event.e, event.m, event.c_m, event.e_prime, event.j) == (3, 1, 1, 0, 0)
    with pytest.raises(InternalInvariantError, match=f"^{message}$"):
        treepack.packer._exchange_from(g, t, forge(seq), {})


def test_exchange_violations_names_each_forged_field():
    # The K4 exchange above passes every check of the shared checker, and
    # each forgery of one field (or of the sequence after) fails its check.
    g = complete_graph(4)
    event = exchange_step(g, KPartition.from_edge_sets(2, [[0, 1, 2], [3, 4, 5]], g.m))
    after = build_sequence(g, event.after)
    assert exchange_violations(g, event, after) == []
    cycle_in_tree = KPartition.from_edge_sets(2, [[0, 1, 3], [2, 4, 5]], g.m)
    forgeries = {
        "level_descent": (replace(event, j=1), after),
        "splitter_is_tree_color": (replace(event, c_m=2), after),
        "cycle_inside_class_q": (replace(event, class_q=(0, 1)), after),
        "least_cycle_edge": (replace(event, e=4), after),
        "least_on_cycle": (replace(event, e_prime=1), after),
        "classes_at_levels": (replace(event, class_p=(0, 1, 2, 3)), after),
        "moves_two_edges": (replace(event, after=event.before), after),
        "precedes": (event, event.sequence),
        "tree_preservation": (replace(event, after=cycle_in_tree), after),
        "prefix_through_j": (
            event,
            _with_step(after, len(after.splitters), partition=Partition.singletons(4)),
        ),
    }
    for name, (forged, forged_after) in forgeries.items():
        assert name in exchange_violations(g, forged, forged_after), name


def test_exchange_trace_invariants_on_random_runs():
    # Every exchange of pack(g, k), k = 1-3, on 120 random multigraphs
    # passes exchange_violations: strict improvement, agreement through j
    # and tree preservation among its checks.
    for seed in range(120):
        g = random_multigraph(seed)
        log = ExchangeLog(g)
        for k in (1, 2, 3):
            pack(g, k, on_exchange=log)
        assert log.violations == [], (seed, log.violations[:5])


def test_exchange_can_improve_below_the_selected_level():
    """An exchange may connect the remainder outright; the new sequence then
    diverges from the old one before index m while still improving. This
    pins the behavior: strict improvement holds, prefix agreement through
    m does not."""
    g = early_improvement_graph()
    events: list[ExchangeEvent] = []
    result = pack(g, 2, on_exchange=events.append)
    assert result.verdict == "packing"
    assert len(events) == 1
    event = events[0]
    assert (event.m, event.j) == (1, 0)
    seq_before = event.sequence
    seq_after = build_sequence(g, event.after)
    assert precedes(event.before, event.after, g)
    assert seq_after.steps == ()  # remainder became connected at once
    agreed = all(
        seq_before.partition_at(i) == seq_after.partition_at(i)
        and seq_before.splitter_at(i) == seq_after.splitter_at(i)
        for i in range(event.m + 1)
    )
    assert not agreed


def _doubled(g: MultiGraph) -> MultiGraph:
    return MultiGraph(g.n, tuple(e for pair in zip(g.edges, g.edges) for e in pair))


def _grid(rows: int, cols: int) -> MultiGraph:
    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((r * cols + c, r * cols + c + 1))
            if r + 1 < rows:
                edges.append((r * cols + c, (r + 1) * cols + c))
    return MultiGraph(rows * cols, tuple(edges))


def test_dense_instances_need_several_exchanges_and_stay_sound():
    cases = [
        (complete_graph(8), 4),
        (_doubled(complete_graph(4)), 4),
        (_doubled(_grid(3, 3)), 3),
    ]
    for g, k in cases:
        log = ExchangeLog(g)
        result = pack(g, k, on_exchange=log)
        assert result.verdict == "packing"
        ok, detail = verify_packing(g, result.trees, k)
        assert ok, detail
        assert log.count >= 2
        assert log.violations == [], log.violations[:5]


def test_deep_exchange_keeps_full_prefix_agreement():
    # K8 at k=4 contains an exchange with j = 1 whose improvement lands past
    # index m, so the old and new sequences agree through m entirely.
    g = complete_graph(8)
    events: list[ExchangeEvent] = []
    pack(g, 4, on_exchange=events.append)
    deep = [event for event in events if event.j >= 1]
    assert deep
    for event in deep:
        seq_before = event.sequence
        seq_after = build_sequence(g, event.after)
        for i in range(event.m + 1):
            assert seq_before.partition_at(i) == seq_after.partition_at(i)
            assert seq_before.splitter_at(i) == seq_after.splitter_at(i)
        assert seq_before.partition_at(event.m + 1).strictly_refines(
            seq_after.partition_at(event.m + 1)
        )


# run_stage ----------------------------------------------------------------------

def _stage_coloring(g: MultiGraph, trees, rest) -> KPartition:
    """The coloring with the given trees as colors ``1..k-1`` and ``rest`` as color ``k``."""
    return KPartition.from_edge_sets(len(trees) + 1, [*trees, rest], g.m)


def _run_stage(g: MultiGraph, t: KPartition) -> StageOutcome:
    """``run_stage`` with the cap ``_stages`` gives stage ``t.k``."""
    return run_stage(g, t, cap=stage_cap(g, t))


def test_run_stage_requires_a_cap_and_takes_no_forests():
    # A stage owns its forests: there is no dict to pass in, or to get wrong.
    g = complete_graph(4)
    t = _stage_coloring(g, [], range(g.m))
    keywords = inspect.signature(run_stage).parameters.values()
    assert [p.name for p in keywords if p.kind is p.KEYWORD_ONLY] == ["cap", "on_exchange"]
    with pytest.raises(TypeError, match="'cap'"):
        run_stage(g, t)
    with pytest.raises(TypeError, match="'forests'"):
        run_stage(g, t, cap=1, forests={})


def test_run_stage_returns_connected_rest_immediately():
    g = path_graph(4)
    outcome = _run_stage(g, _stage_coloring(g, [], range(g.m)))
    assert outcome.certificate is None
    assert outcome.coloring.edges_of_color(1) == tuple(range(g.m))
    assert outcome.exchanges == 0


def test_run_stage_rejects_a_coloring_of_another_edge_count():
    g = path_graph(4)
    for m in (g.m - 1, g.m + 1):
        with pytest.raises(ValueError, match="^coloring does not match the graph's edge count$"):
            _run_stage(g, KPartition(1, (1,) * m))


def test_run_stage_single_color_connected():
    g = complete_graph(4)
    outcome = _run_stage(g, _stage_coloring(g, [], range(g.m)))
    assert outcome.coloring.edges_of_color(1) == tuple(range(g.m))
    assert outcome.exchanges == 0


def _invariant_message(run) -> str | None:
    try:
        run()
    except InternalInvariantError as exc:
        return str(exc)
    return None


_PATH4 = ((0, 1), (1, 2), (2, 3))
_TRIANGLE = ((0, 1), (1, 2), (0, 2))


@pytest.mark.parametrize(
    "edges, tree_ids, expected",
    [
        # n - 1 edges closing a triangle, vertex 3 left out
        ((*_TRIANGLE, (2, 3)), [[0, 1, 2]], 1),
        # a connected 4-cycle: n edges
        ((*_PATH4, (3, 0), (0, 2)), [[0, 1, 2, 3]], 1),
        # connected on {0, 1, 2} only: n - 2 edges
        (_PATH4, [[0, 1]], 1),
        # color 1 a spanning path, color 2 a triangle
        ((*_PATH4, *_TRIANGLE, (2, 3)), [[0, 1, 2], [3, 4, 5]], 2),
        # both broken: the least color is named
        ((*_PATH4, *_TRIANGLE, (2, 3)), [[0, 1], [2, 3, 4, 5]], 1),
    ],
)
def test_run_stage_rejects_a_tree_color_that_is_not_a_tree(edges, tree_ids, expected):
    # The message is the one density_check gives on the tested sequence.
    g = MultiGraph(4, edges)
    rest = sorted(set(range(g.m)) - {e for ids in tree_ids for e in ids})
    assert components(g, rest).num_classes > 1
    message = f"color {expected} is not a spanning tree"
    t = _stage_coloring(g, tree_ids, rest)
    assert _invariant_message(lambda: _run_stage(g, t)) == message
    assert _invariant_message(lambda: density_check(g, t, build_sequence(g, t))) == message


def test_run_stage_tree_check_matches_density_check_on_random_colorings():
    raised = 0
    for seed in range(400):
        g = random_multigraph(seed, max_m=20)
        for k in (2, 3):
            t = planted_coloring(seed * 3 + k, g, k) if seed % 2 else random_coloring(seed, g, k)
            rest = t.edges_of_color(k)
            if components(g, rest).num_classes <= 1:
                continue
            stage = _stage_coloring(g, [t.edges_of_color(c) for c in range(1, k)], rest)
            expected = _invariant_message(lambda: density_check(g, t, build_sequence(g, t)))
            assert _invariant_message(lambda: _run_stage(g, stage)) == expected, (g, t)
            raised += expected is not None
    assert raised >= 100, raised


def test_run_stage_rejects_a_broken_tree_beside_a_connected_remainder():
    # The first build takes no color as a forest, so the triangle splits.
    g = complete_graph(4)  # edges 0, 1, 3 close the triangle 0-1-2
    t = _stage_coloring(g, [[0, 1, 3]], [2, 4, 5])
    assert components(g, t.edges_of_color(2)).num_classes == 1
    with pytest.raises(InternalInvariantError, match="^color 1 is not a spanning tree$"):
        _run_stage(g, t)


def test_run_stage_rejects_a_connected_tree_color_with_n_edges():
    # Every color is connected, so the first sequence has no steps and no
    # density check runs; the edge count alone shows that color 1 is no tree.
    g = MultiGraph(4, complete_graph(4).edges * 2)
    t = _stage_coloring(g, [range(4)], range(4, g.m))  # a star at 0 plus edge 1-2
    assert build_sequence(g, t).splitters == ()
    with pytest.raises(InternalInvariantError, match="^color 1 is not a spanning tree$"):
        _run_stage(g, t)


def test_run_stage_rejects_an_exchange_whose_level_contradicts_p1(monkeypatch):
    # The stage derives the next P_1 from j, so it checks e_prime's classes
    # at index 1 against it: two when j == 0, one otherwise.
    exchange_from = treepack.packer._exchange_from
    g = union_of_spanning_trees(0, 40, 3)
    for flipped in (0, 1):  # j == 0 reported as 1, then j >= 1 as 0
        def misleveled(*args):
            event = exchange_from(*args)
            return replace(event, j=1 - flipped) if min(event.j, 1) == flipped else event

        monkeypatch.setattr(treepack.packer, "_exchange_from", misleveled)
        with pytest.raises(InternalInvariantError, match="^exchanged-out edge's classes"):
            pack(g, 3)


def test_run_stage_rejects_a_short_tree_color_beside_a_connected_remainder():
    # Color 1 has n - 2 edges, so the stage's first sequence has steps.
    g = complete_graph(4)
    t = _stage_coloring(g, [[0, 1]], [2, 3, 4, 5])
    assert components(g, t.edges_of_color(2)).num_classes == 1
    with pytest.raises(InternalInvariantError, match="^color 1 is not a spanning tree$"):
        _run_stage(g, t)


@pytest.mark.parametrize("k", [2, 3])
def test_stage_exit_rule_on_random_stages(k):
    # The exit rule (j == 0 and two classes at index 1) holds exactly when a
    # fresh sequence of after has no steps, and the stage builds after's
    # sequence exactly when it does not (graphs.WhiteBoxPass).
    found = random_stage_pass(k)
    assert found.exchanges >= 100
    assert found.failures("exit_rule", "rebuilds") == []


@pytest.mark.parametrize("family", FAMILIES)
def test_stage_exit_rule_on_families(family):
    # A stage that ends connected also builds one sequence per exchange.
    found = family_pass(family)
    assert found.exchanges >= 1
    assert found.failures("exit_rule", "builds", "rebuilds") == []


@pytest.mark.parametrize("k", [2, 3])
def test_a_stage_ending_connected_builds_one_sequence_per_exchange(k):
    # The first build is before the first exchange; the last exchange
    # connects the remainder, and no build follows it.
    found = random_stage_pass(k)
    assert found.connected >= 30, found.connected
    assert found.failures("builds") == []


def _unpromised_calls(seq, k: int) -> int:
    """Union-finds of a build that takes no color as a forest: each round
    tries the colors up to its splitter, the last round every color, each
    but the previous round's splitter."""
    rounds = [range(1, c + 1) for c in seq.splitters] + [range(1, k + 1)]
    return sum(len(r) - (last in r) for r, last in zip(rounds, (0, *seq.splitters)))


def test_a_stage_build_does_not_recheck_its_last_splitter(monkeypatch):
    # A round's classes are the components of its splitter's inside edges,
    # so the next round skips that color as it skips a connected tree: each
    # round of a rebuild that splits runs one union-find but round 0, which
    # takes the remainder's components from the stage, and the last round
    # runs the remainder's unless the remainder made the last split. A
    # stage's first build gets no forest promise and tries every color.
    restricted, builds = [], []
    split, build = treepack.kpartition._split, treepack.packer.build_sequence

    def counted_split(*args):
        restricted.append(args)
        return split(*args)

    def counted_build(g, t, **kwargs):
        before = len(restricted)
        seq = build(g, t, **kwargs)
        builds.append((seq, t.k, "forests" in kwargs, len(restricted) - before))
        return seq

    monkeypatch.setattr(treepack.kpartition, "_split", counted_split)
    monkeypatch.setattr(treepack.packer, "build_sequence", counted_build)
    for seed in range(4):
        g = union_of_spanning_trees(seed, 40, 3)
        pack(g, 3)
        pack(g, 4)
    by_remainder = first = 0
    for seq, k, promised, calls in builds:
        last_by_remainder = bool(seq.splitters) and seq.splitters[-1] == k
        by_remainder += last_by_remainder
        if promised:
            assert calls == len(seq.splitters) - 1 + (not last_by_remainder), (seq, k, calls)
        else:
            first += 1
            assert calls == _unpromised_calls(seq, k), (seq, k, calls)
    assert first == 4 * (3 + 4) and by_remainder >= 50, (first, by_remainder)


def test_only_a_certificate_is_built_as_a_partition(monkeypatch):
    # The stages read the sequences' label tuples, so untraced stp_number
    # constructs one Partition, its certificate, and pack constructs none.
    built = []
    validate = Partition.__post_init__

    def counted_validate(self):
        built.append(self)
        validate(self)

    g = union_of_spanning_trees(0, 40, 3)
    monkeypatch.setattr(Partition, "__post_init__", counted_validate)
    k_max, certificate = stp_number(g)
    assert k_max == 3 and len(built) == 1 and built[0] is certificate
    built.clear()
    result = pack(g, 3)
    assert result.trees is not None and result.exchanges > 0 and built == []


def test_stage_sequences_equal_the_tested_sequences():
    # run_stage takes colors 1..k-1 as forests in every rebuild, and hands it
    # P_1: the old one after j >= 1, else with the classes of e_prime's ends
    # merged, which need not be adjacent in canonical order.
    cases = [(random_multigraph(seed, max_m=20), k) for seed in range(60) for k in (2, 3)]
    cases += [(complete_graph(12), 6), (_doubled(_grid(3, 3)), 3)]
    cases += [(union_of_spanning_trees(seed, 60, 3), 3) for seed in range(8)]
    exchanges, rebuilds = 0, Counter()
    for g, k in cases:
        events: list[ExchangeEvent] = []
        pack(g, k, on_exchange=events.append)
        for event in events:
            tested = build_sequence(g, event.before)
            assert event.sequence == tested
            assert build_sequence(g, event.before, forests=range(1, event.colors)) == tested
        for event, following in zip(events, events[1:]):
            if following.before is event.after:  # rebuilt within the stage
                x, y = g.edges[event.e_prime]
                labels = event.sequence.labels[1]
                gap = abs(labels[x] - labels[y])
                kind = "j >= 1" if event.j else "j = 0, adjacent" if gap == 1 else "j = 0, apart"
                rebuilds[kind] += 1
        exchanges += len(events)
    assert exchanges >= 100, exchanges
    kinds = ("j >= 1", "j = 0, adjacent", "j = 0, apart")
    assert min(rebuilds[kind] for kind in kinds) >= 10, rebuilds


def test_run_stage_k4_second_stage():
    g = complete_graph(4)
    first = greedy_spanning_tree(g, range(g.m))
    outcome = _run_stage(g, _stage_coloring(g, [first], frozenset(range(g.m)) - first))
    assert outcome.certificate is None
    trees = [outcome.coloring.edges_of_color(c) for c in (1, 2)]
    assert all(is_spanning_tree(g, tr) for tr in trees[:-1])
    assert components(g, trees[-1]).num_classes == 1


# greedy_spanning_tree -------------------------------------------------------------

def _kruskal_by_id(g: MultiGraph, ordered) -> frozenset[int]:
    """Keep each edge, in the given order, whose ends lie in different components."""
    label = list(range(g.n))
    kept = []
    for e in ordered:
        u, v = g.edges[e]
        if label[u] != label[v]:
            old = label[v]
            label = [label[u] if x == old else x for x in label]
            kept.append(e)
    return frozenset(kept)


def test_greedy_spanning_tree_is_kruskal_by_id():
    checked = loops = parallels = 0
    for seed in range(400):
        g = random_multigraph(seed, max_n=8, max_m=24)
        if components(g, range(g.m)).num_classes > 1:
            continue
        for order, ordered in (("asc", range(g.m)), ("desc", reversed(range(g.m)))):
            assert greedy_spanning_tree(g, range(g.m), order) == _kruskal_by_id(g, ordered)
        checked += 1
        loops += any(u == v for u, v in g.edges)
        parallels += len({tuple(sorted(e)) for e in g.edges}) < g.m
    assert checked >= 100 and loops >= 20 and parallels >= 20, (checked, loops, parallels)


def test_greedy_spanning_tree_rejects_a_disconnected_edge_set():
    g = MultiGraph(4, ((0, 1), (2, 3), (0, 1), (2, 2)))
    for order in ("asc", "desc"):
        with pytest.raises(InternalInvariantError):
            greedy_spanning_tree(g, range(g.m), order)
    with pytest.raises(InternalInvariantError):
        greedy_spanning_tree(path_graph(3), [0])


def test_greedy_spanning_tree_rejects_edge_ids_out_of_range():
    # Unchecked, -1 would be read as the last edge by negative indexing,
    # and 5 would raise IndexError.
    g = MultiGraph(3, ((0, 1), (1, 2), (0, 2)))
    for ids in ([-1, 0], [5, 0]):
        for order in ("asc", "desc"):
            with pytest.raises(ValueError, match="^edge id out of range$"):
                greedy_spanning_tree(g, ids, order)


def test_greedy_spanning_tree_rejects_an_unknown_order():
    with pytest.raises(ValueError, match="order must be 'asc' or 'desc'"):
        greedy_spanning_tree(path_graph(3), [0, 1], "up")


# pack ---------------------------------------------------------------------------

def test_pack_zero_trees_is_vacuous():
    result = pack(random_multigraph(2), 0)
    assert result.verdict == "packing"
    assert result.trees == ()
    ok, detail = verify_packing(random_multigraph(2), result.trees, 0)
    assert ok, detail


def test_pack_rejects_negative_k():
    with pytest.raises(ValueError):
        pack(path_graph(2), -1)


def test_pack_rejects_a_graph_without_vertices():
    with pytest.raises(ValueError, match="at least one vertex"):
        pack(MultiGraph(0, ()), 1)


def test_pack_rejects_k_that_is_not_an_int_before_any_stage(monkeypatch):
    def no_stage(*args, **kwargs):
        raise AssertionError("a stage ran")

    # 2.5 once failed inside islice; True packed one tree and reported k=True.
    monkeypatch.setattr(treepack.packer, "run_stage", no_stage)
    for k in (2.5, True, 2.0):
        with pytest.raises(ValueError, match=f"^k must be an int, not {k!r}$"):
            pack(complete_graph(4), k)


def test_pack_k4_two_trees():
    g = complete_graph(4)
    result = pack(g, 2)
    assert result.verdict == "packing"
    ok, detail = verify_packing(g, result.trees, 2)
    assert ok, detail
    assert density_margin(g, 2).margin == 0


def test_pack_doubled_triangle_two_trees():
    g = doubled_triangle()
    result = pack(g, 2)
    assert result.verdict == "packing"
    ok, detail = verify_packing(g, result.trees, 2)
    assert ok, detail
    assert density_margin(g, 2).margin >= 0


def test_pack_single_vertex_any_k(monkeypatch):
    def no_stage(*args, **kwargs):
        raise AssertionError("a stage ran")

    # k empty trees at once, however large k is: no stage runs.
    monkeypatch.setattr(treepack.packer, "run_stage", no_stage)
    g = MultiGraph(1, ((0, 0), (0, 0)))
    for k in (0, 3, 100_000):
        result = pack(g, k)
        assert result.verdict == "packing"
        assert result.trees == (frozenset(),) * k
        assert result.exchanges == 0 and result.certificate is None


def test_pack_single_vertex_k_beyond_an_index_is_input_too_large():
    # Checked before the k empty trees are built, which raised a bare
    # OverflowError.
    with pytest.raises(ValueError, match="^input too large"):
        pack(MultiGraph(1, ()), 10**20)


def test_pack_beyond_the_certificate_bound_stops_there():
    # A certificate comes by stage m // (n - 1) + 1, so a larger k runs no
    # further stage: 10**20 gives that stage's certificate and exchanges.
    graphs = [random_multigraph(seed) for seed in range(200)]
    graphs += [complete_graph(n) for n in range(2, 12)]
    for g in graphs:
        ceiling = g.m // (g.n - 1) + 1
        bound = pack(g, ceiling)
        beyond = pack(g, 10**20)
        assert bound.certificate is not None
        assert beyond.k == 10**20 and beyond.trees is None
        assert (beyond.certificate, beyond.exchanges) == (bound.certificate, bound.exchanges)


def _fake_packing_stages(monkeypatch) -> None:
    """Every stage is connected with no certificate, and its tree is empty."""
    monkeypatch.setattr(
        treepack.packer, "run_stage", lambda g, t, **kwargs: StageOutcome(t, None, 0)
    )
    monkeypatch.setattr(treepack.packer, "greedy_spanning_tree", lambda *args: frozenset())


def test_pack_beyond_the_certificate_bound_without_a_certificate_raises(monkeypatch):
    _fake_packing_stages(monkeypatch)
    g = complete_graph(4)
    with pytest.raises(InternalInvariantError, match="no certificate at the arithmetic ceiling"):
        pack(g, 10**20)
    assert pack(g, g.m // (g.n - 1) + 1).certificate is None  # k at the bound takes the stage


def test_pack_loops_never_enter_trees():
    g = MultiGraph(3, ((0, 1), (1, 2), (1, 1), (0, 2), (0, 0)))
    result = pack(g, 1)
    assert result.verdict == "packing"
    assert not any(g.is_loop(e) for e in result.trees[0])


def test_pack_respects_cap():
    with pytest.raises(InternalInvariantError):
        pack(complete_graph(4), 2, cap=0)  # K4 needs one exchange


def test_negative_cap_is_rejected_before_any_stage(monkeypatch):
    def no_stage(*args, **kwargs):
        raise AssertionError("a stage ran")

    monkeypatch.setattr(treepack.packer, "run_stage", no_stage)
    g = complete_graph(4)
    for call in (lambda: pack(g, 2, cap=-3), lambda: pack(g, 0, cap=-1),
                 lambda: stp_number(g, cap=-1)):
        with pytest.raises(ValueError, match="cap"):
            call()


@pytest.mark.parametrize("cap", [True, False, 2.5, 3.0, "3", [3]], ids=repr)
def test_cap_must_be_an_int_before_any_stage(monkeypatch, cap):
    g = complete_graph(4)
    message = f"^exchange cap must be an int, not {re.escape(repr(cap))}$"
    with pytest.raises(ValueError, match=message):
        run_stage(g, _stage_coloring(g, [], range(g.m)), cap=cap)

    def no_stage(*args, **kwargs):
        raise AssertionError("a stage ran")

    monkeypatch.setattr(treepack.packer, "run_stage", no_stage)
    for call in (lambda: pack(g, 2, cap=cap), lambda: pack(g, 0, cap=cap),
                 lambda: stp_number(g, cap=cap)):
        with pytest.raises(ValueError, match=message):
            call()


def test_run_stage_takes_a_negative_cap_as_an_input_error():
    g = complete_graph(4)
    t = _stage_coloring(g, [], range(g.m))
    with pytest.raises(ValueError, match="^exchange cap must be >= 0, not -1$"):
        run_stage(g, t, cap=-1)
    # Zero is a cap: K4's first stage is connected and needs no exchange.
    assert run_stage(g, t, cap=0) == StageOutcome(t, None, 0)


def test_pack_seedtree_order_changes_tree_choice_not_verdict():
    g = complete_graph(4)
    asc = pack(g, 2, seedtree_order="asc")
    desc = pack(g, 2, seedtree_order="desc")
    assert asc.verdict == desc.verdict == "packing"
    for result in (asc, desc):
        ok, detail = verify_packing(g, result.trees, 2)
        assert ok, detail
    assert asc.trees != desc.trees


def test_pack_rejects_unknown_seedtree_order_before_any_stage(monkeypatch):
    stages = []
    monkeypatch.setattr(treepack.packer, "run_stage", lambda *a, **kw: stages.append(a))
    with pytest.raises(ValueError):
        pack(random_multigraph(2), 0, seedtree_order="bogus")
    events = []
    with pytest.raises(ValueError):
        pack(complete_graph(4), 2, seedtree_order="bogus", on_exchange=events.append)
    assert events == [] and stages == []


# stp_number ----------------------------------------------------------------------

def test_stp_number_of_a_tree_is_one():
    g = path_graph(6)
    k_max, certificate = stp_number(g)
    assert k_max == 1
    assert certificate == Partition.singletons(6)


def test_stp_number_of_disconnected_graph_is_zero():
    g = MultiGraph(4, ((0, 1), (2, 3)))
    k_max, certificate = stp_number(g)
    assert k_max == 0
    assert certificate == components(g, range(g.m))


def test_stp_number_of_k6_is_three():
    g = complete_graph(6)
    k_max, certificate = stp_number(g)
    assert k_max == 3
    ok, detail = verify_certificate(g, certificate, 4)
    assert ok, detail
    result = pack(g, 3)
    ok, detail = verify_packing(g, result.trees, 3)
    assert ok, detail


def test_stp_number_rejects_tiny_graphs():
    with pytest.raises(ValueError):
        stp_number(MultiGraph(1, ()))


def test_stp_number_without_a_certificate_at_the_ceiling_raises(monkeypatch):
    _fake_packing_stages(monkeypatch)
    with pytest.raises(InternalInvariantError, match="no certificate at the arithmetic ceiling"):
        stp_number(complete_graph(4))


def _stp_by_repeated_pack(g: MultiGraph) -> tuple[int, Partition]:
    """Reference definition: pack k = 1, 2, ... from scratch until one certifies."""
    k = 1
    while (result := pack(g, k)).certificate is None:
        k += 1
    return k - 1, result.certificate


def test_stp_number_matches_repeated_pack():
    graphs = [random_multigraph(seed) for seed in range(200)]
    graphs += [complete_graph(n) for n in range(2, 9)]
    graphs += [build(n) for build in (path_graph, star_graph, cycle_graph) for n in range(2, 8)]
    for g in graphs:
        assert g.n >= 2
        assert stp_number(g) == _stp_by_repeated_pack(g)


def test_stp_number_runs_each_stage_once_with_its_pack_cap(monkeypatch):
    caps = []
    real = treepack.packer.run_stage

    def recording(*args, **kwargs):
        caps.append(kwargs["cap"])
        return real(*args, **kwargs)

    monkeypatch.setattr(treepack.packer, "run_stage", recording)
    g = complete_graph(6)
    assert stp_number(g)[0] == 3
    assert caps == [s * g.n * g.m for s in (1, 2, 3, 4)]  # k_max + 1 stages
    caps.clear()
    stp_number(g, cap=50)
    assert caps == [50] * 4
    caps.clear()
    pack(g, 3)
    assert caps == [s * g.n * g.m for s in (1, 2, 3)]


def _stage_record(monkeypatch, run) -> list[tuple]:
    """The cap and the outcome of every ``run_stage`` call that ``run()`` makes."""
    record = []
    real = treepack.packer.run_stage

    def recording(g, coloring, **kwargs):
        outcome = real(g, coloring, **kwargs)
        record.append(
            (kwargs["cap"], outcome.coloring.color_of, outcome.certificate, outcome.exchanges)
        )
        return outcome

    with monkeypatch.context() as m:
        m.setattr(treepack.packer, "run_stage", recording)
        run()
    return record


def test_pack_runs_a_prefix_of_the_stages_of_stp_number(monkeypatch):
    # pack(g, k) runs the first k stages stp_number runs, with the same caps
    # and outcomes, for every k up to one past k_max and for a k beyond them.
    graphs = [FAMILIES[name][0] for name in ("Q6", "K16", "union-n200")]
    graphs += [random_multigraph(seed) for seed in range(50)]
    compared = 0
    for g in graphs:
        stp = _stage_record(monkeypatch, lambda: stp_number(g))
        assert stp[-1][2] is not None and all(r[2] is None for r in stp[:-1])
        for k in [*range(1, len(stp) + 1), 10**20]:
            packed = _stage_record(monkeypatch, lambda: pack(g, k))
            assert packed == stp[: min(k, len(stp))], (g, k)
            compared += len(packed)
    assert compared >= 300, compared


def test_stp_number_respects_cap():
    with pytest.raises(InternalInvariantError):
        stp_number(complete_graph(4), cap=0)  # stage 2 needs one exchange
