from __future__ import annotations

import pytest

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
    bowtie,
    complete_graph,
    cycle_graph,
    doubled_triangle,
    early_improvement_graph,
    parallel_pair_instance,
    path_graph,
    planted_coloring,
    random_coloring,
    random_multigraph,
    star_graph,
    two_step_exchange_instance,
    union_of_spanning_trees,
)
from treepack.generate import SplitMix64


def _is_spanning_tree(g: MultiGraph, ids) -> bool:
    ids = list(ids)
    return (
        len(ids) == g.n - 1
        and not any(g.is_loop(e) for e in ids)
        and components(g, ids).num_classes <= 1
    )


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
    trees_ok = all(_is_spanning_tree(g, t.edges_of_color(c)) for c in range(1, t.k))
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

def test_exchange_picks_lower_id_member_of_crossing_parallel_pair():
    g, t = parallel_pair_instance()
    after, trace = exchange_step(g, t)
    assert trace.e == 6  # the lower-id copy of the doubled (1,2)
    assert trace.m == 1
    assert trace.c_m == 1
    assert trace.class_p == (0, 1, 2, 3)
    assert set(trace.cycle) == {1, 2, 6}
    assert trace.e_prime == 1
    assert trace.j == 0
    assert trace.class_q == (0, 1, 2, 3, 4)
    assert after.color_of[6] == 1 and after.color_of[1] == 2
    assert _is_spanning_tree(g, after.edges_of_color(1))


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
    after, trace = exchange_step(g, t)
    assert trace.m == 1
    assert trace.j == 0
    assert trace.e == 10  # remainder edge (4,5)
    assert trace.e_prime == 3  # star edge (0,4)
    assert precedes(t, after, g)
    assert _is_spanning_tree(g, after.edges_of_color(1))


def test_exchange_trace_invariants_on_random_runs():
    for seed in range(120):
        g = random_multigraph(seed)
        events: list[ExchangeEvent] = []
        for k in (1, 2, 3):
            pack(g, k, on_exchange=events.append)
        for event in events:
            trace = event.trace
            assert trace.j < trace.m
            assert 1 <= trace.c_m <= event.colors - 1
            inside = set(trace.class_q)
            for eid in trace.cycle:
                u, v = g.edges[eid]
                assert u in inside and v in inside
            assert trace.e in trace.cycle
            # class_p and class_q are the classes of e at m and of e' at j
            for cls, i, e in (
                (trace.class_p, trace.m, trace.e),
                (trace.class_q, trace.j, trace.e_prime),
            ):
                labels = event.sequence.partition_at(i).class_of
                label = labels[g.edges[e][0]]
                assert cls == tuple(w for w in range(g.n) if labels[w] == label)
            # the swap moved exactly those two edges
            before, after = event.before, event.after
            assert after.color_of[trace.e] == trace.c_m
            assert after.color_of[trace.e_prime] == event.colors
            unchanged = [
                e
                for e in range(g.m)
                if e not in (trace.e, trace.e_prime)
            ]
            assert all(before.color_of[e] == after.color_of[e] for e in unchanged)


def test_every_exchange_strictly_improves():
    for seed in range(60):
        g = random_multigraph(seed)
        events: list[ExchangeEvent] = []
        for k in (2, 3):
            pack(g, k, on_exchange=events.append)
        for event in events:
            assert precedes(event.before, event.after, g)


def test_sequences_agree_up_to_the_exchanged_out_level():
    # below level j nothing changes: both colorings separate vertices the
    # same way, with the same splitters
    for seed in range(60):
        g = random_multigraph(seed)
        events: list[ExchangeEvent] = []
        for k in (2, 3):
            pack(g, k, on_exchange=events.append)
        for event in events:
            seq_before = event.sequence
            seq_after = build_sequence(g, event.after)
            j = event.trace.j
            for i in range(j + 1):
                assert seq_before.partition_at(i) == seq_after.partition_at(i)
            for i in range(j):
                assert seq_before.splitter_at(i) == seq_after.splitter_at(i)


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
    trace = event.trace
    assert (trace.m, trace.j) == (1, 0)
    seq_before = event.sequence
    seq_after = build_sequence(g, event.after)
    assert precedes(event.before, event.after, g)
    assert seq_after.steps == ()  # remainder became connected at once
    agreed = all(
        seq_before.partition_at(i) == seq_after.partition_at(i)
        and seq_before.splitter_at(i) == seq_after.splitter_at(i)
        for i in range(trace.m + 1)
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
        events: list[ExchangeEvent] = []
        result = pack(g, k, on_exchange=events.append)
        assert result.verdict == "packing"
        ok, detail = verify_packing(g, result.trees, k)
        assert ok, detail
        assert len(events) >= 2
        for event in events:
            assert precedes(event.before, event.after, g)
            for color in range(1, event.colors):
                assert _is_spanning_tree(g, event.after.edges_of_color(color))


def test_deep_exchange_keeps_full_prefix_agreement():
    # K8 at k=4 contains an exchange with j = 1 whose improvement lands past
    # index m, so the old and new sequences agree through m entirely.
    g = complete_graph(8)
    events: list[ExchangeEvent] = []
    pack(g, 4, on_exchange=events.append)
    deep = [event for event in events if event.trace.j >= 1]
    assert deep
    for event in deep:
        seq_before = event.sequence
        seq_after = build_sequence(g, event.after)
        for i in range(event.trace.m + 1):
            assert seq_before.partition_at(i) == seq_after.partition_at(i)
            assert seq_before.splitter_at(i) == seq_after.splitter_at(i)
        assert seq_before.partition_at(event.trace.m + 1).strictly_refines(
            seq_after.partition_at(event.trace.m + 1)
        )


# run_stage ----------------------------------------------------------------------

def _stage_coloring(g: MultiGraph, trees, rest) -> KPartition:
    """The coloring with the given trees as colors ``1..k-1`` and ``rest`` as color ``k``."""
    return KPartition.from_edge_sets(len(trees) + 1, [*trees, rest], g.m)


def test_run_stage_returns_connected_rest_immediately():
    g = path_graph(4)
    outcome = run_stage(g, _stage_coloring(g, [], range(g.m)))
    assert outcome.certificate is None
    assert outcome.coloring.edges_of_color(1) == tuple(range(g.m))
    assert outcome.exchanges == 0


def test_run_stage_rejects_a_coloring_of_another_edge_count():
    g = path_graph(4)
    for m in (g.m - 1, g.m + 1):
        with pytest.raises(ValueError, match="^coloring does not match the graph's edge count$"):
            run_stage(g, KPartition(1, (1,) * m))


def test_run_stage_single_color_connected():
    g = complete_graph(4)
    outcome = run_stage(g, _stage_coloring(g, [], range(g.m)))
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
    assert _invariant_message(lambda: run_stage(g, t)) == message
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
            assert _invariant_message(lambda: run_stage(g, stage)) == expected, (g, t)
            raised += expected is not None
    assert raised >= 100, raised


def test_run_stage_returns_a_connected_remainder_unchecked():
    g = complete_graph(4)  # edges 0, 1, 3 close the triangle 0-1-2
    t = _stage_coloring(g, [[0, 1, 3]], [2, 4, 5])
    outcome = run_stage(g, t)
    assert outcome == StageOutcome(t, None, 0)
    assert [outcome.coloring.edges_of_color(c) for c in (1, 2)] == [(0, 1, 3), (2, 4, 5)]


def test_stage_sequences_equal_the_tested_sequences():
    # run_stage builds every sequence with colors 1..k-1 taken as forests.
    cases = [(random_multigraph(seed, max_m=20), k) for seed in range(60) for k in (2, 3)]
    cases += [(complete_graph(12), 6), (_doubled(_grid(3, 3)), 3)]
    cases += [(union_of_spanning_trees(seed, 60, 3), 3) for seed in range(8)]
    exchanges = 0
    for g, k in cases:
        events: list[ExchangeEvent] = []
        pack(g, k, on_exchange=events.append)
        for event in events:
            tested = build_sequence(g, event.before)
            assert event.sequence == tested
            assert build_sequence(g, event.before, forests=range(1, event.colors)) == tested
        exchanges += len(events)
    assert exchanges >= 100, exchanges


def test_run_stage_k4_second_stage():
    g = complete_graph(4)
    first = greedy_spanning_tree(g, range(g.m))
    outcome = run_stage(g, _stage_coloring(g, [first], frozenset(range(g.m)) - first))
    assert outcome.certificate is None
    trees = [outcome.coloring.edges_of_color(c) for c in (1, 2)]
    assert all(_is_spanning_tree(g, tr) for tr in trees[:-1])
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


def test_pack_rejects_k_that_is_not_an_int_before_any_stage(monkeypatch):
    def no_stage(*args, **kwargs):
        raise AssertionError("a stage ran")

    # 2.5 once failed inside islice; True packed one tree and reported k=True.
    monkeypatch.setattr(treepack.packer, "run_stage", no_stage)
    for k in (2.5, True, 2.0):
        with pytest.raises(ValueError, match="k must be a nonnegative integer"):
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


def test_pack_beyond_the_certificate_bound_without_a_certificate_raises(monkeypatch):
    def packing_stages(g, *args):
        while True:
            yield StageOutcome(KPartition(1, (1,) * g.m), None, 0)

    monkeypatch.setattr(treepack.packer, "_stages", packing_stages)
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


def test_pack_tree_preservation_during_stages():
    for seed in range(40):
        g = random_multigraph(seed)

        def check(event: ExchangeEvent) -> None:
            for color in range(1, event.colors):
                assert _is_spanning_tree(g, event.after.edges_of_color(color))

        for k in (2, 3):
            pack(g, k, on_exchange=check)


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
    assert caps == [3 * g.n * g.m] * 3


def test_stp_number_respects_cap():
    with pytest.raises(InternalInvariantError):
        stp_number(complete_graph(4), cap=0)  # stage 2 needs one exchange
