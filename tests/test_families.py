"""Families with known verdicts, beyond the oracle's reach.

Every verdict is checked by the oracle's verifiers, which need no search:
a packing by its trees, a certificate by counting crossing edges. Each
instance makes at least one exchange, so the exchange loop is exercised
at sizes the corpus never reaches. On the larger instances every exchange
is also checked against the properties the exchange argument relies on.
"""

from __future__ import annotations

import pytest

from treepack import (
    ExchangeEvent,
    MultiGraph,
    build_sequence,
    components,
    cycle_edges,
    pack,
    stp_number,
    verify_certificate,
    verify_packing,
)
from treepack.kpartition import _sequence_precedes

from graphs import (
    complete_graph,
    hypercube,
    planted_cut,
    prefix_violations,
    union_of_spanning_trees,
)

# Some seeds certify the union minus an edge before any exchange (2009 and
# 2010 do); 2008 makes exchanges in both instances.
UNION_SEED = 2008


@pytest.mark.parametrize("d", [6, 8])
def test_hypercube_packs_half_its_degree(d):
    # Q_d is d-edge-connected, so it packs d // 2 trees (Nash-Williams);
    # m = d * 2^(d-1) < (d // 2 + 1)(n - 1), so the singletons certify one more.
    g = hypercube(d)
    result = pack(g, d // 2)
    assert result.verdict == "packing"
    assert verify_packing(g, result.trees, d // 2) == (True, "ok")
    assert result.exchanges >= 1
    k_max, certificate = stp_number(g)
    assert k_max == d // 2
    ok, detail = verify_certificate(g, certificate, d // 2 + 1)
    assert ok, detail


def test_union_of_three_trees_packs_three():
    g = union_of_spanning_trees(UNION_SEED, 200, 3)
    assert g.m == 3 * (g.n - 1)
    result = pack(g, 3)
    assert result.verdict == "packing"
    assert verify_packing(g, result.trees, 3) == (True, "ok")
    assert result.exchanges >= 1


def test_union_of_three_trees_minus_an_edge_is_certified():
    full = union_of_spanning_trees(UNION_SEED, 200, 3)
    g = MultiGraph(full.n, full.edges[:-1])  # 3(n - 1) - 1 edges: too few
    result = pack(g, 3)
    assert result.verdict == "certificate"
    ok, detail = verify_certificate(g, result.certificate, 3)
    assert ok, detail
    assert result.exchanges >= 1


@pytest.mark.parametrize("n", range(9, 17))
def test_complete_graph_packs_half_its_order(n):
    # In K_n the singletons are the tightest partition (Nash-Williams), so
    # it packs n // 2 trees; n(n - 1)/2 < (n // 2 + 1)(n - 1), so the
    # singletons certify one more.
    g = complete_graph(n)
    result = pack(g, n // 2)
    assert result.verdict == "packing"
    assert verify_packing(g, result.trees, n // 2) == (True, "ok")
    assert result.exchanges >= 1
    k_max, certificate = stp_number(g)
    assert k_max == n // 2
    ok, detail = verify_certificate(g, certificate, n // 2 + 1)
    assert ok, detail


def _exchange_violations(
    g: MultiGraph, k: int, verdict: str = "packing"
) -> tuple[int, list[str]]:
    """Pack ``k`` trees, expecting ``verdict``, and check eight properties on every exchange.

    The trace has ``j < m``, a tree color ``c_m`` and a cycle inside
    ``class_q``; ``e`` is the least ``(level, id)`` remainder edge on a
    cycle and ``e'`` the least on its fundamental cycle; the coloring
    strictly improves; every tree color is still a spanning tree; and the
    sequences before and after agree in their partitions through index
    ``j`` and in their splitters through ``j - 1`` (``prefix_violations``).
    The last is the prefix property the exchange keeps in place of the
    lemma that criterion 3 checks (agreement through ``m``). Strict
    coarsening at ``m + 1``, which criterion 3 also checks, is not
    asserted: it fails on 1 of Q6's 35 exchanges, 1 of Q8's 226, none of
    the union's 41 and 13 of K16's 42.
    """
    violations: list[str] = []
    exchanges = 0

    def check(event: ExchangeEvent) -> None:
        nonlocal exchanges
        exchanges += 1
        where = f"exchange {exchanges}"
        if not event.j < event.m:
            violations.append(f"{where}: j = {event.j} is not below m = {event.m}")
        if not 1 <= event.c_m < event.colors:
            violations.append(f"{where}: c_m = {event.c_m} is not a tree color")
        inside = set(event.class_q)
        if any(not inside.issuperset(g.edges[e]) for e in event.cycle):
            violations.append(f"{where}: the cycle leaves class_q")
        levels = event.sequence.levels
        rest = event.before.edges_of_color(event.colors)
        if event.e != min(cycle_edges(g, rest), key=lambda e: (levels[e], e)):
            violations.append(f"{where}: e = {event.e} is not the least cycle edge")
        if event.e_prime != min(event.cycle, key=lambda e: (levels[e], e)):
            violations.append(f"{where}: e' = {event.e_prime} is not the least on the cycle")
        after = build_sequence(g, event.after)
        if not _sequence_precedes(event.sequence, after):
            violations.append(f"{where}: no strict improvement")
        for color in range(1, event.colors):
            ids = event.after.edges_of_color(color)
            if (
                len(ids) != g.n - 1
                or any(g.is_loop(e) for e in ids)
                or components(g, ids).num_classes > 1
            ):
                violations.append(f"{where}: color {color} is not a spanning tree")
        violations.extend(prefix_violations(event, after, where))

    result = pack(g, k, on_exchange=check)
    assert result.verdict == verdict
    return exchanges, violations


@pytest.mark.parametrize(
    "g, k",
    [
        pytest.param(hypercube(6), 3, id="Q6"),
        pytest.param(hypercube(8), 4, id="Q8"),
        pytest.param(union_of_spanning_trees(UNION_SEED, 200, 3), 3, id="union-n200"),
        pytest.param(complete_graph(16), 8, id="K16"),
    ],
)
def test_every_exchange_improves_keeps_trees_and_agrees_through_j(g, k):
    exchanges, violations = _exchange_violations(g, k)
    assert exchanges >= 1
    assert violations == [], violations[:5]


# (seed, r, b, k, x): r blobs of b vertices, stp = k; n = r * b.
PLANTED_CUTS = [(1, 10, 100, 2, 1), (3, 8, 125, 3, 1), (4, 25, 40, 1, 3)]


@pytest.mark.parametrize("seed, r, b, k, x", PLANTED_CUTS)
def test_planted_cut_is_certified_by_a_coarse_partition(seed, r, b, k, x):
    # One edge too few crosses the blobs for k + 1 trees, though the graph
    # has enough edges for them; the certificate found need not be the
    # blobs, but it is neither the one class nor the singletons.
    g = planted_cut(seed, r, b, k, x)
    assert g.n == 1000 and g.m == (k + 1) * (g.n - 1) + r * x - 1
    k_max, certificate = stp_number(g)
    assert k_max == k
    ok, detail = verify_certificate(g, certificate, k + 1)
    assert ok, detail
    assert 1 < certificate.num_classes < g.n


def test_every_exchange_of_a_planted_cut_certificate_stage_is_sound():
    # One new sequence build per exchange keeps the checks at n = 1,000
    # within about a second; stage k + 1 ends at a coarse certificate.
    g = planted_cut(5, 10, 100, 1, 2)
    exchanges, violations = _exchange_violations(g, 2, verdict="certificate")
    assert exchanges >= 1
    assert violations == [], violations[:5]
