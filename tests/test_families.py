"""Families with known verdicts, beyond the oracle's reach.

Every verdict is checked by the oracle's verifiers, which need no search:
a packing by its trees, a certificate by counting crossing edges. Each
instance makes at least one exchange, so the exchange loop is exercised
at sizes the corpus never reaches.
"""

from __future__ import annotations

import pytest

from treepack import MultiGraph, pack, stp_number, verify_certificate, verify_packing

from graphs import hypercube, union_of_spanning_trees

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
