"""Property tests: multigraphs that no fixed family covers, searched by Hypothesis.

Each graph is a union of random spanning trees on one vertex block or two
(``union_of_spanning_trees`` with a drawn seed), with up to two bridges
between the blocks (none leaves it disconnected), loops and parallel
copies, its vertices relabelled and its edge ids permuted. The root
``conftest.py`` derandomizes the search, so every run checks the same
examples.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, strategies as st

from treepack import MultiGraph, pack, stp_number, verify_certificate, verify_packing
from treepack.cli import EXIT_OK, main, serialize_graph

from graphs import union_of_spanning_trees


@st.composite
def multigraphs(draw, trees: st.SearchStrategy[int] = st.integers(1, 4)) -> MultiGraph:
    n, count = draw(st.integers(2, 24)), draw(trees)
    cut = draw(st.integers(1, n - 1)) if draw(st.booleans()) else n
    edges = []
    for first, size in ((0, cut), (cut, n - cut)):
        if size:
            block = union_of_spanning_trees(draw(st.integers(0, 2**32)), size, count)
            edges += [(first + u, first + v) for u, v in block.edges]
    if cut < n:
        for _ in range(draw(st.integers(0, 2))):
            edges.append((draw(st.integers(0, cut - 1)), draw(st.integers(cut, n - 1))))
    for v in draw(st.lists(st.integers(0, n - 1), max_size=3)):
        edges.append((v, v))
    if edges:
        edges += draw(st.lists(st.sampled_from(edges), max_size=4))
    label = draw(st.permutations(range(n)))
    return MultiGraph(n, tuple(draw(st.permutations([(label[u], label[v]) for u, v in edges]))))


@st.composite
def instances(draw) -> tuple[MultiGraph, int]:
    """A multigraph and a ``k`` in ``0..5``, from ``k - 1`` to ``k + 1`` trees
    on each block, so that many runs need exchanges."""
    k = draw(st.integers(0, 5))
    return draw(multigraphs(st.integers(max(1, k - 1), k + 1))), k


def _checked(g: MultiGraph, k: int) -> str:
    """``pack(g, k)``'s verdict, after the oracle has accepted its evidence."""
    result = pack(g, k)
    if result.trees is not None:
        ok, detail = verify_packing(g, result.trees, k)
    else:
        ok, detail = verify_certificate(g, result.certificate, k)
    assert ok, (g, k, result.verdict, detail)
    return result.verdict


@given(instances())
def test_pack_returns_evidence_the_oracle_accepts(instance):
    g, k = instance
    _checked(g, k)


@given(multigraphs())
def test_stp_number_packs_its_count_and_certifies_the_next(g):
    s, certificate = stp_number(g)
    assert _checked(g, s) == "packing", (g, s)
    assert verify_certificate(g, certificate, s + 1)[0], (g, s, certificate)


def _main(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@given(instances())
def test_cli_traced_pack_verifies(instance):
    g, k = instance
    with tempfile.TemporaryDirectory() as work:
        graph, result = Path(work, "g.gr"), Path(work, "result.json")
        graph.write_text(serialize_graph(g))
        code, out, err = _main(["pack", str(graph), str(k), "--trace"])
        assert code == EXIT_OK, (g, k, err)
        assert json.loads(out)["k"] == k
        result.write_text(out)
        code, _, err = _main(["verify", str(graph), str(result)])
        assert code == EXIT_OK, (g, k, err)
