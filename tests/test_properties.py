"""Property tests: multigraphs that no fixed family covers, searched by Hypothesis.

Each graph is a union of random spanning trees on one vertex block or two
(``union_of_spanning_trees`` with a drawn seed), with up to two bridges
between the blocks (none leaves it disconnected), loops and parallel
copies, its vertices relabelled and its edge ids permuted. The last
property mutates a few bytes of such a graph's file. The root
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
from treepack.cli import EXIT_INPUT_ERROR, EXIT_OK, main, parse_graph, serialize_graph

from graphs import ExchangeLog, union_of_spanning_trees
from references import line_strip_parse_graph


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
    return _relabelled(draw, n, edges)


def _relabelled(draw, n: int, edges) -> MultiGraph:
    """The multigraph of ``edges`` with its vertices relabelled and its ids permuted."""
    label = draw(st.permutations(range(n)))
    return MultiGraph(n, tuple(draw(st.permutations([(label[u], label[v]) for u, v in edges]))))


@st.composite
def instances(draw) -> tuple[MultiGraph, int]:
    """A multigraph and a ``k`` in ``0..5``: from ``k - 1`` to ``k + 1`` trees
    on each block, or, for ``k >= 2``, exactly ``k`` trees on one block of
    8-24 vertices, which packs only through exchanges."""
    k = draw(st.integers(0, 5))
    if k >= 2 and draw(st.booleans()):
        n = draw(st.integers(8, 24))
        return _relabelled(draw, n, union_of_spanning_trees(draw(st.integers(0, 2**32)), n, k).edges), k
    return draw(multigraphs(st.integers(max(1, k - 1), k + 1))), k


def _checked(g: MultiGraph, k: int) -> str:
    """``pack(g, k)``'s verdict, after the oracle has accepted its evidence
    and every exchange has passed ``exchange_violations``."""
    log = ExchangeLog(g)
    result = pack(g, k, on_exchange=log)
    assert log.violations == [], (g, k, log.violations[:5])
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


# Whitespace that str.split drops, a space test might not, and splitlines
# may end a line at; bytes the graph-file format gives meaning to; look-alike
# digits; invalid UTF-8 and any other byte.
_MUTATION_BYTES = st.one_of(
    st.sampled_from([b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c", b"\x1c", b"\x85",
                     "\x85".encode(), "\xa0".encode(), "\u2028".encode(), "\u3000".encode()]),
    st.sampled_from([*(bytes([b]) for b in b"0123456789-+_cpe"), "\uff13".encode(), b"\x00"]),
    st.binary(min_size=1, max_size=1),
)


@st.composite
def mutated_graph_files(draw) -> bytes:
    """A serialized multigraph with one to four bytes replaced, inserted or deleted."""
    data = bytearray(serialize_graph(draw(multigraphs())).encode())
    for _ in range(draw(st.integers(1, 4))):
        op, at = draw(st.sampled_from("rid")), draw(st.integers(0, len(data)))
        if op == "i":
            data[at:at] = draw(_MUTATION_BYTES)
        elif at < len(data):
            data[at:at + 1] = draw(_MUTATION_BYTES) if op == "r" else b""
    return bytes(data)


def _parsed(parse, text: str):
    """``parse(text)``'s graph, or the type and message of its ValueError."""
    try:
        return parse(text)
    except ValueError as exc:
        return type(exc), str(exc)


@given(mutated_graph_files(), st.integers(0, 5))
def test_byte_mutated_graph_file_reads_as_the_line_strip_reader_and_packs_or_exits_2(data, k):
    text = data.decode("utf-8", "replace")
    parsed = _parsed(parse_graph, text)
    assert parsed == _parsed(line_strip_parse_graph, text), data
    with tempfile.TemporaryDirectory() as work:
        graph = Path(work, "g.gr")
        graph.write_bytes(data)
        code, out, err = _main(["pack", str(graph), str(k)])
    if isinstance(parsed, MultiGraph) and text.encode() == data:
        assert (code, err) == (EXIT_OK, ""), (data, k, err)
    else:
        assert (code, out) == (EXIT_INPUT_ERROR, ""), (data, k, err)
        assert err.startswith("error: "), (data, k, err)
