"""Command line front end: DIMACS-style graph files in, JSON verdicts out.

Graph file format (1-based vertices, ``u = v`` allowed for loops)::

    c anything after a 'c' is a comment, blank lines are skipped
    p <n> <m>
    e <u> <v>        (exactly m such lines; edge ids follow line order)

Result documents are single JSON objects; trees reference edges by their
0-based id in file order, since endpoint pairs cannot identify an edge
once parallels are allowed. Exit codes: 0 definitive verdict, 1 failed
verification, 2 input error, 3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from collections.abc import Callable

from .generate import generate_graph_text
from .multigraph import MultiGraph, quotient
from .oracle import MAX_ENUMERATION_N, density_margin, verify_certificate, verify_packing
from .packer import ExchangeEvent, InternalInvariantError, PackResult, pack, stp_number
from .partition import Partition

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_INTERNAL_ERROR = 3


class GraphFileError(ValueError):
    """Malformed graph file; the message names the offending line."""


class ResultDocumentError(ValueError):
    """Malformed result document."""


def parse_graph(text: str) -> MultiGraph:
    """Parse a graph file; raises GraphFileError with a line number."""
    n: int | None = None
    m: int | None = None
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        fields = line.split()
        if fields[0] == "p":
            if n is not None:
                raise GraphFileError(f"line {lineno}: duplicate header")
            if len(fields) != 3:
                raise GraphFileError(f"line {lineno}: header must be 'p <n> <m>'")
            try:
                n, m = int(fields[1]), int(fields[2])
            except ValueError:
                raise GraphFileError(f"line {lineno}: header counts must be integers")
            if n < 1 or m < 0:
                raise GraphFileError(f"line {lineno}: need n >= 1 and m >= 0")
        elif fields[0] == "e":
            if n is None or m is None:
                raise GraphFileError(f"line {lineno}: edge before 'p' header")
            if len(fields) != 3:
                raise GraphFileError(f"line {lineno}: edge must be 'e <u> <v>'")
            try:
                u, v = int(fields[1]), int(fields[2])
            except ValueError:
                raise GraphFileError(f"line {lineno}: endpoints must be integers")
            if not (1 <= u <= n and 1 <= v <= n):
                raise GraphFileError(f"line {lineno}: endpoint out of range 1..{n}")
            if len(edges) >= m:
                raise GraphFileError(f"line {lineno}: more than {m} edge lines")
            edges.append((u - 1, v - 1))
        else:
            raise GraphFileError(f"line {lineno}: unrecognized line {fields[0]!r}")
    if n is None or m is None:
        raise GraphFileError("missing 'p <n> <m>' header")
    if len(edges) != m:
        raise GraphFileError(f"header promises {m} edges, file has {len(edges)}")
    return MultiGraph(n, tuple(edges))


def serialize_graph(g: MultiGraph) -> str:
    lines = [f"p {g.n} {g.m}"]
    lines.extend(f"e {u + 1} {v + 1}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def load_graph(path: str) -> MultiGraph:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_graph(handle.read())


def _classes_1based(p: Partition) -> list[list[int]]:
    """The classes of ``p`` with 1-based vertices, from one pass over its labels."""
    members: list[list[int]] = [[] for _ in range(p.num_classes)]
    for v, index in enumerate(p.class_of, start=1):
        members[index].append(v)
    return members


def _certificate_body(g: MultiGraph, p: Partition, k: int) -> dict:
    return {
        "classes": _classes_1based(p),
        "crossing_edges": quotient(g, p).m,
        "bound": k * (p.num_classes - 1),
    }


def _trace_record(event: ExchangeEvent, classes_1based: Callable) -> dict:
    trace = event.trace
    sequence = event.sequence
    return {
        "e": trace.e,
        "m": trace.m,
        "class_p": [v + 1 for v in trace.class_p],
        "c_m": trace.c_m,
        "cycle": list(trace.cycle),
        "e_prime": trace.e_prime,
        "j": trace.j,
        "class_q": [v + 1 for v in trace.class_q],
        "sequence": {
            "steps": [
                {"classes": classes_1based(step.partition), "splitter": step.splitter}
                for step in sequence.steps
            ],
            "terminal": classes_1based(sequence.terminal),
        },
    }


def result_document(
    g: MultiGraph, result: PackResult, events: list[ExchangeEvent] | None = None
) -> dict:
    """``pack``'s document; trace records share the class lists of equal
    partitions, each serialized once, so dump the document, do not edit it."""
    if result.trees is not None:
        doc: dict = {
            "verdict": "packing",
            "k": result.k,
            "trees": [sorted(tree) for tree in result.trees],
        }
    else:
        assert result.certificate is not None
        doc = {"verdict": "certificate", "k": result.k}
        doc.update(_certificate_body(g, result.certificate, result.k))
    if events is not None:
        classes_1based = functools.cache(_classes_1based)
        doc["trace"] = [_trace_record(event, classes_1based) for event in events]
    return doc


def _write(text: str, path: str | None) -> None:
    """Write ``text`` to the file ``path``, or to stdout when it is None."""
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _emit(doc: dict) -> None:
    _write(json.dumps(doc) + "\n", None)


def _cmd_pack(args: argparse.Namespace) -> int:
    g = load_graph(args.file)
    events: list[ExchangeEvent] = []
    result = pack(
        g,
        args.k,
        cap=args.cap,
        seedtree_order=args.seedtree_order,
        on_exchange=events.append if args.trace else None,
    )
    _emit(result_document(g, result, events if args.trace else None))
    return EXIT_OK


def _load_document(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            doc = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ResultDocumentError(f"result document is not valid JSON: {exc}")
    if not isinstance(doc, dict):
        raise ResultDocumentError("result document must be a JSON object")
    return doc


def _document_k(doc: dict) -> int:
    k = doc.get("k")
    if type(k) is not int or k < 0:
        raise ResultDocumentError("document field 'k' must be a nonnegative integer")
    return k


def _document_trees(g: MultiGraph, doc: dict) -> list[list[int]]:
    """The document's ``trees``: lists of edge ids that exist in ``g``."""
    trees = doc.get("trees")
    if not isinstance(trees, list) or not all(isinstance(t, list) for t in trees):
        raise ResultDocumentError("document field 'trees' must be a list of lists")
    for tree in trees:
        for e in tree:
            if type(e) is not int or not 0 <= e < g.m:
                raise ResultDocumentError(f"edge id {e!r} does not exist in the graph")
    return trees


def _partition_from_document(g: MultiGraph, classes: object) -> Partition:
    if not isinstance(classes, list) or not all(isinstance(c, list) for c in classes):
        raise ResultDocumentError("document field 'classes' must be a list of lists")
    zero_based = []
    for members in classes:
        for v in members:
            if type(v) is not int or not 1 <= v <= g.n:
                raise ResultDocumentError(f"vertex {v!r} does not exist in the graph")
        zero_based.append([v - 1 for v in members])
    try:
        return Partition.from_classes(zero_based, g.n)
    except ValueError as exc:
        raise ResultDocumentError(f"classes do not partition the vertex set: {exc}")


def _same_json(claimed: object, derived: object) -> bool:
    """Equal as JSON, types included: ``true`` and ``1.0`` are not ``1``."""
    return json.dumps(claimed, sort_keys=True) == json.dumps(derived, sort_keys=True)


def _check_certificate_document(g: MultiGraph, doc: dict) -> tuple[bool, str]:
    p = _partition_from_document(g, doc.get("classes"))
    k = _document_k(doc)
    crossing = quotient(g, p).m
    bound = k * (p.num_classes - 1)
    if not _same_json(doc.get("crossing_edges"), crossing):
        return False, f"document says {doc.get('crossing_edges')} crossing edges, graph has {crossing}"
    if not _same_json(doc.get("bound"), bound):
        return False, f"document says bound {doc.get('bound')}, expected {bound}"
    return verify_certificate(g, p, k)


def _check_trace(g: MultiGraph, doc: dict, seedtree_order: str) -> tuple[bool, str]:
    """Replay the run from scratch and compare every field of every record."""
    claimed = doc.get("trace")
    if not isinstance(claimed, list):
        raise ResultDocumentError("document field 'trace' must be a list")
    events: list[ExchangeEvent] = []
    result = pack(
        g, _document_k(doc), seedtree_order=seedtree_order, on_exchange=events.append
    )
    if result.verdict != doc.get("verdict"):
        return False, f"replay verdict {result.verdict!r} != document {doc.get('verdict')!r}"
    if len(events) != len(claimed):
        return False, f"replay made {len(events)} exchanges, document claims {len(claimed)}"
    derived = result_document(g, result, events)["trace"]
    for index, (replayed, record) in enumerate(zip(derived, claimed)):
        if not isinstance(record, dict):
            raise ResultDocumentError(f"trace record {index} must be an object")
        for field, value in replayed.items():
            if not _same_json(record.get(field), value):
                return False, (
                    f"trace record {index}: field {field!r} is "
                    f"{record.get(field)!r}, replay derives {value!r}"
                )
    return True, "ok"


def _cmd_verify(args: argparse.Namespace) -> int:
    g = load_graph(args.file)
    doc = _load_document(args.result)
    verdict = doc.get("verdict")
    if verdict == "packing":
        ok, detail = verify_packing(g, _document_trees(g, doc), _document_k(doc))
    elif verdict == "certificate":
        ok, detail = _check_certificate_document(g, doc)
    else:
        raise ResultDocumentError(f"unknown verdict {verdict!r}")
    if not ok:
        print(f"verification failed: {detail}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    if "trace" in doc:
        ok, detail = _check_trace(g, doc, args.seedtree_order)
        if not ok:
            print(f"trace verification failed: {detail}", file=sys.stderr)
            return EXIT_VERIFY_FAILED
    return EXIT_OK


def _cmd_stp(args: argparse.Namespace) -> int:
    g = load_graph(args.file)
    if g.n <= 1:
        _emit({"k_max": None, "unbounded": True})
        return EXIT_OK
    k_max, certificate = stp_number(g)
    doc = {
        "k_max": k_max,
        "certificate": {
            "k": k_max + 1,
            **_certificate_body(g, certificate, k_max + 1),
        },
    }
    _emit(doc)
    return EXIT_OK


def _cmd_oracle(args: argparse.Namespace) -> int:
    g = load_graph(args.file)
    if g.n > MAX_ENUMERATION_N:
        raise ValueError(f"oracle enumeration is limited to n <= {MAX_ENUMERATION_N}")
    report = density_margin(g, args.k)
    _emit(
        {
            "k": args.k,
            "margin": report.margin,
            "witness": _classes_1based(report.witness),
        }
    )
    return EXIT_OK


def _cmd_gen(args: argparse.Namespace) -> int:
    _write(generate_graph_text(args.n, args.m, args.seed), args.output)
    return EXIT_OK


_PALETTE = (
    "red",
    "blue",
    "forestgreen",
    "darkorange",
    "purple",
    "saddlebrown",
    "deeppink",
    "cadetblue",
    "olive",
    "gray40",
)


def render_dot(g: MultiGraph, doc: dict) -> str:
    """DOT rendering: one color per tree, dashed certificate-crossing edges."""
    lines = ["graph packing {", "  node [shape=circle];"]
    verdict = doc.get("verdict")
    if verdict == "packing":
        color_of: dict[int, str] = {}
        for index, tree in enumerate(_document_trees(g, doc)):
            for e in tree:
                color_of[e] = _PALETTE[index % len(_PALETTE)]
        for eid, (u, v) in enumerate(g.edges):
            color = color_of.get(eid, "gray80")
            lines.append(f'  {u + 1} -- {v + 1} [color="{color}"];')
    elif verdict == "certificate":
        p = _partition_from_document(g, doc.get("classes"))
        for v in range(g.n):
            fill = _PALETTE[p.class_of[v] % len(_PALETTE)]
            lines.append(f'  {v + 1} [style=filled, fillcolor="{fill}"];')
        for u, v in g.edges:
            style = "dashed" if p.class_of[u] != p.class_of[v] else "solid"
            lines.append(f"  {u + 1} -- {v + 1} [style={style}];")
    else:
        raise ResultDocumentError(f"unknown verdict {verdict!r}")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _cmd_dot(args: argparse.Namespace) -> int:
    g = load_graph(args.file)
    _write(render_dot(g, _load_document(args.result)), args.output)
    return EXIT_OK


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The ``treepack`` parser, built on first use and reused by every ``main``.

    Reuse is safe: ``parse_args`` returns a fresh namespace, and the
    handlers look up ``pack`` and the other library functions when called.
    """
    parser = argparse.ArgumentParser(
        prog="treepack",
        description="Pack edge-disjoint spanning trees or emit a partition certificate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_pack = sub.add_parser("pack", help="pack k spanning trees or certify impossibility")
    p_pack.add_argument("file", help="graph file")
    p_pack.add_argument("k", type=int, help="number of trees to pack")
    p_pack.add_argument("--trace", action="store_true", help="include exchange trace")
    p_pack.add_argument("--cap", type=int, default=None, help="override the exchange cap")
    p_pack.add_argument(
        "--seedtree-order", choices=("asc", "desc"), default="asc",
        help="edge-id order used when extracting each stage's tree",
    )
    p_pack.set_defaults(func=_cmd_pack)

    p_verify = sub.add_parser("verify", help="check a result document against a graph")
    p_verify.add_argument("file", help="graph file")
    p_verify.add_argument("result", help="result document (JSON file)")
    p_verify.add_argument(
        "--seedtree-order", choices=("asc", "desc"), default="asc",
        help="order the document's run used (needed to replay traces)",
    )
    p_verify.set_defaults(func=_cmd_verify)

    p_stp = sub.add_parser("stp", help="spanning-tree packing number and certificate")
    p_stp.add_argument("file", help="graph file")
    p_stp.set_defaults(func=_cmd_stp)

    p_oracle = sub.add_parser("oracle", help="exhaustive density margin over all partitions")
    p_oracle.add_argument("file", help="graph file")
    p_oracle.add_argument("k", type=int, help="number of trees")
    p_oracle.set_defaults(func=_cmd_oracle)

    p_gen = sub.add_parser("gen", help="generate a reproducible random instance")
    p_gen.add_argument("n", type=int, help="vertex count")
    p_gen.add_argument("m", type=int, help="edge count")
    p_gen.add_argument("seed", type=int, help="64-bit seed")
    p_gen.add_argument("-o", "--output", default=None, help="write to a file instead of stdout")
    p_gen.set_defaults(func=_cmd_gen)

    p_dot = sub.add_parser("dot", help="render a result document as Graphviz DOT")
    p_dot.add_argument("file", help="graph file")
    p_dot.add_argument("result", help="result document (JSON file)")
    p_dot.add_argument("-o", "--output", default=None, help="write to a file instead of stdout")
    p_dot.set_defaults(func=_cmd_dot)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InternalInvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL_ERROR
    except (OSError, ValueError) as exc:  # GraphFileError, ResultDocumentError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except MemoryError:
        print("error: input too large to hold in memory", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
