"""Command line front end: DIMACS-style graph files in, JSON verdicts out.

Graph file format (1-based vertices, ``u = v`` allowed for loops)::

    c anything after a 'c' is a comment, blank lines are skipped
    p <n> <m>
    e <u> <v>        (exactly m such lines; edge ids follow line order)

Result documents live in ``treepack.document``. Exit codes: 0 definitive
verdict, 1 failed verification, 2 input error, 3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .document import (
    check_document,
    load_document,
    oracle_document,
    render_dot,
    result_document,
    stp_document,
)
from .generate import random_graph
from .multigraph import MultiGraph
from .oracle import density_margin
from .packer import ExchangeEvent, InternalInvariantError, pack, stp_number

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_INTERNAL_ERROR = 3


class GraphFileError(ValueError):
    """Malformed graph file; the message names the offending line."""


def integer(token: str) -> int:
    """``token`` as an int if it is ASCII ``-?[0-9]+`` (``int`` takes ``1_0``, ``３``)."""
    if not (token.isascii() and token.removeprefix("-").isdigit()):
        raise ValueError(f"not an integer: {token!r}")
    return int(token)


def parse_graph(text: str) -> MultiGraph:
    """Parse a graph file; raises GraphFileError with a line number."""
    n: int | None = None
    m: int | None = None
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split()  # also drops leading and trailing whitespace
        if not fields:
            continue
        head = fields[0]
        if head == "e":
            if n is None or m is None:
                raise GraphFileError(f"line {lineno}: edge before 'p' header")
            if len(fields) != 3:
                raise GraphFileError(f"line {lineno}: edge must be 'e <u> <v>'")
            try:
                u, v = integer(fields[1]), integer(fields[2])
            except ValueError:
                raise GraphFileError(f"line {lineno}: endpoints must be integers")
            if not (1 <= u <= n and 1 <= v <= n):
                raise GraphFileError(f"line {lineno}: endpoint out of range 1..{n}")
            if len(edges) >= m:
                raise GraphFileError(f"line {lineno}: more than {m} edge lines")
            edges.append((u - 1, v - 1))
        elif head[0] == "c":
            continue
        elif head == "p":
            if n is not None:
                raise GraphFileError(f"line {lineno}: duplicate header")
            if len(fields) != 3:
                raise GraphFileError(f"line {lineno}: header must be 'p <n> <m>'")
            try:
                n, m = integer(fields[1]), integer(fields[2])
            except ValueError:
                raise GraphFileError(f"line {lineno}: header counts must be integers")
            if n < 1 or m < 0:
                raise GraphFileError(f"line {lineno}: need n >= 1 and m >= 0")
        else:
            raise GraphFileError(f"line {lineno}: unrecognized line {head!r}")
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


def _cmd_verify(args: argparse.Namespace) -> int:
    g = load_graph(args.file)
    failure = check_document(g, load_document(args.result), args.seedtree_order)
    if failure is not None:
        print(failure, file=sys.stderr)
        return EXIT_VERIFY_FAILED
    return EXIT_OK


def _cmd_stp(args: argparse.Namespace) -> int:
    g = load_graph(args.file)
    _emit(stp_document(g, stp_number(g) if g.n > 1 else None))
    return EXIT_OK


def _cmd_oracle(args: argparse.Namespace) -> int:
    g = load_graph(args.file)
    _emit(oracle_document(args.k, density_margin(g, args.k)))
    return EXIT_OK


def _cmd_gen(args: argparse.Namespace) -> int:
    _write(serialize_graph(random_graph(args.n, args.m, args.seed)), args.output)
    return EXIT_OK


def _cmd_dot(args: argparse.Namespace) -> int:
    g = load_graph(args.file)
    _write(render_dot(g, load_document(args.result)), args.output)
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
    p_pack.add_argument("k", type=integer, help="number of trees to pack")
    p_pack.add_argument("--trace", action="store_true", help="include exchange trace")
    p_pack.add_argument("--cap", type=integer, default=None, help="override the exchange cap")
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
    p_oracle.add_argument("k", type=integer, help="number of trees")
    p_oracle.set_defaults(func=_cmd_oracle)

    p_gen = sub.add_parser("gen", help="generate a reproducible random instance")
    p_gen.add_argument("n", type=integer, help="vertex count")
    p_gen.add_argument("m", type=integer, help="edge count")
    p_gen.add_argument("seed", type=integer, help="64-bit seed")
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
    except OverflowError as exc:
        print(f"error: input too large: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
