"""Plain references that tests compare the package's faster code with.

Each is the straightforward form of a function the package computes
another way, kept here so a test can compare the two outputs in full.
"""

from __future__ import annotations

from treepack import MultiGraph, Partition
from treepack.cli import GraphFileError
from treepack.oracle import DensityReport, _restricted_growth_strings


def edge_scan_density_margin(g: MultiGraph, k: int) -> DensityReport:
    """``density_margin`` by scanning every edge for every partition, in
    ``enumerate_partitions``' order; ties keep the first partition."""
    best_margin: int | None = None
    best_labels: list[int] | None = None
    for labels in _restricted_growth_strings(g.n):
        crossing = 0
        for u, v in g.edges:
            if labels[u] != labels[v]:
                crossing += 1
        margin = crossing - k * max(labels)
        if best_margin is None or margin < best_margin:
            best_margin = margin
            best_labels = list(labels)
    assert best_margin is not None and best_labels is not None
    return DensityReport(best_margin, Partition.from_class_map(best_labels))


def _integer(token: str) -> int:
    if not (token.isascii() and token.removeprefix("-").isdigit()):
        raise ValueError(f"not an integer: {token!r}")
    return int(token)


def line_strip_parse_graph(text: str) -> MultiGraph:
    """``cli.parse_graph`` with each line stripped, then tested for a comment,
    then split, and the header tested before edge lines."""
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
                n, m = _integer(fields[1]), _integer(fields[2])
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
                u, v = _integer(fields[1]), _integer(fields[2])
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
