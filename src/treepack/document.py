"""Result documents, single JSON objects: built, read and checked here only.

Trees list 0-based edge ids in graph-file order, since endpoint pairs cannot
name an edge once parallels exist; classes list 1-based vertices.
"""

from __future__ import annotations

import functools
import json
import operator
from collections.abc import Callable

from .multigraph import MultiGraph, quotient
from .oracle import DensityReport, verify_certificate, verify_packing
from .packer import ExchangeEvent, PackResult, pack
from .partition import Partition


class ResultDocumentError(ValueError):
    """Malformed result document."""


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
    sequence = event.sequence
    return {
        "e": event.e,
        "m": event.m,
        "class_p": [v + 1 for v in event.class_p],
        "c_m": event.c_m,
        "cycle": list(event.cycle),
        "e_prime": event.e_prime,
        "j": event.j,
        "class_q": [v + 1 for v in event.class_q],
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
    doc: dict = {"verdict": result.verdict, "k": result.k}
    if result.trees is not None:
        doc["trees"] = [sorted(tree) for tree in result.trees]
    else:
        assert result.certificate is not None
        doc.update(_certificate_body(g, result.certificate, result.k))
    if events is not None:
        classes_1based = functools.cache(_classes_1based)
        doc["trace"] = [_trace_record(event, classes_1based) for event in events]
    return doc


def stp_document(g: MultiGraph, stp: tuple[int, Partition] | None) -> dict:
    """``stp``'s document for ``stp_number(g)``, or for None when ``n <= 1``."""
    if stp is None:
        return {"k_max": None, "unbounded": True}
    k_max, certificate = stp
    return {
        "k_max": k_max,
        "certificate": {"k": k_max + 1, **_certificate_body(g, certificate, k_max + 1)},
    }


def oracle_document(k: int, report: DensityReport) -> dict:
    """``oracle``'s document for ``density_margin(g, k)``'s report."""
    return {"k": k, "margin": report.margin, "witness": _classes_1based(report.witness)}


def load_document(path: str) -> dict:
    """The JSON object in the file ``path``."""
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


def _document_classes(g: MultiGraph, doc: dict) -> Partition:
    """The document's ``classes``: a partition of ``g``'s 1-based vertices."""
    classes = doc.get("classes")
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


def _mismatch(claimed: dict, derived: dict, same: Callable[[object, object], bool]) -> str | None:
    """The first field of ``derived`` that ``claimed`` does not hold, by ``same``."""
    for field, value in derived.items():
        if not same(claimed.get(field), value):
            return f"field {field!r} is {claimed.get(field)!r}, replay derives {value!r}"
    return None


def _check_certificate(g: MultiGraph, doc: dict) -> tuple[bool, str]:
    p = _document_classes(g, doc)
    k = _document_k(doc)
    crossing = sum(p.class_of[u] != p.class_of[v] for u, v in g.edges)
    bound = k * (p.num_classes - 1)
    if not _same_json(doc.get("crossing_edges"), crossing):
        return False, f"document says {doc.get('crossing_edges')} crossing edges, graph has {crossing}"
    if not _same_json(doc.get("bound"), bound):
        return False, f"document says bound {doc.get('bound')}, expected {bound}"
    return verify_certificate(g, p, k)


def _trace_mismatch(g: MultiGraph, doc: dict, seedtree_order: str) -> str | None:
    """The first field of the document, or of a trace record, that a replay
    of the run does not derive. ``==`` is exact outside the trace only
    because the verdict's readers type-checked those fields first, and a
    differing verdict is compared first; records are compared as JSON."""
    claimed = doc.get("trace")
    if not isinstance(claimed, list):
        raise ResultDocumentError("document field 'trace' must be a list")
    events: list[ExchangeEvent] = []
    result = pack(g, _document_k(doc), seedtree_order=seedtree_order, on_exchange=events.append)
    replay = result_document(g, result, events)
    derived = replay.pop("trace")
    mismatch = _mismatch(doc, replay, operator.eq)
    if mismatch is not None:
        return mismatch
    if len(events) != len(claimed):
        return f"replay made {len(events)} exchanges, document claims {len(claimed)}"
    for index, (replayed, record) in enumerate(zip(derived, claimed)):
        if not isinstance(record, dict):
            raise ResultDocumentError(f"trace record {index} must be an object")
        mismatch = _mismatch(record, replayed, _same_json)
        if mismatch is not None:
            return f"trace record {index}: {mismatch}"
    return None


def check_document(g: MultiGraph, doc: dict, seedtree_order: str) -> str | None:
    """Why ``doc`` does not verify against ``g``, or None: a packing or a
    certificate on its own, then a trace against a replay with ``seedtree_order``."""
    verdict = doc.get("verdict")
    if verdict == "packing":
        ok, detail = verify_packing(g, _document_trees(g, doc), _document_k(doc))
    elif verdict == "certificate":
        ok, detail = _check_certificate(g, doc)
    else:
        raise ResultDocumentError(f"unknown verdict {verdict!r}")
    if not ok:
        return f"verification failed: {detail}"
    if "trace" in doc:
        mismatch = _trace_mismatch(g, doc, seedtree_order)
        if mismatch is not None:
            return f"trace verification failed: {mismatch}"
    return None


_PALETTE = ("red", "blue", "forestgreen", "darkorange", "purple", "saddlebrown", "deeppink",
            "cadetblue", "olive", "gray40")


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
        p = _document_classes(g, doc)
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
