"""Span recorder for the traced run, attached from outside the package.

Each layer is a public function or method of one ``treepack`` module. The
recorder rebinds it to a wrapper that appends a span: name, start, end,
parent span and the id of the top-level operation that caused it. The
package itself is not edited; the wrappers are removed again after each
traced batch. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict
from typing import Callable, NamedTuple

ALL = ("union-pack", "complete-stp", "cli-roundtrip")
CLI = ("cli-roundtrip",)


class Layer(NamedTuple):
    name: str
    module: str
    attribute: str  # "function" or "Class.method"
    workloads: tuple[str, ...]  # where the span is expected to fire


# The one rebinding table. Functions are rebound in their defining module
# and in every other treepack module that holds the same object (for
# example ``components`` in ``packer`` and ``oracle``, ``restrict_components``
# in ``kpartition``, ``pack`` in ``cli`` and the package namespace).
LAYERS = (
    Layer("partition.from_class_map", "treepack.partition", "Partition.from_class_map", ALL),
    Layer("partition.validate", "treepack.partition", "Partition.__post_init__", ALL),
    Layer("multigraph.components", "treepack.multigraph", "components", ALL),
    Layer("multigraph.restrict_components", "treepack.multigraph", "restrict_components", ALL),
    Layer("multigraph.cycle_edges", "treepack.multigraph", "cycle_edges", ALL),
    Layer("multigraph.fundamental_cycle", "treepack.multigraph", "fundamental_cycle", ALL),
    Layer("multigraph.quotient", "treepack.multigraph", "quotient", ALL),
    Layer("kpartition.build_sequence", "treepack.kpartition", "build_sequence", ALL),
    Layer("kpartition.edge_levels", "treepack.kpartition", "edge_levels", ALL),
    Layer("kpartition.edges_of_color", "treepack.kpartition", "KPartition.edges_of_color", ALL),
    Layer("kpartition.recolor", "treepack.kpartition", "KPartition.recolor", ALL),
    Layer("packer.pack", "treepack.packer", "pack", ALL),
    Layer("packer.stp_number", "treepack.packer", "stp_number", ALL),
    Layer("packer.run_stage", "treepack.packer", "run_stage", ALL),
    Layer("packer.density_check", "treepack.packer", "density_check", ALL),
    Layer("packer.greedy_spanning_tree", "treepack.packer", "greedy_spanning_tree", ALL),
    Layer("oracle.verify_packing", "treepack.oracle", "verify_packing", ALL),
    Layer("oracle.verify_certificate", "treepack.oracle", "verify_certificate", ALL),
    Layer("oracle.density_margin", "treepack.oracle", "density_margin", CLI),
    Layer("cli.main", "treepack.cli", "main", CLI),
    Layer("cli.parse_graph", "treepack.cli", "parse_graph", CLI),
    Layer("cli.result_document", "treepack.cli", "result_document", ALL),
)


def _argument(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


# Per-span observations, stored as the span's tag. A hook that no longer
# fits the function's signature leaves the tag empty and its metric absent.
OBSERVE: dict[str, Callable] = {
    "multigraph.restrict_components": lambda args, kwargs, result: (
        result.num_classes > _argument(args, kwargs, 2, "p").num_classes
    ),
    "kpartition.build_sequence": lambda args, kwargs, result: len(result.steps),
    "packer.run_stage": lambda args, kwargs, result: (result.exchanges, kwargs.get("cap")),
    "packer.stp_number": lambda args, kwargs, result: result[0],
    "cli.main": lambda args, kwargs, result: _argument(args, kwargs, 0, "argv")[0],
}


class Recorder:
    """Rebinds the layer table's functions to span-recording wrappers."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, op, tag]
        self.op = 0
        self.absent: list[str] = []
        self.sites: dict[str, list[str]] = {}
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        """Start a fresh span list and rebind every layer that still exists."""
        self.spans = []
        self._stack = []
        self.absent = []
        self.sites = {}
        modules = [
            (name, module)
            for name, module in sorted(sys.modules.items())
            if module is not None and (name == "treepack" or name.startswith("treepack."))
        ]
        for layer in LAYERS:
            owner = sys.modules.get(layer.module)
            path = layer.attribute.split(".")
            for part in path[:-1]:
                owner = getattr(owner, part, None)
            attribute = path[-1]
            if owner is None or attribute not in vars(owner):
                self.absent.append(layer.name)
                continue
            if inspect.isclass(owner):
                raw = vars(owner)[attribute]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(layer.name, raw.__func__))
                else:
                    wrapped = self._wrap(layer.name, raw)
                self._rebind(owner, attribute, wrapped)
                self.sites[layer.name] = [f"{layer.module}.{layer.attribute}"]
                continue
            original = getattr(owner, attribute)
            wrapped = self._wrap(layer.name, original)
            self.sites[layer.name] = []
            for name, module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, key, wrapped)
                        self.sites[layer.name].append(f"{name}.{key}")

    def uninstall(self) -> None:
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)

    def _rebind(self, owner: object, attribute: str, value: object) -> None:
        self._saved.append((owner, attribute, vars(owner)[attribute]))
        setattr(owner, attribute, value)

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        observe = OBSERVE.get(name)
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, recorder.op, None]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if observe is not None:
                try:
                    span[5] = observe(args, kwargs, result)
                except (LookupError, AttributeError, TypeError):
                    pass
            return result

        return traced


def _nearest(spans: list[list], name: str) -> list[int]:
    """For each span, the index of its closest ancestor-or-self called ``name``."""
    nearest = [-1] * len(spans)
    for index, span in enumerate(spans):
        parent = span[3]
        if span[0] == name:
            nearest[index] = index
        elif parent >= 0:
            nearest[index] = nearest[parent]
    return nearest


def aggregate(spans: list[list]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced batch: ``{metric: (value, unit)}``.

    ``self_s`` is a span's duration minus the time its child spans cover.
    Metrics of layers that never fired are left out.
    """
    covered = [0.0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            covered[span[3]] += span[2] - span[1]
    calls: dict[str, int] = defaultdict(int)
    busy: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    tags: dict[str, list] = defaultdict(list)
    for index, span in enumerate(spans):
        name = span[0]
        duration = span[2] - span[1]
        calls[name] += 1
        busy[name] += duration
        own[name] += duration - covered[index]
        if span[5] is not None:
            tags[name].append(span[5])

    out: dict[str, tuple[float, str]] = {}
    for name in calls:
        out[f"{name}.calls"] = (calls[name], "count")
        out[f"{name}.busy_s"] = (busy[name], "s")
        out[f"{name}.self_s"] = (own[name], "s")

    splits = tags.get("multigraph.restrict_components")
    if splits:
        out["multigraph.restrict_components.split_ratio"] = (sum(splits) / len(splits), "ratio")
    depths = tags.get("kpartition.build_sequence")
    if depths:
        out["kpartition.build_sequence.depth_max"] = (max(depths), "count")
        out["kpartition.build_sequence.depth_mean"] = (sum(depths) / len(depths), "count")
    stages = tags.get("packer.run_stage")
    if stages:
        out["packer.exchanges"] = (sum(x for x, _ in stages), "count")
        out["packer.exchanges_per_stage.max"] = (max(x for x, _ in stages), "count")
        capped = [x / cap for x, cap in stages if cap]
        if capped:
            out["packer.cap_headroom"] = (max(capped), "ratio")

    # Stages run per stp call against the k_max + 1 that one pass needs.
    stp_of = _nearest(spans, "packer.stp_number")
    stages_in: dict[int, int] = defaultdict(int)
    for index, span in enumerate(spans):
        if span[0] == "packer.run_stage" and stp_of[index] >= 0:
            stages_in[stp_of[index]] += 1
    reuse = [
        (spans[i][5] + 1) / stages_in[i]
        for i in stages_in
        if isinstance(spans[i][5], int)
    ]
    if reuse:
        out["packer.stp.stage_reuse"] = (sum(reuse) / len(reuse), "ratio")

    # Time spent replaying pack under `treepack verify`.
    main_of = _nearest(spans, "cli.main")
    if "cli.main" in calls:
        replay = sum(
            span[2] - span[1]
            for index, span in enumerate(spans)
            if span[0] == "packer.pack"
            and main_of[index] >= 0
            and spans[main_of[index]][5] == "verify"
        )
        out["cli.verify.replay_s"] = (replay, "s")
    return out


# Which end-to-end metric each per-layer metric should move, and on which
# workload, written down before any change is measured. Keyed by metric, or
# by layer for all of a layer's metrics.
SHOULD_MOVE = {
    "partition.from_class_map": "exchanges_per_s, pack_s on union-pack (most) and complete-stp; ~none on cli-roundtrip",
    "partition.validate": "exchanges_per_s, pack_s on union-pack (most) and complete-stp; ~none on cli-roundtrip",
    "multigraph.restrict_components": "pack_s on union-pack",
    "kpartition.build_sequence": "exchanges_per_s on union-pack",
    "kpartition.edge_levels": "exchanges_per_s on union-pack",
    "kpartition.edges_of_color": "stp_s, pack_s on complete-stp",
    "kpartition.recolor": "stp_s, pack_s on complete-stp",
    "multigraph.components": "stp_s, pack_s on complete-stp",
    "packer.density_check": "stp_s, pack_s on complete-stp",
    "multigraph.cycle_edges": "exchanges_per_s on union-pack and complete-stp",
    "multigraph.fundamental_cycle": "exchanges_per_s on union-pack and complete-stp",
    "packer.run_stage.self_s": "exchanges_per_s on union-pack and complete-stp",
    "packer.run_stage.calls": "stp_s on complete-stp; none on union-pack",
    "packer.stp.stage_reuse": "stp_s on complete-stp; none on union-pack",
    "packer.greedy_spanning_tree": "stp_s on complete-stp; none on union-pack",
    "packer.pack.self_s": "pack_s on every workload (pack time no layer span covers)",
    "packer.exchanges": "none: correctness evidence for the exchange cap",
    "packer.exchanges_per_stage.max": "none: correctness evidence for the exchange cap",
    "packer.cap_headroom": "none: correctness evidence for the exchange cap",
    "cli.main": "wall_s, pack_s (and cli_call_s.p50) on cli-roundtrip",
    "cli.parse_graph": "wall_s, pack_s (and cli_call_s.p50) on cli-roundtrip",
    "cli.result_document": "wall_s (and cli_call_s.p50, trace_bytes) on cli-roundtrip",
    "cli.trace_bytes_per_exchange": "trace_bytes on cli-roundtrip",
    "cli.verify.replay_s": "verify_s on cli-roundtrip",
    "oracle.verify_packing": "verify_s on cli-roundtrip and union-pack",
    "oracle.verify_certificate": "verify_s on cli-roundtrip and union-pack",
    "oracle.density_margin": "verify_s on cli-roundtrip",
    "multigraph.quotient": "verify_s on cli-roundtrip and union-pack",
}


def should_move(metric: str) -> str | None:
    return SHOULD_MOVE.get(metric) or SHOULD_MOVE.get(metric.rsplit(".", 1)[0])
