"""Run one benchmark workload against the treepack sources of this checkout.

    python3 perfbench/run.py --workload union-pack --seed 1 --seconds 40 --trace 0

The workload runs closed loop in this one process, with one client and one
thread: it repeats whole batches over the inputs generated from ``--seed``
until ``--seconds`` have passed, and checks every output. Lines starting
with ``info`` carry the result digest and the figures BENCHMARK.json does
not list. The last line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace 1``.
A traced run also runs untraced batches, so it can print the tracing
overhead and check that tracing leaves every result document unchanged.

Every end-to-end time is scaled to a reference host speed by the
calibration kernel of ``calibrate.py``, timed beside each item and each
set-up; the ``info batches`` line gives the raw seconds too. Per-layer
times are raw seconds.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

from calibrate import Meter
from spans import LAYERS, Recorder, aggregate
from workloads import WORKLOADS, Batch, Package

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUPS_PER_BATCH = 2  # setup_s is the median of all set-ups in a run


def import_package() -> Package:
    """Import treepack afresh from this checkout's ``src``."""
    for name in [n for n in sys.modules if n == "treepack" or n.startswith("treepack.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    treepack = importlib.import_module("treepack")
    if not Path(treepack.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"treepack was imported from {treepack.__file__}, not {SRC}")
    return Package(treepack, importlib.import_module("treepack.cli"))


def run_batch(workload, pkg: Package, items: list, meter: Meter, recorder: Recorder | None = None) -> Batch:
    """Run every item once, timing each and scaling its times to the
    reference speed."""
    batch = Batch()
    if recorder is not None:
        batch.op_hook = lambda op: setattr(recorder, "op", op)
        recorder.install()
    try:
        for item in items:
            batch.items.append(defaultdict(float))
            calls = len(batch.call_seconds)
            start = time.perf_counter()
            try:
                workload.run(pkg, item, batch)
            except Exception:  # a crash in the package fails the operation
                batch.check(False, traceback.format_exc(limit=-3))
            wall = time.perf_counter() - start
            scale = meter.scale(wall)
            times = batch.items[-1]
            times["wall"] = wall
            for kind in times:
                times[kind] *= scale
            batch.call_seconds[calls:] = [s * scale for s in batch.call_seconds[calls:]]
    finally:
        if recorder is not None:
            recorder.uninstall()
    return batch


def batch_seconds(batches: list[Batch], kind: str) -> float:
    """Seconds one batch spends in ``kind``: the sum over items of each
    item's median over the batches. Per-item medians drop the items that
    ran while the machine was briefly slower."""
    return sum(
        statistics.median(b.items[i][kind] for b in batches)
        for i in range(len(batches[0].items))
    )


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def info(label: str, payload: object) -> None:
    print(f"info {label} {json.dumps(payload, sort_keys=True)}")


def end_to_end(batches: list[Batch], setup_s: float) -> dict[str, tuple[float, str]]:
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (batch_seconds(batches, "wall"), "s"),
        "pack_s": (batch_seconds(batches, "pack"), "s"),
        "stp_s": (batch_seconds(batches, "stp"), "s"),
        "verify_s": (batch_seconds(batches, "verify"), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(aggregates: list[dict]) -> dict[str, tuple[float, str]]:
    """Times are medians over the traced batches; counts repeat exactly."""
    out = {}
    for metric, (value, unit) in aggregates[0].items():
        if unit == "s":
            value = statistics.median(a[metric][0] for a in aggregates if metric in a)
        out[metric] = (value, unit)
    return out


def write_spans(path: Path, spans: list[list]) -> None:
    path.parent.mkdir(exist_ok=True)
    with gzip.open(path, "wt", encoding="utf-8") as handle:
        for name, start, end, parent, op, tag in spans:
            handle.write(json.dumps([name, start, end, parent, op, tag]) + "\n")


def main(argv: list[str] | None = None, tiny: bool = False) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "treepack" / "__init__.py").is_file():
        print(f"error: no treepack sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workload = WORKLOADS[args.workload]
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    sys.path.insert(0, str(SRC))
    setup_times: list[float] = []
    meter = Meter()

    def setup():
        start = time.perf_counter()
        pkg = import_package()
        items = workload.setup(pkg, args.seed, str(workdir), tiny)
        elapsed = time.perf_counter() - start
        setup_times.append(elapsed * meter.scale(elapsed))
        return pkg, items

    try:
        pkg, items = setup()
        recorder = Recorder() if args.trace else None
        plain: list[Batch] = []
        traced: list[Batch] = []
        aggregates: list[dict] = []
        first_spans: list[list] = []
        start = time.perf_counter()
        while True:
            begun = time.perf_counter()
            plain.append(run_batch(workload, pkg, items, meter))
            if recorder is not None:
                traced.append(run_batch(workload, pkg, items, meter, recorder))
                aggregates.append(aggregate(recorder.spans))
                first_spans = first_spans or recorder.spans
            # Set-up is repeated between batches, so that its median, like
            # the batches', spreads over the whole run.
            for _ in range(SETUPS_PER_BATCH):
                pkg, items = setup()
            now = time.perf_counter()
            if now - start + (now - begun) > args.seconds:
                break
    finally:
        sys.path.remove(str(SRC))
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    batches = plain + traced
    attempted = sum(b.attempted for b in batches)
    failed = sum(b.failed for b in batches)
    failures = [f for b in batches for f in b.failures][:5]
    reference = plain[0]
    seconds = [sum(item["wall"] for item in b.items) for b in plain]
    # Every batch, traced or not, must write the same result documents.
    digest = reference.digest.hexdigest()
    differing = sum(b.digest.hexdigest() != digest for b in batches)
    if differing:
        failed += differing
        failures.append(f"{differing} batches wrote other result documents than the first")
    info("digest", {"sha256": digest})
    info("batches", {
        "count": len(plain),
        "traced": len(traced),
        "items": len(reference.items),
        "wall_s": seconds,
        "setups": len(setup_times),
        "raw_s": meter.raw_seconds,
        "scaled_s": meter.scaled_seconds,
    })
    # Exchanges and trace bytes repeat exactly for a seed, so
    # exchanges_per_s moves exactly as pack_s does.
    info("counts", {
        "exchanges": {"value": reference.exchanges, "unit": "count"},
        "exchanges_per_s": {"value": reference.exchanges / batch_seconds(plain, "pack"), "unit": "1/s"},
        "trace_bytes": {"value": reference.trace_bytes, "unit": "bytes"},
        "failed_ratio": {"value": failed / attempted, "unit": "ratio"},
    })
    calls = [s for b in plain for s in b.call_seconds]
    if calls:
        info("cli_call_s", {
            "p50": {"value": percentile(calls, 0.5), "unit": "s"},
            "p90": {"value": percentile(calls, 0.9), "unit": "s"},
            "samples": len(calls),
        })
    for detail in failures:
        print(f"failure: {detail}", file=sys.stderr)

    if recorder is None:
        metrics = end_to_end(plain, statistics.median(setup_times))
        listed = spec["end_to_end"]
    else:
        metrics = per_layer(aggregates)
        listed = spec["per_layer"]
        if reference.exchanges:
            metrics["cli.trace_bytes_per_exchange"] = (reference.trace_bytes / reference.exchanges, "bytes")
        untraced_wall = batch_seconds(plain, "wall")
        traced_wall = batch_seconds(traced, "wall")
        info("tracing_overhead", {
            "traced_wall_s": traced_wall,
            "untraced_wall_s": untraced_wall,
            "overhead_s": traced_wall - untraced_wall,
        })
        if "packer.pack.busy_s" in metrics:
            busy = metrics["packer.pack.busy_s"][0]
            remainder = metrics["packer.pack.self_s"][0]
            info("pack_accounting", {
                "pack_busy_s": busy,
                "children_self_s": busy - remainder,
                "remainder_s": remainder,
                "remainder_share": remainder / busy,
            })
        unfired = [
            layer.name
            for layer in LAYERS
            if args.workload in layer.workloads
            and layer.name not in recorder.absent
            and f"{layer.name}.calls" not in metrics
        ]
        info("layers", {
            "absent": recorder.absent,
            "unfired": unfired,
            "sites": recorder.sites,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
        })
        for name in unfired:
            print(f"warning: span {name} never fired on {args.workload}", file=sys.stderr)
        spans_path = ROOT / ".bench_out" / f"spans-{args.workload}.jsonl.gz"
        write_spans(spans_path, first_spans)
        info("spans", {"path": str(spans_path.relative_to(ROOT)), "count": len(first_spans)})

    out = {}
    for entry in listed:
        if entry["name"] in metrics:
            value, unit = metrics[entry["name"]]
            out[entry["name"]] = {"value": value, "unit": unit}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": out,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
