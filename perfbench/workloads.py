"""Fixed-seed inputs and the batches the benchmark runs.

A workload builds a list of items from the seed (``setup``): a graph with
the calls to make on it, or one CLI instance. A batch runs every item once
(``run`` per item). The package only ever sees the generated graphs and
CLI arguments. Every output is checked, and a check that fails is
counted, never raised.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import os
import time
from dataclasses import dataclass, field
from types import ModuleType
from typing import Callable, NamedTuple


@dataclass
class Package:
    """The imported package. Functions are looked up on each call, so a
    traced batch sees the recorder's rebindings."""

    treepack: ModuleType
    cli: ModuleType


def splitmix64() -> type:
    """The package's SplitMix64, wherever it lives."""
    for name in ("treepack.generate", "treepack.cli", "treepack"):
        try:
            module = importlib.import_module(name)
        except ImportError:
            continue
        if hasattr(module, "SplitMix64"):
            return module.SplitMix64
    raise ImportError("treepack has no SplitMix64")


def shuffle(rng, items: list) -> None:
    for i in range(len(items) - 1, 0, -1):
        j = rng.below(i + 1)
        items[i], items[j] = items[j], items[i]


def union_of_trees(rng, n: int, k: int) -> list[tuple[int, int]]:
    """Edges of ``k`` random spanning trees on ``n`` vertices, ids shuffled.

    Each tree attaches the vertices of a random order one by one to a
    random earlier vertex.
    """
    edges = []
    for _ in range(k):
        order = list(range(n))
        shuffle(rng, order)
        for i in range(1, n):
            edges.append((order[i], order[rng.below(i)]))
    shuffle(rng, edges)
    return edges


def complete_graph(n: int) -> list[tuple[int, int]]:
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


@dataclass
class Batch:
    """Timings, counters, checks and the result digest of one batch.

    ``items[i]`` holds the seconds item ``i`` spent in each kind of call
    (``pack``, ``stp``, ``verify``, ...) and in all (``wall``).
    """

    op_hook: Callable[[int], None] | None = None
    items: list[dict[str, float]] = field(default_factory=list)
    call_seconds: list[float] = field(default_factory=list)
    exchanges: int = 0
    trace_bytes: int = 0
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    digest: "hashlib._Hash" = field(default_factory=hashlib.sha256)
    _op_failed: bool = False

    @property
    def seconds(self) -> dict[str, float]:
        """Timings of the item being run."""
        return self.items[-1]

    def begin(self) -> None:
        """Mark the start of one top-level operation."""
        self.attempted += 1
        self._op_failed = False
        if self.op_hook is not None:
            self.op_hook(self.attempted)

    def check(self, ok: bool, detail: str) -> None:
        """Record one check of the operation begun last; it fails at most once."""
        if ok:
            return
        if not self._op_failed:
            self._op_failed = True
            self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(detail)

    def call(self, kind: str, fn: Callable, *args, **kwargs):
        """Run ``fn``, adding its time to ``kind``."""
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.seconds[kind] += time.perf_counter() - start

    def document(self, text: str) -> None:
        self.digest.update(text.encode())


def _verify_packing(pkg: Package, b: Batch, g, result, k: int) -> None:
    if result.trees is None:
        b.check(False, f"pack(n={g.n}, k={k}) gave a certificate, expected a packing")
        return
    ok, detail = b.call("verify", pkg.treepack.verify_packing, g, result.trees, k)
    b.check(ok, f"pack(n={g.n}, k={k}) packing: {detail}")


def _verify_certificate(pkg: Package, b: Batch, g, partition, k: int, what: str) -> None:
    if partition is None:
        b.check(False, f"{what} gave a packing, expected a certificate")
        return
    ok, detail = b.call("verify", pkg.treepack.verify_certificate, g, partition, k)
    b.check(ok, f"{what} certificate: {detail}")


def _pack(pkg: Package, b: Batch, g, k: int, expect: str) -> None:
    """Library ``pack`` with its trace, checked against the known verdict."""
    b.begin()
    events: list = []
    result = b.call("pack", pkg.treepack.pack, g, k, on_exchange=events.append)
    if expect == "packing":
        _verify_packing(pkg, b, g, result, k)
    else:
        _verify_certificate(pkg, b, g, result.certificate, k, f"pack(n={g.n}, k={k})")
    b.exchanges += result.exchanges
    text = json.dumps(pkg.cli.result_document(g, result, events)) + "\n"
    b.trace_bytes += len(text)
    b.document(text)


def _stp(pkg: Package, b: Batch, g, expect: int) -> None:
    b.begin()
    k_max, certificate = b.call("stp", pkg.treepack.stp_number, g)
    b.check(k_max == expect, f"stp(n={g.n}) = {k_max}, expected {expect}")
    _verify_certificate(pkg, b, g, certificate, k_max + 1, f"stp(n={g.n})")
    b.document(json.dumps({"k_max": k_max, "classes": certificate.classes}) + "\n")


class UnionPack:
    name = "union-pack"
    # (n, graphs, calls) per size. Many graphs per size keep the batch's
    # cost close to the same from seed to seed, since the cost of one
    # graph varies widely. stp, which reruns every stage, runs on many
    # small unions for the same reason.
    sizes = ((16, 320, "stp"), (100, 12, "pack"), (150, 8, "pack"))
    tiny = ((8, 2, "stp"), (12, 2, "pack"), (16, 1, "pack"))

    def setup(self, pkg: Package, seed: int, workdir: str, tiny: bool = False) -> list:
        rng = splitmix64()(seed)
        items = []
        for n, count, calls in self.tiny if tiny else self.sizes:
            for _ in range(count):
                edges = tuple(union_of_trees(rng, n, 3))
                items.append((pkg.treepack.MultiGraph(n, edges), calls))
        return items

    def run(self, pkg: Package, item: tuple, b: Batch) -> None:
        g, calls = item
        if calls == "stp":
            _stp(pkg, b, g, 3)
        else:
            _pack(pkg, b, g, 3, "packing")
            _pack(pkg, b, g, 4, "certificate")


class CompleteStp:
    name = "complete-stp"
    # K_n is one graph per n, so the seed does not change the inputs.
    # pack and stp are items of their own, so that each is timed beside
    # its own calibration.
    sizes = (16, 20, 24, 28)
    tiny = (6, 8)

    def setup(self, pkg: Package, seed: int, workdir: str, tiny: bool = False) -> list:
        return [
            (pkg.treepack.MultiGraph(n, tuple(complete_graph(n))), calls)
            for n in (self.tiny if tiny else self.sizes)
            for calls in ("pack", "stp")
        ]

    def run(self, pkg: Package, item: tuple, b: Batch) -> None:
        g, calls = item
        if calls == "pack":
            _pack(pkg, b, g, g.n // 2, "packing")
        else:
            _stp(pkg, b, g, g.n // 2)


class CliInstance(NamedTuple):
    n: int
    m: int
    k: int
    seed: int
    graph: str  # file written by `treepack gen`
    result: str  # file holding the `treepack pack --trace` document


class CliRoundtrip:
    name = "cli-roundtrip"
    # (instances, n span): n runs over 6 .. 6 + span - 1, with m = 3n, and
    # k over 1..3. Every (n, k) gets the same number of instances, in an
    # order drawn from the seed, so the batch's cost does not hang on how
    # many large n with k = 3 the seed happens to draw.
    sizes = (720, 40)
    tiny = (12, 4)
    oracle_max_n = 8

    def setup(self, pkg: Package, seed: int, workdir: str, tiny: bool = False) -> list:
        rng = splitmix64()(seed)
        os.makedirs(workdir, exist_ok=True)
        items = []
        count, span = self.tiny if tiny else self.sizes
        pairs = [(6 + i % span, 1 + i // span % 3) for i in range(count)]
        shuffle(rng, pairs)
        for i, (n, k) in enumerate(pairs):
            items.append(CliInstance(
                n, 3 * n, k, rng.next_word(),
                os.path.join(workdir, f"g{i}.txt"), os.path.join(workdir, f"r{i}.json"),
            ))
        return items

    def _main(self, pkg: Package, b: Batch, kind: str, argv: list[str]) -> tuple[int, str]:
        """One in-process ``treepack`` call: (exit code, standard output)."""
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = pkg.cli.main(argv)
        except SystemExit as exc:  # argparse exits on a usage error
            code = exc.code if isinstance(exc.code, int) else 2
        elapsed = time.perf_counter() - start
        b.seconds[kind] += elapsed
        b.call_seconds.append(elapsed)
        if code != 0:
            b.check(False, f"treepack {' '.join(argv)} exited {code}: {err.getvalue().strip()}")
        return code, out.getvalue()

    def run(self, pkg: Package, item: CliInstance, b: Batch) -> None:
        graph, result, k = item.graph, item.result, item.k
        b.begin()
        if self._main(pkg, b, "gen", ["gen", str(item.n), str(item.m), str(item.seed), "-o", graph])[0]:
            return
        with open(graph, encoding="utf-8") as handle:
            b.document(handle.read())

        b.begin()
        code, text = self._main(pkg, b, "pack", ["pack", graph, str(k), "--trace"])
        if code:
            return
        doc = json.loads(text)
        b.exchanges += len(doc["trace"])
        b.trace_bytes += len(text)
        b.document(text)
        with open(result, "w", encoding="utf-8") as handle:
            handle.write(text)
        packs = doc["verdict"] == "packing"

        b.begin()
        self._main(pkg, b, "verify", ["verify", graph, result])

        b.begin()
        code, text = self._main(pkg, b, "stp", ["stp", graph])
        if not code:
            b.document(text)
            stp = json.loads(text)
            certificate = stp["certificate"]
            b.check(
                (stp["k_max"] >= k) == packs
                and certificate["crossing_edges"] < certificate["bound"],
                f"stp k_max={stp['k_max']} disagrees with pack k={k} ({doc['verdict']})",
            )

        b.begin()
        code, text = self._main(pkg, b, "dot", ["dot", graph, result])
        if not code:
            b.document(text)

        if item.n <= self.oracle_max_n:
            b.begin()
            code, text = self._main(pkg, b, "oracle", ["oracle", graph, str(k)])
            if not code:
                b.document(text)
                margin = json.loads(text)["margin"]
                b.check(
                    (margin >= 0) == packs,
                    f"oracle margin {margin} disagrees with pack k={k} ({doc['verdict']})",
                )


WORKLOADS = {w.name: w for w in (UnionPack(), CompleteStp(), CliRoundtrip())}
