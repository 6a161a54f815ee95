"""Tests of the benchmark itself, on tiny inputs.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _result(capsys, workload: str, trace: int) -> tuple[dict, list[str], str]:
    """The final JSON object, the lines before it, and standard error."""
    code = run.main(
        ["--workload", workload, "--seed", "7", "--seconds", "0.05", "--trace", str(trace)],
        tiny=True,
    )
    captured = capsys.readouterr()
    lines = captured.out.strip().splitlines()
    assert code == 0
    return json.loads(lines[-1]), lines[:-1], captured.err


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_prints_every_metric_with_its_unit(capsys, workload):
    plain, plain_info, _ = _result(capsys, workload, 0)
    traced, traced_info, warnings = _result(capsys, workload, 1)
    assert "never fired" not in warnings
    for result, listed in ((plain, SPEC["end_to_end"]), (traced, SPEC["per_layer"])):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        for entry in listed:
            metric = result["metrics"][entry["name"]]
            assert metric["unit"] == entry["unit"]
            assert isinstance(metric["value"], (int, float))
        assert len(result["metrics"]) == len(listed)
    # The traced run reproduces the untraced run's result digest.
    digest = [line for line in plain_info if line.startswith("info digest")]
    assert digest and digest == [line for line in traced_info if line.startswith("info digest")]


def test_every_per_layer_metric_names_what_it_should_move():
    assert [e["name"] for e in SPEC["per_layer"] if not spans.should_move(e["name"])] == []


def test_corrupted_packing_is_counted_in_failed_ratio(capsys, monkeypatch):
    """Each packing of a tree missing one edge is one failed operation."""
    import_package = run.import_package

    def corrupted_package():
        pkg = import_package()
        pack = pkg.treepack.pack

        def pack_dropping_an_edge(g, k, **kwargs):
            result = pack(g, k, **kwargs)
            if result.trees is None:
                return result
            first, *rest = result.trees
            return dataclasses.replace(result, trees=(frozenset(sorted(first)[1:]), *rest))

        monkeypatch.setattr(pkg.treepack, "pack", pack_dropping_an_edge)
        return pkg

    monkeypatch.setattr(run, "import_package", corrupted_package)
    result, info, errors = _result(capsys, "union-pack", 0)
    assert result["correct"] is False
    packings = sum(count for n, count, calls in workloads.UnionPack.tiny if calls == "pack")
    assert result["failed"] > 0 and result["failed"] % packings == 0
    counts = json.loads(next(line for line in info if line.startswith("info counts")).split(" ", 2)[2])
    assert counts["failed_ratio"]["value"] == result["failed"] / result["attempted"]
    assert "tree 0 has" in errors


def test_a_layer_missing_after_a_refactor_is_absent_not_a_crash(monkeypatch):
    sys.path.insert(0, str(run.SRC))
    try:
        run.import_package()
    finally:
        sys.path.remove(str(run.SRC))
    gone = spans.Layer("multigraph.gone", "treepack.multigraph", "gone", spans.ALL)
    monkeypatch.setattr(spans, "LAYERS", (*spans.LAYERS, gone))
    recorder = spans.Recorder()
    recorder.install()
    recorder.uninstall()
    assert recorder.absent == ["multigraph.gone"]
    assert "treepack.packer.components" in recorder.sites["multigraph.components"]
