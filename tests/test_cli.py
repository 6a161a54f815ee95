from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import treepack
import treepack.document
from treepack import ExchangeEvent, MultiGraph, Partition, pack, verify_packing
from treepack.cli import (
    EXIT_INPUT_ERROR,
    EXIT_INTERNAL_ERROR,
    EXIT_OK,
    EXIT_VERIFY_FAILED,
    GraphFileError,
    main,
    parse_graph,
    result_document,
    serialize_graph,
)
from treepack.generate import SplitMix64, random_graph

from graphs import (
    FAMILIES,
    complete_graph,
    deadline,
    family_run,
    path_graph,
    random_multigraph,
)


K4_TEXT = "p 4 6\ne 1 2\ne 1 3\ne 1 4\ne 2 3\ne 2 4\ne 3 4\n"


def _write(tmp_path, name: str, text: str) -> str:
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _run(capsys, argv: list[str]) -> tuple[int, str, str]:
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# parsing -------------------------------------------------------------------

def test_parse_triangle():
    g = parse_graph("p 3 3\ne 1 2\ne 1 3\ne 2 3\n")
    assert g.n == 3
    assert g.edges == ((0, 1), (0, 2), (1, 2))


def test_parse_single_vertex_no_edges():
    g = parse_graph("p 1 0\n")
    assert g.n == 1 and g.m == 0


def test_parse_parallel_pair_and_comments():
    g = parse_graph("c header comment\n\np 2 2\ne 1 2\nc again\ne 1 2\n")
    assert g.edges == ((0, 1), (0, 1))


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("e 1 2\n", "before 'p'"),
        ("p 2\n", "header"),
        ("p 2 1\n", "promises 1 edges"),
        ("p 2 1\ne 1 3\n", "out of range"),
        ("p 2 1\ne 1 2\ne 2 2\n", "more than 1"),
        ("p 2 1\nq 1 2\n", "unrecognized"),
        ("p 2 x\n", "integers"),
        ("p 0 0\n", "n >= 1"),
        ("p 2 1\np 2 1\n", "duplicate header"),
        ("p 2 1\ne 1\n", "edge must be"),
        ("p 2 1\ne 1 x\n", "endpoints must be integers"),
        ("c no header\n", "missing 'p"),
        # Only ASCII -?[0-9]+: int() alone reads "1_0" as 10 and a full-width 3 as 3.
        ("p 1_0 0\n", "line 1: header counts must be integers"),
        ("p \uff13 0\n", "line 1: header counts must be integers"),
        ("p +3 0\n", "line 1: header counts must be integers"),
        ("c\np 2 1\ne 1 0_2\n", "line 3: endpoints must be integers"),
        ("p 2 1\ne \u0661 2\n", "line 2: endpoints must be integers"),
        ("p 2 -1\n", "line 1: need n >= 1 and m >= 0"),
    ],
)
def test_parse_errors_carry_context(text, fragment):
    with pytest.raises(GraphFileError) as err:
        parse_graph(text)
    assert fragment in str(err.value)


def test_parse_serialize_round_trip():
    g = MultiGraph(3, ((0, 1), (1, 1), (0, 2), (0, 1)))
    assert parse_graph(serialize_graph(g)) == g


# gen -----------------------------------------------------------------------

def test_splitmix64_reference_stream():
    # transcription check against an independent rendering of the update
    def reference(seed: int, count: int) -> list[int]:
        mask = 2**64 - 1
        out = []
        x = seed
        for _ in range(count):
            x = (x + 0x9E3779B97F4A7C15) & mask
            z = x
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
            out.append(z ^ (z >> 31))
        return out

    rng = SplitMix64(42)
    assert [rng.next_word() for _ in range(5)] == reference(42, 5)


def test_splitmix64_known_answers():
    # The first words of the published algorithm's streams, as other
    # implementations print them; a seed is taken modulo 2**64.
    rng = SplitMix64(0)
    assert [rng.next_word() for _ in range(3)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]
    for seed in (1234567, 1234567 + 2**64):
        rng = SplitMix64(seed)
        assert [rng.next_word(), rng.next_word()] == [6457827717110365317, 3203168211198807973]
    rng = SplitMix64(1234567)
    assert [rng.below(10**9) for _ in range(2)] == [
        6457827717110365317 % 10**9,
        3203168211198807973 % 10**9,
    ]


def test_gen_is_reproducible_and_well_formed(tmp_path, capsys):
    code_a, out_a, _ = _run(capsys, ["gen", "4", "6", "1"])
    code_b, out_b, _ = _run(capsys, ["gen", "4", "6", "1"])
    assert code_a == code_b == EXIT_OK
    assert out_a == out_b
    g = parse_graph(out_a)
    assert g.n == 4 and g.m == 6
    # The bytes `gen 4 6 1` has always written: endpoints are 1 + word % n.
    assert out_a == "p 4 6\ne 2 4\ne 3 4\ne 2 1\ne 2 2\ne 1 3\ne 2 3\n"
    assert g == random_graph(4, 6, 1)
    assert _run(capsys, ["gen", "3", "0", "5"])[1] == "p 3 0\n"
    assert _run(capsys, ["gen", "0", "5", "1"])[:2] == (EXIT_INPUT_ERROR, "")


def test_random_graph_takes_exact_ints():
    # Each raised a bare TypeError; a bool is not an int either.
    for args in ((3, 2.5, 1), (3, 3, 1.5), ("3", 3, 1), (True, 3, 1), (3, 3, False)):
        with pytest.raises(ValueError, match="^(n|m|seed) must be an int, not "):
            random_graph(*args)


def test_gen_writes_files_identically(tmp_path, capsys):
    first = tmp_path / "a.gr"
    second = tmp_path / "b.gr"
    assert main(["gen", "5", "9", "7", "-o", str(first)]) == EXIT_OK
    assert main(["gen", "5", "9", "7", "-o", str(second)]) == EXIT_OK
    assert first.read_bytes() == second.read_bytes()


# pack ------------------------------------------------------------------------

def test_cmd_pack_k4(tmp_path, capsys):
    path = _write(tmp_path, "k4.gr", K4_TEXT)
    code, out, _ = _run(capsys, ["pack", path, "2"])
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["verdict"] == "packing"
    assert doc["k"] == 2
    ok, detail = verify_packing(complete_graph(4), doc["trees"], 2)
    assert ok, detail


def test_cmd_pack_path_certificate(tmp_path, capsys):
    path = _write(tmp_path, "p4.gr", serialize_graph(path_graph(4)))
    code, out, _ = _run(capsys, ["pack", path, "2"])
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["verdict"] == "certificate"
    assert doc["classes"] == [[1], [2], [3], [4]]
    assert doc["crossing_edges"] == 3
    assert doc["bound"] == 6


def test_cmd_pack_disconnected_k1(tmp_path, capsys):
    path = _write(tmp_path, "dis.gr", "p 4 2\ne 1 2\ne 3 4\n")
    code, out, _ = _run(capsys, ["pack", path, "1"])
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["verdict"] == "certificate"
    assert doc["classes"] == [[1, 2], [3, 4]]


def test_cmd_pack_trace_records_exchanges(tmp_path, capsys):
    path = _write(tmp_path, "k4.gr", K4_TEXT)
    code, out, _ = _run(capsys, ["pack", path, "2", "--trace"])
    assert code == EXIT_OK
    doc = json.loads(out)
    assert len(doc["trace"]) >= 1
    record = doc["trace"][0]
    assert record["j"] < record["m"]
    assert set(record) >= {"e", "m", "class_p", "c_m", "cycle", "e_prime", "j", "class_q", "sequence"}


def test_cmd_pack_input_errors(tmp_path, capsys):
    missing, _, _ = _run(capsys, ["pack", str(tmp_path / "nope.gr"), "2"])
    assert missing == EXIT_INPUT_ERROR
    bad = _write(tmp_path, "bad.gr", "p 2 9\ne 1 2\n")
    code, _, err = _run(capsys, ["pack", bad, "2"])
    assert code == EXIT_INPUT_ERROR and "error" in err
    wide = _write(tmp_path, "wide.gr", "p \uff13 0\n")
    code, _, err = _run(capsys, ["pack", wide, "2"])
    assert (code, err) == (EXIT_INPUT_ERROR, "error: line 1: header counts must be integers\n")
    k4 = _write(tmp_path, "k4.gr", K4_TEXT)
    code, _, _ = _run(capsys, ["pack", k4, "-1"])
    assert code == EXIT_INPUT_ERROR


def _usage_error(capsys, argv: list[str]) -> str:
    """``"<exit code>: <last stderr line>"`` for arguments that argparse rejects."""
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    captured = capsys.readouterr()
    assert captured.out == ""
    return f"{exit_info.value.code}: {captured.err.splitlines()[-1]}"


# Each integer argument is read like a graph file's counts: int() took these.
def test_cmd_pack_takes_integer_arguments_by_the_graph_file_rule(tmp_path, capsys):
    k4 = _write(tmp_path, "k4.gr", K4_TEXT)
    for argv, name, token in (([k4, "1_0"], "k", "1_0"), ([k4, "\uff12"], "k", "\uff12"),
                              ([k4, "2", "--cap", " 5"], "--cap", " 5")):
        assert _usage_error(capsys, ["pack", *argv]) == (
            f"2: treepack pack: error: argument {name}: invalid integer value: {token!r}"
        )


def test_cmd_oracle_takes_k_by_the_graph_file_rule(tmp_path, capsys):
    k4 = _write(tmp_path, "k4.gr", K4_TEXT)
    for token in ("+2", "2_0"):
        assert _usage_error(capsys, ["oracle", k4, token]) == (
            f"2: treepack oracle: error: argument k: invalid integer value: {token!r}"
        )


def test_cmd_gen_takes_integer_arguments_by_the_graph_file_rule(capsys):
    for argv, name, token in ((["\uff13", "1", "\uff17"], "n", "\uff13"),
                              (["3", "1_0", "7"], "m", "1_0"), (["3", "1", " 7"], "seed", " 7")):
        assert _usage_error(capsys, ["gen", *argv]) == (
            f"2: treepack gen: error: argument {name}: invalid integer value: {token!r}"
        )
    assert _run(capsys, ["gen", "3", "1", "-7"])[0] == EXIT_OK  # a negative seed is an int


def test_cmd_pack_cap_exceeded_is_internal_error(tmp_path, capsys):
    path = _write(tmp_path, "k4.gr", K4_TEXT)
    code, _, err = _run(capsys, ["pack", path, "2", "--cap", "0"])
    assert code == EXIT_INTERNAL_ERROR
    assert "cap" in err


def test_cmd_pack_negative_cap_is_input_error(tmp_path, capsys):
    path = _write(tmp_path, "k8.gr", serialize_graph(complete_graph(8)))
    code, out, err = _run(capsys, ["pack", path, "4", "--cap", "-3"])
    assert code == EXIT_INPUT_ERROR
    assert out == ""
    assert err == "error: exchange cap must be >= 0, not -3\n"


def test_cmd_pack_out_of_memory_is_input_error(tmp_path, capsys, monkeypatch):
    # A header such as ``p 1000000000 0`` parses, and the packer then runs out
    # of memory; simulate that without allocating.
    def out_of_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr("treepack.cli.pack", out_of_memory)
    path = _write(tmp_path, "k4.gr", K4_TEXT)
    code, out, err = _run(capsys, ["pack", path, "2"])
    assert code == EXIT_INPUT_ERROR
    assert out == ""
    assert err == "error: input too large to hold in memory\n"


HUGE = "100000000000000000000"


@pytest.mark.parametrize(
    "text, argv",
    [
        pytest.param(f"p {HUGE} 0\n", ["pack", "FILE", "1"], id="pack-n"),
        pytest.param(f"p {HUGE} 0\n", ["stp", "FILE"], id="stp-n"),
        pytest.param("p 1 0\n", ["pack", "FILE", HUGE], id="pack-k-one-vertex"),
        pytest.param(None, ["gen", "3", HUGE, "1"], id="gen-m"),
        pytest.param(None, ["gen", HUGE, "0", "1"], id="gen-n"),
    ],
)
def test_cmd_sizes_beyond_an_index_are_input_errors(tmp_path, capsys, text, argv):
    # The pack and stp cases once ended in an OverflowError traceback with
    # exit 1, the code of a failed verification. `gen` once drew edges
    # until memory ran out, or wrote a header that pack rejects; the
    # deadline fails a run that does not end instead of waiting for it.
    path = _write(tmp_path, "huge.gr", text) if text is not None else None
    with deadline():
        code, out, err = _run(capsys, [path if arg == "FILE" else arg for arg in argv])
    assert code == EXIT_INPUT_ERROR
    assert out == ""
    assert err.startswith("error: input too large") and err.count("\n") == 1


def test_cmd_pack_k_beyond_the_certificate_bound(tmp_path, capsys):
    path = _write(tmp_path, "p3.gr", serialize_graph(path_graph(3)))
    code, out, _ = _run(capsys, ["pack", path, HUGE])
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["verdict"] == "certificate" and doc["k"] == int(HUGE)
    assert doc["classes"] == [[1], [2], [3]]


def test_cmd_pack_deterministic_output(tmp_path, capsys):
    path = _write(tmp_path, "k4.gr", K4_TEXT)
    _, out_a, _ = _run(capsys, ["pack", path, "2", "--trace"])
    _, out_b, _ = _run(capsys, ["pack", path, "2", "--trace"])
    assert out_a == out_b


def _reference_record(event: ExchangeEvent) -> dict:
    """A trace record serialized on its own, each partition through ``classes``."""
    def classes(p: Partition) -> list[list[int]]:
        return [[v + 1 for v in members] for members in p.classes]

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
                {"classes": classes(step.partition), "splitter": step.splitter}
                for step in sequence.steps
            ],
            "terminal": classes(sequence.terminal),
        },
    }


def test_result_document_matches_records_serialized_one_by_one():
    # Equal partitions share one serialization per document; the bytes do not change.
    union = FAMILIES["union-n200"][0]
    runs = [(FAMILIES[name][0], family_run(name)) for name in ("Q6", "union-n200")]
    packed = [(g, run.result, run.events) for g, run in runs]
    cases = [(complete_graph(12), 6), (complete_graph(12), 7), (union, 4)]
    cases += [(random_multigraph(seed), 1 + seed % 3) for seed in range(300)]
    for g, k in cases:
        events: list[ExchangeEvent] = []
        packed.append((g, pack(g, k, on_exchange=events.append), events))
    exchanges = 0
    for g, result, events in packed:
        expected = {**result_document(g, result), "trace": [_reference_record(e) for e in events]}
        assert json.dumps(result_document(g, result, events)) == json.dumps(expected)
        exchanges += len(events)
    assert exchanges >= 150, exchanges


# verify ------------------------------------------------------------------------

def test_cmd_verify_accepts_pack_output(tmp_path, capsys):
    graph = _write(tmp_path, "k4.gr", K4_TEXT)
    code, out, _ = _run(capsys, ["pack", graph, "2", "--trace"])
    assert code == EXIT_OK
    result = _write(tmp_path, "result.json", out)
    code, _, err = _run(capsys, ["verify", graph, result])
    assert code == EXIT_OK, err


def test_cmd_verify_replays_the_seedtree_order_it_is_given(tmp_path, capsys):
    # On K5 the two orders extract different trees, so only the order pack
    # used replays the document.
    graph = _write(tmp_path, "k5.gr", serialize_graph(complete_graph(5)))
    code, out, _ = _run(capsys, ["pack", graph, "2", "--trace", "--seedtree-order", "desc"])
    assert code == EXIT_OK
    result = _write(tmp_path, "result.json", out)
    code, _, err = _run(capsys, ["verify", graph, result, "--seedtree-order", "desc"])
    assert code == EXIT_OK, err
    code, _, err = _run(capsys, ["verify", graph, result])
    assert code == EXIT_VERIFY_FAILED
    assert err == (
        "trace verification failed: field 'trees' is [[0, 6, 8, 9], [2, 3, 5, 7]], "
        "expected [[1, 2, 3, 4], [0, 5, 6, 7]]\n"
    )


def test_cmd_verify_rejects_repeated_edge_id(tmp_path, capsys):
    graph = _write(tmp_path, "k4.gr", K4_TEXT)
    doc = {"verdict": "packing", "k": 2, "trees": [[0, 1, 2], [0, 4, 5]]}
    result = _write(tmp_path, "result.json", json.dumps(doc))
    code, _, err = _run(capsys, ["verify", graph, result])
    assert code == EXIT_VERIFY_FAILED
    assert "share" in err


def test_cmd_verify_rejects_non_violating_certificate(tmp_path, capsys):
    graph = _write(tmp_path, "k4.gr", K4_TEXT)
    doc = {
        "verdict": "certificate",
        "k": 2,
        "classes": [[1], [2], [3], [4]],
        "crossing_edges": 6,
        "bound": 6,
    }
    result = _write(tmp_path, "result.json", json.dumps(doc))
    code, _, err = _run(capsys, ["verify", graph, result])
    assert code == EXIT_VERIFY_FAILED


def test_cmd_verify_rejects_tampered_trace(tmp_path, capsys):
    graph = _write(tmp_path, "k4.gr", K4_TEXT)
    code, out, _ = _run(capsys, ["pack", graph, "2", "--trace"])
    assert code == EXIT_OK
    forged = {
        "e": 5,
        "m": 2,
        "class_p": [1, 2, 3],
        "c_m": 2,
        "cycle": [0, 2, 3],
        "e_prime": 5,
        "j": 1,
        "class_q": [1, 2, 3],
        "sequence": {"steps": [], "terminal": [[1], [2], [3], [4]]},
    }
    record = json.loads(out)["trace"][0]
    assert list(forged) == list(record)
    for field, value in forged.items():
        assert record[field] != value
        doc = json.loads(out)
        doc["trace"][0][field] = value
        result = _write(tmp_path, "result.json", json.dumps(doc))
        code, _, err = _run(capsys, ["verify", graph, result])
        assert code == EXIT_VERIFY_FAILED, field
        assert f"field {field!r}" in err
    doc = json.loads(out)
    claimed = len(doc["trace"])
    doc["trace"].pop()
    result = _write(tmp_path, "result.json", json.dumps(doc))
    code, _, err = _run(capsys, ["verify", graph, result])
    assert code == EXIT_VERIFY_FAILED
    assert f"replay made {claimed} exchanges, document claims {claimed - 1}" in err


TWO_K4_TEXT = K4_TEXT.replace("p 4 6", "p 8 13") + "e 5 6\ne 5 7\ne 5 8\ne 6 7\ne 6 8\ne 7 8\ne 1 5\n"


@pytest.mark.parametrize(
    "text, forged",
    [
        # The other packing of K4: valid, but not the one the trace makes.
        (K4_TEXT, {"trees": [[0, 3, 5], [1, 2, 4]]}),
        # Two K4s joined by one edge: a violating partition, but the trace
        # certifies with the singletons.
        (TWO_K4_TEXT, {"classes": [[1, 2, 3, 4], [5, 6, 7, 8]], "crossing_edges": 1, "bound": 2}),
    ],
    ids=["k4-other-packing", "two-k4-other-certificate"],
)
def test_cmd_verify_binds_a_traced_document_to_its_replay(tmp_path, capsys, text, forged):
    graph = _write(tmp_path, "g.gr", text)
    code, out, _ = _run(capsys, ["pack", graph, "2", "--trace"])
    assert code == EXIT_OK
    doc = json.loads(out)
    assert all(doc[field] != value for field, value in forged.items())
    doc.update(forged)
    untraced = {field: value for field, value in doc.items() if field != "trace"}
    result = _write(tmp_path, "untraced.json", json.dumps(untraced))
    assert _run(capsys, ["verify", graph, result])[0] == EXIT_OK  # valid on its own
    result = _write(tmp_path, "result.json", json.dumps(doc))
    code, _, err = _run(capsys, ["verify", graph, result])
    assert code == EXIT_VERIFY_FAILED
    assert f"field {next(iter(forged))!r} is" in err


@pytest.mark.parametrize(
    "field, value",
    [
        ("m", True),
        ("m", 1.0),
        ("j", False),
        ("e_prime", 0.0),
        ("cycle", [0, True, 3]),
        ("cycle", [0, 1.0, 3]),
    ],
)
def test_cmd_verify_trace_integers_must_be_json_integers(tmp_path, capsys, field, value):
    # Record 0 of K4's `pack 2 --trace` has m 1, j 0, e_prime 0 and cycle
    # [0, 1, 3]; Python compares true and 1.0 equal to 1, JSON does not.
    graph = _write(tmp_path, "k4.gr", K4_TEXT)
    _, out, _ = _run(capsys, ["pack", graph, "2", "--trace"])
    doc = json.loads(out)
    assert doc["trace"][0][field] == value
    doc["trace"][0][field] = value
    result = _write(tmp_path, "result.json", json.dumps(doc))
    code, _, err = _run(capsys, ["verify", graph, result])
    assert code == EXIT_VERIFY_FAILED
    assert f"field {field!r} is {json.dumps(value)}, expected" in err  # values as JSON


def _forge_bool(doc: dict, where: str) -> None:
    if where == "tree edge":
        doc["trees"][0][0] = True  # edge id 1
    elif where == "k":
        doc["k"] = True
    else:
        doc["classes"][0][0] = True  # vertex 1


@pytest.mark.parametrize(
    "k, where",
    [(2, "tree edge"), (2, "k"), (3, "k"), (3, "certificate vertex")],
)
def test_cmd_verify_rejects_bool_for_integer(tmp_path, capsys, k, where):
    graph = _write(tmp_path, "k4.gr", K4_TEXT)
    _, out, _ = _run(capsys, ["pack", graph, str(k)])
    doc = json.loads(out)
    assert doc["verdict"] == ("packing" if k == 2 else "certificate")
    _forge_bool(doc, where)
    result = _write(tmp_path, "result.json", json.dumps(doc))
    code, _, err = _run(capsys, ["verify", graph, result])
    assert code == EXIT_INPUT_ERROR, err


def test_cmd_verify_certificate_counts_must_be_json_integers(tmp_path, capsys):
    # The counts are compared as JSON, by the rule and message of a trace field.
    graph = _write(tmp_path, "k4.gr", K4_TEXT)
    _, out, _ = _run(capsys, ["pack", graph, "3"])
    for field in ("crossing_edges", "bound"):
        for forge in (float, lambda count: count + 1):
            doc = json.loads(out)
            derived = doc[field]
            doc[field] = forge(derived)
            result = _write(tmp_path, "result.json", json.dumps(doc))
            code, _, err = _run(capsys, ["verify", graph, result])
            assert code == EXIT_VERIFY_FAILED, field
            assert f"field {field!r} is {json.dumps(doc[field])}, expected {derived}" in err


def test_cmd_verify_malformed_documents(tmp_path, capsys):
    graph = _write(tmp_path, "k4.gr", K4_TEXT)
    _, out, _ = _run(capsys, ["pack", graph, "2", "--trace"])
    traced = json.loads(out)
    for text, fragment in (
        ("not json", "not valid JSON"),
        ("[]", "must be a JSON object"),
        (json.dumps({"verdict": "maybe"}), "unknown verdict"),
        (json.dumps({"verdict": "packing", "k": 2, "trees": [[99, 1, 2], [3, 4, 5]]}), "edge id 99"),
        (json.dumps({"verdict": "certificate", "k": 2, "classes": [[1, 2], [2, 3, 4]],
                     "crossing_edges": 0, "bound": 2}), "do not partition"),
        (json.dumps({"verdict": "certificate", "k": 2, "classes": 5,
                     "crossing_edges": 0, "bound": 2}), "'classes' must be a list of lists"),
        (json.dumps({**traced, "trace": {}}), "'trace' must be a list"),
        (json.dumps({**traced, "trace": [5, *traced["trace"][1:]]}), "trace record 0 must be an object"),
    ):
        result = _write(tmp_path, "result.json", text)
        code, _, err = _run(capsys, ["verify", graph, result])
        assert code == EXIT_INPUT_ERROR, text
        assert fragment in err, (text, err)


@pytest.mark.parametrize("command", ["verify", "dot"])
def test_cmd_certificate_with_an_empty_class_is_input_error(tmp_path, capsys, command):
    # verify failed on the bound (exit 1) and dot drew the one-class partition (exit 0).
    graph = _write(tmp_path, "k4.gr", K4_TEXT)
    doc = {"verdict": "certificate", "k": 1, "classes": [[1, 2, 3, 4], []],
           "crossing_edges": 0, "bound": 1}
    result = _write(tmp_path, "result.json", json.dumps(doc))
    code, out, err = _run(capsys, [command, graph, result])
    assert (code, out) == (EXIT_INPUT_ERROR, "")
    assert err.startswith("error: classes do not partition the vertex set: "), err


@pytest.mark.parametrize("command", ["verify", "dot"])
def test_cmd_deeply_nested_document_is_input_error(tmp_path, capsys, command):
    # json.load raised RecursionError here, which left main as a traceback
    # and exit 1, the code of a failed verification.
    graph = _write(tmp_path, "k4.gr", K4_TEXT)
    result = _write(tmp_path, "deep.json", "[" * 200_000)
    code, out, err = _run(capsys, [command, graph, result])
    assert (code, out) == (EXIT_INPUT_ERROR, "")
    assert err == "error: result document is nested too deeply to read\n"


# stp / oracle --------------------------------------------------------------------

def test_cmd_stp_on_k6(tmp_path, capsys):
    graph = _write(tmp_path, "k6.gr", serialize_graph(complete_graph(6)))
    code, out, _ = _run(capsys, ["stp", graph])
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["k_max"] == 3
    assert doc["certificate"]["k"] == 4
    assert doc["certificate"]["crossing_edges"] < doc["certificate"]["bound"]


def test_cmd_stp_tree_and_single_vertex(tmp_path, capsys):
    tree = _write(tmp_path, "t.gr", serialize_graph(path_graph(5)))
    code, out, _ = _run(capsys, ["stp", tree])
    assert code == EXIT_OK and json.loads(out)["k_max"] == 1
    tiny = _write(tmp_path, "one.gr", "p 1 0\n")
    code, out, _ = _run(capsys, ["stp", tiny])
    assert code == EXIT_OK
    assert json.loads(out) == {"k_max": None, "unbounded": True}


def test_cmd_oracle_k4(tmp_path, capsys):
    graph = _write(tmp_path, "k4.gr", K4_TEXT)
    code, out, _ = _run(capsys, ["oracle", graph, "2"])
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["margin"] == 0


def test_cmd_oracle_rejects_large_n(tmp_path, capsys):
    graph = _write(tmp_path, "big.gr", "p 13 0\n")
    code, _, err = _run(capsys, ["oracle", graph, "1"])
    assert code == EXIT_INPUT_ERROR
    assert "1..12" in err


# dot -------------------------------------------------------------------------------

def test_cmd_dot_packing_and_certificate(tmp_path, capsys):
    graph = _write(tmp_path, "k4.gr", K4_TEXT)
    _, out, _ = _run(capsys, ["pack", graph, "2"])
    result = _write(tmp_path, "result.json", out)
    code, dot, _ = _run(capsys, ["dot", graph, result])
    assert code == EXIT_OK
    assert dot.startswith("graph packing {")
    assert 'color="red"' in dot and 'color="blue"' in dot

    path_file = _write(tmp_path, "p4.gr", serialize_graph(path_graph(4)))
    _, out, _ = _run(capsys, ["pack", path_file, "2"])
    cert = _write(tmp_path, "cert.json", out)
    code, dot, _ = _run(capsys, ["dot", path_file, cert])
    assert code == EXIT_OK
    assert "style=dashed" in dot

    unknown = _write(tmp_path, "maybe.json", json.dumps({"verdict": "maybe"}))
    code, dot, err = _run(capsys, ["dot", graph, unknown])
    assert (code, dot) == (EXIT_INPUT_ERROR, "")
    assert "unknown verdict 'maybe'" in err


@pytest.mark.parametrize("trees", [5, [3], [[[1]]]], ids=["int", "list-of-ints", "nested-lists"])
def test_cmd_dot_malformed_packing_is_input_error(tmp_path, capsys, trees):
    graph = _write(tmp_path, "k4.gr", K4_TEXT)
    result = _write(tmp_path, "result.json", json.dumps({"verdict": "packing", "trees": trees}))
    code, out, err = _run(capsys, ["dot", graph, result])
    assert code == EXIT_INPUT_ERROR
    assert out == ""
    assert err.startswith("error: ")


# repeated in-process calls -----------------------------------------------------------
# ``main`` builds its parser once per process; no call may see another's options.

def test_main_trace_option_does_not_carry_over(tmp_path, capsys):
    graph = _write(tmp_path, "k4.gr", K4_TEXT)
    code, out, _ = _run(capsys, ["pack", graph, "2", "--trace", "--seedtree-order", "desc"])
    assert code == EXIT_OK and "trace" in json.loads(out)
    code, out, _ = _run(capsys, ["pack", graph, "2"])
    assert code == EXIT_OK
    assert "trace" not in json.loads(out)
    assert out == json.dumps(json.loads(out)) + "\n"
    _, asc, _ = _run(capsys, ["pack", graph, "2", "--seedtree-order", "asc"])
    assert out == asc


def test_main_output_option_does_not_carry_over(tmp_path, capsys):
    target = tmp_path / "g.gr"
    code, out, _ = _run(capsys, ["gen", "5", "9", "7", "-o", str(target)])
    assert code == EXIT_OK and out == ""
    code, out, _ = _run(capsys, ["gen", "5", "9", "7"])
    assert code == EXIT_OK
    assert out == target.read_text()


def test_main_usage_error_leaves_the_next_call_working(tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["pack", "--no-such-option"])
    assert exit_info.value.code == EXIT_INPUT_ERROR
    capsys.readouterr()
    graph = _write(tmp_path, "k4.gr", K4_TEXT)
    code, out, _ = _run(capsys, ["pack", graph, "2"])
    assert code == EXIT_OK
    assert json.loads(out)["verdict"] == "packing"


def test_main_sees_a_pack_patched_after_the_parser_was_built(tmp_path, capsys, monkeypatch):
    graph = _write(tmp_path, "k4.gr", K4_TEXT)
    assert main(["pack", graph, "2"]) == EXIT_OK  # builds the parser
    capsys.readouterr()

    def out_of_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr("treepack.cli.pack", out_of_memory)
    code, out, err = _run(capsys, ["pack", graph, "2"])
    assert code == EXIT_INPUT_ERROR
    assert err == "error: input too large to hold in memory\n"


# console entry point ---------------------------------------------------------------

def test_module_invocation_round_trip(tmp_path):
    graph = tmp_path / "k4.gr"
    graph.write_text(K4_TEXT)
    # The child imports the package this suite imports, installed or not.
    paths = [str(Path(treepack.__file__).resolve().parent.parent), os.environ.get("PYTHONPATH")]
    run = subprocess.run(
        [sys.executable, "-m", "treepack.cli", "pack", str(graph), "2"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))},
    )
    assert run.returncode == 0
    assert json.loads(run.stdout)["verdict"] == "packing"


# module boundary -------------------------------------------------------------------

def test_cli_result_document_is_the_document_modules():
    # The benchmark calls and spans ``treepack.cli.result_document``; both
    # names must hold one function object.
    assert treepack.cli.result_document is treepack.document.result_document
    assert result_document is treepack.document.result_document


def test_package_root_exports_no_document_name():
    # Nothing imports a document name from ``treepack``, so the root exports none.
    defined = {
        name
        for name, value in vars(treepack.document).items()
        if getattr(value, "__module__", None) == "treepack.document"
    }
    assert {"ResultDocumentError", "check_document", "result_document"} <= defined
    assert defined.isdisjoint(treepack.__all__)
    assert defined.isdisjoint(vars(treepack))
