"""CLI behavior: payloads, exit codes, and format contracts."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bigraphds

from bigraphds import ledger
from bigraphds.bigraph import export_graph, load_graph_json
from bigraphds.cli import _RENAMED, _jsonable, main


def run_json(capsys, argv):
    code = main(argv + ["--json"])
    envelope = json.loads(capsys.readouterr().out)
    assert envelope["exit_code"] == code
    return code, envelope


def test_bound_command(capsys):
    code, env = run_json(capsys, ["bound", "--r", "8", "--s", "4"])
    assert code == 0
    payload = env["payload"]
    assert payload["moore"] == 42 and payload["improved"] is None
    assert env["command"] == "bound"


def test_bound_improved_payload(capsys):
    _, env = run_json(capsys, ["bound", "--r", "6", "--s", "3"])
    assert env["payload"]["improved"]["value"] == 21
    assert env["payload"]["best"] == 21
    assert env["payload"]["improved"]["margin"] == "4"  # exact fraction string


def test_bound_usage_error_exit_code():
    assert main(["bound", "--r", "0", "--s", "4"]) == 2


def test_unknown_command_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_validation_error_exit_code(capsys):
    assert main(["classify", "--group", "cyclic:0", "--set", "0"]) == 3
    assert "error:" in capsys.readouterr().err


def test_capacity_error_exit_code():
    assert main(["validate-group", "--group", "product:cyclic:100,cyclic:100"]) == 4


def test_json_error_envelope(capsys):
    code = main(["classify", "--group", "cyclic:0", "--set", "0", "--json"])
    assert code == 3
    out = capsys.readouterr()
    envelope = json.loads(out.out)
    assert envelope["exit_code"] == 3
    assert envelope["error"]["type"] == "ValidationError"
    assert "payload" not in envelope


def test_classify_with_word_syntax(capsys):
    code, env = run_json(
        capsys,
        [
            "classify",
            "--group",
            "semidirect:5,8,2",
            "--set",
            "0,b,b^4,b*a,b*a^-1*b^2,a*b^-1,b*a*b^2",
        ],
    )
    assert code == 0
    cls = env["payload"]["classification"]
    assert cls["verdict"] == "ads" and cls["params"] == "(40,7,1,36)"


def test_classify_human_output(capsys):
    assert main(["classify", "--group", "cyclic:13", "--set", "0,1,3,9"]) == 0
    out = capsys.readouterr().out
    assert "perfect(13,4,1)" in out


def test_table_command_text(capsys):
    assert main(["table", "--kind", "moore", "--rmax", "8", "--smax", "8"]) == 0
    out = capsys.readouterr().out
    assert "| 42" in out  # the (8,4) cell


def test_table_json_format(capsys):
    assert main(
        ["table", "--kind", "improved", "--rmax", "12", "--smax", "4", "--format", "json"]
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    assert {"r": 6, "s": 3, "value": 21} in payload["cells"]


def test_singer_command(capsys):
    code, env = run_json(capsys, ["singer", "--q", "3", "--poly", "1,1,2,1"])
    assert code == 0
    payload = env["payload"]
    assert payload["set"] == [0, 1, 4, 6]
    assert payload["exponents_raw"] == [0, 1, 17, 19]
    assert payload["classification"]["verdict"] == "perfect"


def test_singer_rejects_non_prime_power():
    assert main(["singer", "--q", "6"]) == 3


def test_graph_command_summary(capsys):
    code, env = run_json(
        capsys,
        ["graph", "--group", "cyclic:7", "--set", "0,1,3", "--m", "2", "--check-diameter"],
    )
    assert code == 0
    payload = env["payload"]
    assert payload["vertices"] == 21
    assert payload["degrees"] == [6, 3]
    assert payload["diameter"] == 3


def test_graph_export_roundtrip(capsys, tmp_path):
    out_path = tmp_path / "g.json"
    code = main(
        [
            "graph",
            "--group",
            "cyclic:7",
            "--set",
            "0,1,3",
            "--m",
            "2",
            "--format",
            "json",
            "--out",
            str(out_path),
        ]
    )
    assert code == 0
    text = out_path.read_text(encoding="utf-8")
    graph = load_graph_json(text)
    assert export_graph(graph, "json") == text


def test_graph_export_stdout_is_loadable(capsys):
    code = main(["graph", "--group", "cyclic:7", "--set", "0,1,3", "--m", "1", "--format", "edge-list"])
    assert code == 0
    out = capsys.readouterr().out
    assert len(out.strip().splitlines()) == 21


def test_search_command_json(capsys):
    code, env = run_json(
        capsys,
        ["search", "--group", "cyclic:7", "--size", "3"],
    )
    assert code == 0
    payload = env["payload"]
    assert payload["exhausted"] is True
    assert [f["set"] for f in payload["found"]][0] == [0, 1, 3]
    assert {"candidates_examined", "candidates_pruned", "slack"} <= payload.keys()


def test_search_exists_only(capsys):
    code, env = run_json(
        capsys,
        ["search", "--group", "cyclic:6", "--size", "3", "--exists-only"],
    )
    assert code == 0
    assert env["payload"]["found"][0]["set"] == [0, 1, 3]


def test_search_deterministic_payload(capsys):
    argv = ["search", "--group", "cyclic:13", "--size", "4"]
    _, env1 = run_json(capsys, argv)
    _, env2 = run_json(capsys, argv)
    env1["payload"].pop("wall_time_ms")
    env2["payload"].pop("wall_time_ms")
    assert env1["payload"] == env2["payload"]


def test_sweep_command(capsys):
    code, env = run_json(
        capsys,
        ["sweep", "--groups", "cyclic:6", "cyclic:12", "--size", "3", "--workers", "1"],
    )
    assert code == 0
    results = env["payload"]["results"]
    assert results[0]["found"] is True and results[0]["witness"] == [0, 1, 3]
    assert results[1]["found"] is False


def test_validate_group_command(capsys):
    code, env = run_json(capsys, ["validate-group", "--group", "semidirect:5,8,2"])
    assert code == 0
    payload = env["payload"]
    assert payload["ok"] is True and payload["abelian"] is False
    assert payload["involutions"] == [4]
    assert all(payload["axioms"].values())


def test_repro_default_passes(capsys):
    assert main(["repro"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert "PASS bimoore-orders-match-improved-bound" in out


def test_help_mentions_all_commands(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    out = capsys.readouterr().out
    for cmd in ("bound", "table", "singer", "classify", "graph", "search", "sweep", "validate-group", "repro"):
        assert cmd in out


def test_python_dash_m_runs_the_cli():
    env = {**os.environ, "PYTHONPATH": str(Path(bigraphds.__file__).parents[1])}
    argv = [sys.executable, "-m", "bigraphds", "search", "--group", "cyclic:7", "--size", "3",
            "--json"]
    out = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["payload"]["found"][0]["set"] == [0, 1, 3]


def test_search_limit_keeps_the_first_sets_in_order(capsys):
    argv = ["search", "--group", "cyclic:21", "--size", "5"]
    _, full = run_json(capsys, argv)
    _, limited = run_json(capsys, argv + ["--limit", "3"])
    assert limited["payload"]["found"] == full["payload"]["found"][:3]
    assert main(argv + ["--limit", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "3 covering set(s)" in lines[0] and len(lines) == 4
    assert main(argv + ["--limit", "0"]) == 2
    assert "--limit must be >= 1" in capsys.readouterr().err


def test_closed_stdout_pipe_exits_quietly():
    env = {**os.environ, "PYTHONPATH": str(Path(bigraphds.__file__).parents[1])}
    argv = [sys.executable, "-m", "bigraphds", "search", "--group", "cyclic:39", "--size", "7"]
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write to the pipe now fails with EPIPE
    try:
        out = subprocess.run(argv, env=env, stdout=write_end, stderr=subprocess.PIPE,
                             text=True, timeout=60)
    finally:
        os.close(write_end)
    assert out.returncode == 0 and out.stderr == ""


def test_classify_lists_missing_differences(capsys):
    assert main(["classify", "--group", "cyclic:7", "--set", "0,1"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["[0, 1] in Z7: non-covering(7,2)", "missing: [2, 3, 4, 5]"]


def test_classify_in_the_trivial_group_is_a_validation_error():
    # A traceback would exit 1, the code of a failed reproduction check.
    env = {**os.environ, "PYTHONPATH": str(Path(bigraphds.__file__).parents[1])}
    argv = [sys.executable, "-m", "bigraphds", "classify", "--group", "cyclic:1", "--set", "0"]
    out = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode == 3 and out.stdout == ""
    assert out.stderr == "error: the trivial group has no non-identity element to cover\n"


def test_search_human_output_counts_the_sets_past_twenty(capsys):
    assert main(["search", "--group", "cyclic:11", "--size", "4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "40 covering set(s)" in lines[0]
    assert len(lines) == 22 and lines[-1] == "  ... 20 more"


def test_every_result_record_serializes_by_field_name():
    # each record is a NamedTuple; one caught by the tuple branch would become a list
    z7 = bigraphds.build_cyclic(7)
    graph = bigraphds.build_difference_graph(bigraphds.CandidateSet(z7, (0, 1, 3)), 2)
    outcome = bigraphds.enumerate_covering_sets(bigraphds.SearchConfig(z7, 3))
    bound = bigraphds.bound_report(6, 3)
    cls = bigraphds.classify_set(bigraphds.CandidateSet(z7, (0, 1, 3)))
    check = bigraphds.verify_biregular(graph)
    row = bigraphds.sweep_family(["cyclic:7"], 3)[0]
    singer = bigraphds.singer_set(2)
    records = [
        bigraphds.validate_group(z7), cls, bigraphds.diameter(graph), check,
        bigraphds.find_repeats(graph, 1), bound.improved, bound, outcome.found[0], outcome,
        row, singer, ledger.CheckResult("check", True, "detail"),
    ]
    assert len({type(rec) for rec in records}) == 12
    for rec in records:
        extra = {"params"} if rec is cls else set()
        assert set(_jsonable(rec)) == {_RENAMED.get(f, f) for f in rec._fields} | extra, rec
    assert {"poly", "set"} <= set(_jsonable(singer))
    assert _jsonable(cls)["lambda"] == 1 and _jsonable(cls)["params"] == "(7,3,1)"
    assert _jsonable(outcome)["group"] == _jsonable(row)["group"] == "Z7"
    assert _jsonable(check) == {"degrees": [6, 3], "offending_vertex": None}
    found = _jsonable(outcome.found)
    assert isinstance(found, list) and all(isinstance(f, dict) for f in found)
    assert found[0]["set"] == list(outcome.found[0].elements)
    assert found[0]["classification"]["params"] == "(7,3,1)"
