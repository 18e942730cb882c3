"""CLI failures must reach the exit code instead of an empty success."""

from __future__ import annotations

import itertools
import json
import time

import pytest

from bigraphds import bigraph, bounds, groups, ledger, search
from bigraphds.cli import main
from bigraphds.diffsets import NON_COVERING
from bigraphds.errors import InternalError, UsageError
from bigraphds.groups import build_semidirect, format_cayley_table


def test_sweep_exits_with_first_error_row_code(capsys):
    argv = ["sweep", "--groups", "cyclic:6", "bogus:3", "cyclic:2000", "--size", "3", "--workers", "1"]
    assert main(argv) == 2  # bogus:3 is a usage error; cyclic:2000 (capacity) comes later
    assert "cyclic:2000: ERROR" in capsys.readouterr().out
    assert main(["sweep", "--groups", "cyclic:2000", "cyclic:6", "--size", "3", "--json"]) == 4
    envelope = json.loads(capsys.readouterr().out)
    assert envelope["exit_code"] == 4 and envelope["error"]["type"] == "CapacityError"
    assert [row["error_code"] for row in envelope["payload"]["results"]] == [4, None]


@pytest.mark.parametrize("flag", [["--resume-from", "2"], ["--report-interval", "1"], ["--no-prune"]],
                         ids=["resume-from", "report-interval", "no-prune"])
def test_removed_search_flags_are_usage_errors(flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["search", "--group", "cyclic:7", "--size", "3", *flag])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("literal", ["0,,1", "0,1,"])
def test_empty_set_literal_item_is_a_usage_error(literal, capsys):
    assert main(["classify", "--group", "cyclic:7", "--set", literal]) == 2
    assert "has an empty item" in capsys.readouterr().err


@pytest.mark.parametrize(
    "limit,value",
    [("MAX_VERTICES", 21), ("MAX_EDGES", 42)],  # G_2({0,1,3}) over Z7 has 21 vertices, 42 edges
)
def test_graph_past_a_size_limit_exits_4(limit, value, monkeypatch, capsys):
    argv = ["graph", "--group", "cyclic:7", "--set", "0,1,3", "--m", "2"]
    monkeypatch.setattr(bigraph, limit, value)
    assert main(argv) == 0
    monkeypatch.setattr(bigraph, limit, value - 1)
    assert main(argv) == 4
    assert "21 vertices and 42 edges" in capsys.readouterr().err


def test_table_past_the_cell_limit_exits_4(monkeypatch, capsys):
    argv = ["table", "--kind", "moore", "--rmax", "8", "--smax", "8"]
    monkeypatch.setattr(bounds, "MAX_TABLE_CELLS", 49)  # 7 x 7 cells
    assert main(argv) == 0
    monkeypatch.setattr(bounds, "MAX_TABLE_CELLS", 48)
    assert main(argv) == 4
    assert "exceeds 48 cells" in capsys.readouterr().err


def test_graph_out_without_format_is_usage_error(tmp_path):
    out = tmp_path / "g.txt"
    argv = ["graph", "--group", "cyclic:7", "--set", "0,1,3", "--m", "2", "--out", str(out)]
    assert main(argv) == 2
    assert not out.exists()


def test_sweep_of_a_non_utf8_table_is_a_validation_error(tmp_path, capsys):
    table = tmp_path / "table.txt"
    table.write_bytes(b"0 1\n1 \xff\n")
    assert main(["sweep", "--groups", f"file:{table}", "cyclic:6", "--size", "2", "--json"]) == 3
    envelope = json.loads(capsys.readouterr().out)
    assert envelope["error"]["type"] == "ValidationError"
    assert [row["error_code"] for row in envelope["payload"]["results"]] == [3, None]


@pytest.mark.parametrize(
    "argv",
    [
        ["search", "--group", "cyclic:7", "--size", "3"],
        ["sweep", "--groups", "cyclic:7", "--size", "3"],
        ["repro", "--full"],
    ],
    ids=lambda argv: argv[0],
)
def test_zero_workers_is_usage_error(argv, capsys):
    assert main([*argv, "--workers", "0"]) == 2
    assert "--workers must be >= 1" in capsys.readouterr().err


def test_repro_internal_error_exits_5(monkeypatch, capsys):
    # A search whose output re-classifies as non-covering trips its guard;
    # the ledger must not turn that into an ordinary failed check.
    real = search.classify_set
    monkeypatch.setattr(
        search, "classify_set", lambda cand: real(cand)._replace(verdict=NON_COVERING)
    )
    with pytest.raises(InternalError):
        ledger.run_check("z6-doubled-element-is-the-involution")
    assert main(["repro", "--workers", "1"]) == 5
    assert "non-covering set" in capsys.readouterr().err


def test_graph_that_fails_its_biregularity_check_exits_5(monkeypatch, capsys):
    # the check of a graph that build_difference_graph just made may not end in an exit 0
    rejected = bigraph.BiregularCheck(None, 3)
    monkeypatch.setattr(bigraph, "verify_biregular", lambda graph: rejected)
    assert main(["graph", "--group", "cyclic:7", "--set", "0,1,3", "--m", "2", "--json"]) == 5
    envelope = json.loads(capsys.readouterr().out)
    assert envelope["exit_code"] == 5 and envelope["error"]["type"] == "InternalError"
    assert "not biregular at vertex 3" in envelope["error"]["message"] and "payload" not in envelope


@pytest.mark.parametrize("as_json", [False, True])
def test_a_group_that_fails_its_re_check_exits_5(as_json, monkeypatch, capsys):
    # validate-group sees only builder groups and tables the reader accepted: a failed
    # re-check is a fault of the package, not a report to print with exit 0
    real = groups.validate_group
    failed = lambda g: real(g)._replace(
        ok=False, axioms={**real(g).axioms, "associativity": False},
        first_failure="violated at triple (1, 2, 3)")
    monkeypatch.setattr(groups, "validate_group", failed)
    argv = ["validate-group", "--group", "cyclic:5", *(["--json"] if as_json else [])]
    assert main(argv) == 5
    out, err = capsys.readouterr()
    message = "Z5 fails its re-check: violated at triple (1, 2, 3)"
    if as_json:
        envelope = json.loads(out)
        assert envelope["exit_code"] == 5 and envelope["error"]["type"] == "InternalError"
        assert envelope["error"]["message"] == message and "payload" not in envelope
    else:
        assert "FAILED" not in out and message in err


def test_run_check_of_an_unknown_name_is_a_usage_error():
    with pytest.raises(UsageError, match="unknown check 'no-such-check'"):
        ledger.run_check("no-such-check")


@pytest.mark.parametrize("group,top", [("cyclic:7", 6), ("semidirect:5,8,2", 39)])
def test_a_negative_index_in_a_set_literal_is_out_of_range(group, top, capsys):
    # read as the integer -1, as 9 in Z7 is, and not as a generator word
    assert main(["classify", "--group", group, "--set", "0,-1"]) == 3
    assert f"set elements must lie in 0..{top}, got (0, -1)" in capsys.readouterr().err


@pytest.mark.parametrize("group", ["cyclic:7", "semidirect:5,8,2"])
def test_a_leading_plus_in_a_set_literal_is_a_usage_error(group, capsys):
    # the same error with or without named generators, before any word is parsed
    assert main(["classify", "--group", group, "--set", "0,+1"]) == 2
    assert "set item '+1' has a leading '+'" in capsys.readouterr().err


def test_non_decimal_digits_are_rejected(tmp_path, capsys):
    # "\u00b2" (superscript two) passes str.isdigit() but not int()
    assert main(["validate-group", "--group", "cyclic:\u00b2"]) == 2
    table = tmp_path / "table.txt"
    table.write_text("\u00b2\n0 1\n1 0\n", encoding="utf-8")
    assert main(["validate-group", "--group", f"file:{table}"]) == 3
    assert "first data line must be the order" in capsys.readouterr().err


def test_singer_capacity_exits_4_before_any_field(capsys):
    start = time.perf_counter()
    assert main(["singer", "--q", "32"]) == 4
    assert main(["singer", "--q", "1024"]) == 4
    assert time.perf_counter() - start < 1.0
    assert "1057" in capsys.readouterr().err


@pytest.mark.parametrize("poly", ["1,+1,2,1", "1, 1,2,1", "1_0,1,2,1", "²,1,2,1", ""])
def test_singer_poly_takes_only_decimal_coefficients(poly, capsys):
    assert main(["singer", "--q", "3", "--poly", poly]) == 2
    assert "--poly must be comma-separated integers" in capsys.readouterr().err
    assert main(["singer", "--q", "3", "--poly", "1,1,2,1"]) == 0


@pytest.mark.parametrize(
    "argv",
    [["--r", "12", "--s", "12", "--m", "3000"], ["--r", "3", "--s", "3", "--m", "200000"]],
    ids=["m3000", "m200000"],
)
@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["human", "json"])
def test_bound_past_the_digit_limit_exits_4_at_once(argv, json_flag, capsys):
    start = time.perf_counter()
    assert main(["bound", *argv, *json_flag]) == 4
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    if json_flag:
        assert json.loads(captured.out)["exit_code"] == 4
    else:
        assert "exceed 4300 digits" in captured.err


def test_bound_with_unit_tree_ratio_prints_a_huge_m(capsys):
    # (r-1)(s-1) = 1 grows linearly in m, so no digit limit is near
    assert main(["bound", "--r", "2", "--s", "2", "--m", "200000"]) == 0
    assert capsys.readouterr().out.startswith("M(2,2;400001) = 800002  [")


def test_largest_printable_m_prints(capsys):
    # the largest m whose Moore bound M(12,12;2m+1) = N1' + N2' has at most 4300 digits
    moore = (2 * (1 + 12 * 11 * (121**m - 1) // 120) for m in itertools.count(1))
    last = next(m for m, value in enumerate(moore, start=1) if value >= 10**4300) - 1
    argv = ["bound", "--r", "12", "--s", "12", "--m", str(last)]
    assert main(argv) == 0
    line = capsys.readouterr().out.splitlines()[0]
    assert len(line.split(" = ")[1].split()[0]) == 4300
    assert main([*argv, "--json"]) == 0
    assert len(str(json.loads(capsys.readouterr().out)["payload"]["moore"])) == 4300
    assert main(["bound", "--r", "12", "--s", "12", "--m", str(last + 1)]) == 4
    assert "M(12,12;" in capsys.readouterr().err


@pytest.mark.parametrize(
    "spec, code, message",
    [
        ("semidirect:40,40,1", 4, "order 1600 exceeds"),
        ("semidirect:5,8", 2, "three comma-separated integers"),
        ("file:", 2, "file spec needs a path"),
    ],
)
def test_group_spec_errors_reach_the_exit_code(spec, code, message, capsys):
    assert main(["validate-group", "--group", spec]) == code
    assert message in capsys.readouterr().err


def test_cayley_row_of_the_wrong_length_exits_3(tmp_path, capsys):
    path = tmp_path / "short.tbl"
    path.write_text("2\n0 1\n1\n", encoding="utf-8")
    assert main(["validate-group", "--group", f"file:{path}"]) == 3
    assert "row 1 has 1 entries, expected 2" in capsys.readouterr().err


@pytest.mark.parametrize("where", ["missing-dir", "a-directory"])
def test_graph_out_to_an_unwritable_path_is_a_usage_error(where, tmp_path, capsys):
    out = tmp_path / "missing" / "g.json" if where == "missing-dir" else tmp_path
    argv = ["graph", "--group", "cyclic:7", "--set", "0,1,3", "--m", "1", "--format", "json",
            "--out", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith(f"error: cannot write {out}: ")
    assert main([*argv, "--json"]) == 2
    envelope = json.loads(capsys.readouterr().out)
    assert envelope["error"]["type"] == "UsageError" and envelope["exit_code"] == 2
    assert envelope["error"]["message"].startswith(f"cannot write {out}: ")
    assert set(envelope) == {"command", "error", "exit_code", "wall_time_ms"}
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("text", [
    format_cayley_table(build_semidirect(7, 3, 2)),
    "3\n0 1 2\n1 2 0\n2 1 0\n",     # rows Latin, column 1 repeats
    "2\n0 1\n1\n",
], ids=["group", "not-latin", "short-row"])
@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
def test_a_table_file_with_a_byte_order_mark_validates_like_the_plain_file(text, as_json, tmp_path, capsys):
    outcomes = []
    for encoding in ("utf-8", "utf-8-sig"):     # utf-8-sig writes the BOM
        path = tmp_path / encoding / "table.tbl"
        path.parent.mkdir()
        path.write_text(text, encoding=encoding)
        code = main(["validate-group", "--group", f"file:{path}", *(["--json"] if as_json else [])])
        out, err = capsys.readouterr()
        if as_json:
            out = {k: v for k, v in json.loads(out).items() if k != "wall_time_ms"}
        outcomes.append((code, out, err.replace(str(path), "PATH")))
    assert (tmp_path / "utf-8-sig" / "table.tbl").read_bytes().startswith(b"\xef\xbb\xbf")
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == (0 if text.startswith("#") else 3)
