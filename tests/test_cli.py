import dataclasses
import json
import sys

import pytest

from racnshare import FormulaCheck, SchemeParameters, ValidationRow, cli
from racnshare.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestBuildLabelWeights:
    def test_build_json(self, capsys):
        d = run_json(capsys, "build", "--family", "mycielski", "--p", "3")
        assert d["family"] == "mycielski" and d["p"] == 3 and d["n"] == 7
        assert len(d["edges"]) == 9

    def test_build_table(self, capsys):
        code, out, _ = run(capsys, "build", "--family", "shadow", "--p", "2", "--format", "table")
        assert code == 0
        assert "shadow p=2: n=4, edges=4" in out
        assert "x1 -- x2" in out

    def test_label(self, capsys):
        d = run_json(capsys, "label", "--family", "splitting", "--p", "4")
        assert d["labels"]["x1"] == 1
        assert d["labels"]["y1"] == 8

    def test_weights_table(self, capsys):
        code, out, _ = run(capsys, "weights", "--family", "shadow", "--p", "4", "--format", "table")
        assert code == 0
        assert "distinct weights: 5" in out

    def test_weights_json_round(self, capsys):
        d = run_json(capsys, "weights", "--family", "shadow", "--p", "4")
        assert sorted(int(c) for c in d["classes"]) == [5, 7, 9, 11, 13]

    def test_repeated_runs_byte_identical(self, capsys):
        _, first, _ = run(capsys, "weights", "--family", "mycielski", "--p", "4")
        _, second, _ = run(capsys, "weights", "--family", "mycielski", "--p", "4")
        assert first == second


class TestVerifyAndRacn:
    def test_verify_rainbow(self, capsys):
        d = run_json(capsys, "verify-rainbow", "--family", "splitting", "--p", "5")
        assert d["rainbow_connected"] is True
        assert d["pairs_checked"] == 45
        assert d["failing_pair"] is None

    def test_verify_rainbow_strict_ok(self, capsys):
        code, _, _ = run(capsys, "verify-rainbow", "--family", "shadow", "--p", "3", "--strict")
        assert code == 0

    def test_racn_exact(self, capsys):
        d = run_json(capsys, "racn", "--family", "splitting", "--p", "4", "--exact")
        assert d["value"] == 4
        assert d["exhaustive"] is True
        assert sorted(d["witness"].values()) == list(range(1, 9))

    def test_racn_upper_default(self, capsys):
        d = run_json(capsys, "racn", "--family", "shadow", "--p", "4")
        assert d["upper_bound"] == 5

    def test_racn_exact_too_large_exits_3(self, capsys):
        code, _, err = run(capsys, "racn", "--family", "shadow", "--p", "5", "--exact")
        assert code == 3
        assert "error:" in err

    def test_racn_exact_negative_cap_exits_2(self, capsys):
        code, out, err = run(capsys, "racn", "--exact", "--family", "path", "--p", "3",
                             "--max-n", "-1")
        assert (code, out, err) == (2, "", "error: max_n must be at least 0, got -1\n")

    def test_racn_upper_ignores_the_cap(self, capsys):
        d = run_json(capsys, "racn", "--family", "shadow", "--p", "4", "--max-n", "-1")
        assert d["upper_bound"] == 5

    def test_racn_exact_raised_cap(self, capsys):
        d = run_json(capsys, "racn", "--family", "mycielski", "--p", "4", "--exact", "--max-n", "9")
        assert d["value"] == 5

    def test_racn_exact_on_a_path_longer_than_the_recursion_limit(self, capsys):
        # no search recurses, so the stack stays shallow however many vertices there are
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 100)
        try:
            code, out, err = run(capsys, "racn", "--exact", "--family", "path",
                                 "--p", str(depth + 150), "--max-n", "500")
        finally:
            sys.setrecursionlimit(limit)
        assert code == 0, err
        assert json.loads(out)["value"] == depth + 149


class TestFormulasValidate:
    def test_formulas(self, capsys):
        d = run_json(capsys, "formulas", "--family", "mycielski", "--p", "3")
        assert (d["k"], d["m"], d["rp"], d["lower_bound"]) == (6, 7, 2, 7)

    def test_formulas_keys_are_scheme_parameters_fields(self, capsys):
        d = run_json(capsys, "formulas", "--family", "shadow", "--p", "4")
        assert set(d) == {f.name for f in dataclasses.fields(SchemeParameters)}

    def test_validate_table_reports_mismatches(self, capsys):
        code, out, _ = run(capsys, "validate", "--family", "shadow", "--p-range", "2..5")
        assert code == 0  # not strict
        assert "family: shadow" in out
        assert "MISMATCH shadow p=3: racn: exact 5 != formula 6" in out

    def test_validate_strict_failure(self, capsys):
        code, _, _ = run(
            capsys, "validate", "--family", "splitting", "--p-range", "2..4", "--strict"
        )
        assert code == 1

    def test_validate_strict_clean(self, capsys):
        code, _, _ = run(
            capsys, "validate", "--family", "splitting", "--p-range", "2..3", "--strict"
        )
        assert code == 0

    def test_validate_json(self, capsys):
        code, out, _ = run(
            capsys, "validate", "--family", "mycielski", "--p-range", "2..3", "--format", "json"
        )
        assert code == 0
        d = json.loads(out)
        assert d["ok"] is False
        assert [r["p"] for r in d["rows"]] == [2, 3]
        assert d["rows"][1]["m"] == {"formula": 7, "observed": 6}

    def test_validate_json_row_keys_are_validation_row_fields(self, capsys):
        d = run_json(capsys, "validate", "--family", "splitting", "--p-range", "2..3",
                     "--format", "json")
        row_keys = {f.name for f in dataclasses.fields(ValidationRow)} | {"mismatches"}
        check_keys = {f.name for f in dataclasses.fields(FormulaCheck)}
        for row in d["rows"]:
            assert set(row) == row_keys
            assert all(set(row[q]) == check_keys for q in ("k", "m", "rp"))

    def test_bad_range_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["validate", "--family", "shadow", "--p-range", "5"])
        assert exc.value.code == 2

    def test_p_below_two_rejected_by_the_graph_layer(self, capsys):
        code, out, err = run(capsys, "validate", "--family", "shadow", "--p-range", "1..3")
        assert (code, out, err) == (2, "", "error: p must be an integer >= 2, got 1\n")


class TestShares:
    def test_split_then_reconstruct(self, capsys):
        shares = run_json(
            capsys, "split", "--secret", "hello", "--k", "3", "--shares", "5", "--seed", "9"
        )
        assert len(shares) == 5
        picked = [f"{s['index']}:{s['payload_hex']}" for s in shares[1:4]]
        d = run_json(
            capsys,
            "reconstruct",
            "--share", picked[0],
            "--share", picked[1],
            "--share", picked[2],
            "--k", "3",
        )
        assert d["secret_utf8"] == "hello"
        assert bytes.fromhex(d["secret_hex"]) == b"hello"

    def test_split_without_seed_is_not_reproducible(self, capsys):
        argv = ("split", "--secret", "hello", "--k", "2", "--shares", "3")
        first, second = run_json(capsys, *argv), run_json(capsys, *argv)
        assert first != second
        assert first != run_json(capsys, *argv, "--seed", "0")
        picked = [f"{s['index']}:{s['payload_hex']}" for s in first[:2]]
        d = run_json(capsys, "reconstruct", "--share", picked[0], "--share", picked[1],
                     "--k", "2")
        assert d["secret_utf8"] == "hello"

    def test_reconstruct_from_file(self, capsys, tmp_path):
        shares = run_json(
            capsys, "split", "--secret-hex", "deadbeef", "--k", "2", "--shares", "3"
        )
        path = tmp_path / "shares.json"
        path.write_text(json.dumps(shares[:2]))
        d = run_json(capsys, "reconstruct", "--shares-file", str(path), "--k", "2")
        assert d["secret_hex"] == "deadbeef"
        assert d["secret_utf8"] is None

    def test_split_requires_secret(self, capsys):
        code, _, err = run(capsys, "split", "--k", "2", "--shares", "3")
        assert code == 2
        assert "--secret" in err

    @pytest.mark.parametrize("command", [
        ("split", "--k", "1", "--shares", "1"),
        ("simulate-reconstruction", "--family", "shadow", "--p", "3"),
    ], ids=["split", "simulate-reconstruction"])
    def test_both_secret_flags_exit_2(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([*command, "--secret", "x", "--secret-hex", "00"])
        assert exc.value.code == 2
        assert "--secret-hex: not allowed with argument --secret" in capsys.readouterr().err

    def test_secret_flag_equal_to_the_fallback_still_conflicts(self, capsys):
        # argparse counts a flag as given only when its value is not the
        # default object, and a literal "secret" is interned: --secret must
        # have no default for this conflict to show
        with pytest.raises(SystemExit) as exc:
            main(["simulate-reconstruction", "--family", "shadow", "--p", "3",
                  "--secret", "secret", "--secret-hex", "00"])
        assert exc.value.code == 2
        assert "--secret-hex: not allowed with argument --secret" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--secret", "--secret-hex"])
    def test_split_empty_secret_gets_the_library_check(self, capsys, flag):
        code, out, err = run(capsys, "split", flag, "", "--k", "1", "--shares", "1")
        assert (code, out, err) == (2, "", "error: secret must be a nonempty byte string\n")

    def test_empty_secret_hex_is_not_the_fallback(self, capsys):
        code, out, err = run(capsys, "simulate-reconstruction", "--family", "shadow",
                             "--p", "3", "--secret-hex", "")
        assert (code, out, err) == (2, "", "error: secret must be a nonempty byte string\n")

    @pytest.mark.parametrize("share", ["notahex", ":ab", "x:ab", "+1:ab", " 1:ab",
                                       "1_0:ab", "\u0661:ab"])
    def test_bad_share_syntax(self, capsys, share):
        # INDEX is ASCII decimal digits only, not whatever int() accepts
        code, out, err = run(capsys, "reconstruct", "--share", share, "--k", "1")
        assert (code, out, err) == (
            2, "", f"error: bad --share {share!r}, expected INDEX:HEX\n")

    def test_bad_hex_exits_2(self, capsys):
        code, _, err = run(
            capsys, "split", "--secret-hex", "zz", "--k", "2", "--shares", "3"
        )
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("content", [[{"index": 1}], [1]])
    def test_malformed_shares_file_exits_2(self, capsys, tmp_path, content):
        path = tmp_path / "shares.json"
        path.write_text(json.dumps(content))
        code, out, err = run(capsys, "reconstruct", "--shares-file", str(path), "--k", "1")
        assert code == 2
        assert out == ""
        assert err.startswith("error: expected a JSON object with ")

    @pytest.mark.parametrize("content,message", [
        (5, "expected a JSON list of shares, got 5"),
        ([{"index": 1, "payload_hex": 5}], "expected 'payload_hex' to be str, got 5"),
        ([{"index": "1", "payload_hex": "ab"}], "expected 'index' to be int, got '1'"),
        ([{"index": True, "payload_hex": "ab"}], "expected 'index' to be int, got True"),
    ], ids=["not-a-list", "int-payload", "str-index", "bool-index"])
    def test_mistyped_shares_file_exits_2(self, capsys, tmp_path, content, message):
        path = tmp_path / "shares.json"
        path.write_text(json.dumps(content))
        code, out, err = run(capsys, "reconstruct", "--shares-file", str(path), "--k", "1")
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("argv", [
        ["--k", "1", "--share", "1:"],
        ["--k", "2", "--share", "1:", "--share", "2:"],
        ["--k", "1", "--shares-file", "{file}"],
    ], ids=["one-share", "two-shares", "shares-file"])
    def test_empty_share_payload_exits_2(self, capsys, tmp_path, argv):
        path = tmp_path / "shares.json"
        path.write_text(json.dumps([{"index": 1, "payload_hex": ""}]))
        code, out, err = run(capsys, "reconstruct", *(arg.format(file=path) for arg in argv))
        assert (code, out, err) == (2, "", "error: share payload must be nonempty\n")

    @pytest.mark.parametrize("k,shares", [
        ("0", []), ("-2", ["--share", "1:ab"]),
    ], ids=["k0-no-shares", "k-2-one-share"])
    def test_threshold_below_one_exits_2(self, capsys, k, shares):
        code, out, err = run(capsys, "reconstruct", "--k", k, *shares)
        assert (code, out, err) == (2, "", f"error: threshold k must be >= 1, got {k}\n")

    def test_too_few_shares_exits_2(self, capsys):
        shares = run_json(capsys, "split", "--secret", "s", "--k", "3", "--shares", "4")
        d = f"{shares[0]['index']}:{shares[0]['payload_hex']}"
        code, _, err = run(capsys, "reconstruct", "--share", d, "--k", "3")
        assert code == 2
        assert "error:" in err


class TestSimulations:
    def test_reconstruction_two_phases(self, capsys):
        d = run_json(
            capsys, "simulate-reconstruction", "--family", "mycielski", "--p", "3"
        )
        assert d["phase_count"] == 2
        assert d["secret_recovered"] is True
        assert d["phases"][0]["path"] == ["x1", "x2", "x3", "y2", "a", "y1"]

    def test_reconstruction_optimal_flag(self, capsys):
        d = run_json(
            capsys,
            "simulate-reconstruction",
            "--family", "shadow", "--p", "4",
            "--secret-hex", "00ff", "--optimal",
        )
        assert d["phase_count"] == 1
        assert d["recovered_hex"] == "00ff"

    def test_clamp_and_optimal_exclude_each_other(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate-reconstruction", "--family", "shadow", "--p", "8",
                  "--clamp", "--optimal"])
        assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err

    def test_dissemination_fixture(self, capsys):
        d = run_json(
            capsys, "simulate-dissemination", "--fixture", "fig1", "--informed", "5"
        )
        assert d["total_rounds"] == 3
        assert d["rounds"][0]["kind"] == "cycles"
        assert d["rounds"][2]["paths"] == [["8", "12", "1"]]

    def test_dissemination_all_policy(self, capsys):
        d = run_json(
            capsys,
            "simulate-dissemination",
            "--fixture", "fig1",
            "--informed", "5",
            "--cycle-policy", "all",
        )
        assert d["total_rounds"] == 2

    def test_dissemination_family_graph(self, capsys):
        d = run_json(
            capsys,
            "simulate-dissemination",
            "--family", "shadow", "--p", "3",
            "--informed", "x1,y1",
        )
        assert d["informed_start"] == ["x1", "y1"]
        assert d["rounds"][-1]["informed_after"][-1] == "y3"

    def test_dissemination_requires_a_graph(self, capsys):
        code, _, err = run(capsys, "simulate-dissemination", "--informed", "1")
        assert code == 2
        assert "--fixture" in err

    @pytest.mark.parametrize("graph", [("--family", "shadow"), ("--p", "3"),
                                       ("--family", "shadow", "--p", "3")],
                             ids=["family", "p", "family-and-p"])
    def test_dissemination_fixture_and_family_exit_2(self, capsys, graph):
        code, out, err = run(capsys, "simulate-dissemination", "--fixture", "fig1", *graph,
                             "--informed", "5")
        assert (code, out, err) == (
            2, "", "error: give --fixture or --family/--p, not both\n")

    @pytest.mark.parametrize("roles,unreachable", [
        ({"0": "a", "1": "b", "2": "c", "3": "d"}, "c, d"),
        ({}, "3, 4"),
    ], ids=["roles", "default-names"])
    def test_dissemination_disconnected_fixture_names_unreachable(
            self, capsys, tmp_path, roles, unreachable):
        path = tmp_path / "graph.json"
        path.write_text(json.dumps({"n": 4, "edges": [[0, 1], [2, 3]], "roles": roles}))
        informed = "a" if roles else "1"
        code, out, err = run(capsys, "simulate-dissemination", "--fixture", str(path),
                             "--informed", informed)
        assert (code, out, err) == (2, "", f"error: unreachable participants: {unreachable}\n")

    def test_dissemination_family_fixture_with_other_roles_exits_2(self, capsys, tmp_path):
        built = tmp_path / "built.json"
        built.write_text(run(capsys, "build", "--family", "shadow", "--p", "2")[1])
        d = run_json(capsys, "simulate-dissemination", "--fixture", str(built), "--informed", "x1")
        assert d["informed_start"] == ["x1"]
        renamed = json.loads(built.read_text())
        renamed["roles"] = {"0": "a", "1": "b", "2": "c", "3": "d"}
        path = tmp_path / "renamed.json"
        path.write_text(json.dumps(renamed))
        code, out, err = run(capsys, "simulate-dissemination", "--fixture", str(path),
                             "--informed", "a")
        assert (code, out, err) == (2, "", "error: vertex 0 is named 'a' in the file "
                                           "but 'x1' in the shadow construction at p=2\n")

    def test_dissemination_out_of_budget_exits_3(self, capsys, set_node_budget):
        set_node_budget(2)
        code, out, err = run(capsys, "simulate-dissemination", "--family", "shadow",
                             "--p", "4", "--informed", "x1")
        assert (code, out, err) == (3, "", "error: path-search node budget exhausted\n")

    def test_racn_exact_out_of_budget_exits_3(self, capsys, set_node_budget):
        # shadow p=4's leaf tests fit in 13 nodes; one labeling pass places 1,952 labels
        set_node_budget(1951)
        code, out, err = run(capsys, "racn", "--exact", "--family", "shadow", "--p", "4")
        assert (code, out, err) == (3, "", "error: path-search node budget exhausted\n")

    def test_validate_records_racn_out_of_budget_as_a_gap(self, capsys, set_node_budget):
        # shadow p=3: the cover search needs 384 nodes, and the largest labeling pass 446
        set_node_budget(445)
        code, out, err = run(capsys, "validate", "--family", "shadow", "--p-range", "2..3",
                             "--max-n", "10")
        assert (code, err) == (0, "")
        assert out.splitlines()[4].endswith("-  exact racn skipped: budget exceeded")

    def test_validate_negative_cap_exits_2(self, capsys):
        code, out, err = run(capsys, "validate", "--family", "shadow", "--p-range", "2..2",
                             "--max-n", "-1")
        assert (code, out, err) == (2, "", "error: racn_max_n must be at least 0, got -1\n")

    def test_validate_zero_cap_skips_exact_racn(self, capsys):
        code, out, err = run(capsys, "validate", "--family", "shadow", "--p-range", "2..2",
                             "--max-n", "0")
        assert (code, err) == (0, "")
        assert out.splitlines()[3].endswith("-  exact racn skipped: n=4 > 0")

    def test_dissemination_p_0_names_p(self, capsys):
        code, out, err = run(capsys, "simulate-dissemination", "--family", "shadow",
                             "--p", "0", "--informed", "x1")
        assert (code, out, err) == (2, "", "error: p must be an integer >= 2, got 0\n")

    def test_dissemination_malformed_fixture_exits_2(self, capsys, tmp_path):
        path = tmp_path / "graph.json"
        path.write_text("{}")
        code, out, err = run(capsys, "simulate-dissemination", "--fixture", str(path),
                             "--informed", "1")
        assert code == 2
        assert out == ""
        assert err == "error: expected a JSON object with 'n', got {}\n"

    @pytest.mark.parametrize("content,message", [
        ([], "expected a JSON object, got []"),
        ({"n": 3, "edges": [[1, "x"]]},
         "expected 'edges' to hold [i, j] integer pairs, got [[1, 'x']]"),
        ({"n": "3", "edges": []}, "expected 'n' to be int, got '3'"),
        ({"n": 2, "edges": [[0, True]]},
         "expected 'edges' to hold [i, j] integer pairs, got [[0, True]]"),
        ({"n": 2, "edges": [[0, 1]], "roles": ["a", "b"]},
         "expected 'roles' to be an object, got ['a', 'b']"),
        ({"n": 2, "edges": [[0, 1]], "roles": []}, "expected 'roles' to be an object, got []"),
        ({"n": 2, "edges": [[0, 1]], "roles": ""}, "expected 'roles' to be an object, got ''"),
        ({"n": 2, "edges": [[0, 1]], "roles": 0}, "expected 'roles' to be an object, got 0"),
        ({"n": 2, "edges": [[0, 1]], "roles": False},
         "expected 'roles' to be an object, got False"),
        ({"n": 3, "edges": [[0, 1], [1, 2]], "roles": {"1": "a", "2": "b", "3": "c"}},
         "expected 'roles' keys to be vertex indexes 0..2, got '3'"),
        ({"family": "shadow", "p": 2, "n": 4, "edges": [[0, 1], [0, 3], [1, 2], [2, 3]],
          "roles": {"0": "x1", "4": "a"}},
         "expected 'roles' keys to be vertex indexes 0..3, got '4'"),
    ], ids=["not-an-object", "str-vertex", "str-n", "bool-vertex", "list-roles",
            "empty-list-roles", "empty-str-roles", "zero-roles", "false-roles",
            "roles-keyed-from-1", "family-roles-past-n"])
    def test_dissemination_mistyped_fixture_exits_2(self, capsys, tmp_path, content, message):
        path = tmp_path / "graph.json"
        path.write_text(json.dumps(content))
        code, out, err = run(capsys, "simulate-dissemination", "--fixture", str(path),
                             "--informed", "1")
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("roles,names", [
        ({"0": "a", "1": "a", "2": "b"}, "['a', 'a', 'b']"),
        ({"0": 5, "1": "a", "2": "b"}, "[5, 'a', 'b']"),
    ], ids=["duplicate", "numeric"])
    def test_dissemination_bad_names_fixture_exits_2(self, capsys, tmp_path, roles, names):
        path = tmp_path / "graph.json"
        path.write_text(json.dumps({"n": 3, "edges": [[0, 1], [1, 2], [0, 2]], "roles": roles}))
        code, out, err = run(capsys, "simulate-dissemination", "--fixture", str(path),
                             "--informed", "b")
        assert (code, out, err) == (
            2, "", f"error: vertex names must be distinct strings, got {names}\n")

    @pytest.mark.parametrize("informed", [",", ""])
    def test_dissemination_empty_informed_names_the_flag(self, capsys, informed):
        code, out, err = run(capsys, "simulate-dissemination", "--fixture", "fig1",
                             "--informed", informed)
        assert (code, out, err) == (2, "", "error: --informed names no vertex\n")

    @pytest.mark.parametrize("max_len", ["2", "0", "-3"])
    def test_dissemination_max_len_below_3_exits_2(self, capsys, max_len):
        code, out, err = run(capsys, "simulate-dissemination", "--fixture", "fig1",
                             "--informed", "5", "--max-len", max_len)
        assert (code, out, err) == (2, "", f"error: max_len must be at least 3, got {max_len}\n")

    def test_dissemination_max_len_3_fires_triangles(self, capsys):
        d = run_json(capsys, "simulate-dissemination", "--fixture", "fig1",
                     "--informed", "5", "--max-len", "3")
        assert d["rounds"][0]["circuits"] == [["5", "7", "10"]]
        assert [r["kind"] for r in d["rounds"]] == ["cycles", "fallback"]

    def test_dissemination_unknown_name_exits_2(self, capsys):
        code, _, err = run(
            capsys, "simulate-dissemination", "--fixture", "fig1", "--informed", "zz"
        )
        assert code == 2
        assert "error:" in err


class TestDotAndUsage:
    def test_weights_dot_colored(self, capsys):
        code, out, _ = run(capsys, "weights", "--family", "shadow", "--p", "2", "--format", "dot")
        assert code == 0
        assert out.startswith("graph G {")
        assert out.count("color=") == 4  # every edge colored

    def test_build_dot_plain(self, capsys):
        code, out, _ = run(capsys, "build", "--family", "shadow", "--p", "2", "--format", "dot")
        assert code == 0
        assert "color=" not in out

    def test_export_dot_is_not_a_command(self):
        # Graphviz output is `build --format dot` or `weights --format dot`
        with pytest.raises(SystemExit) as exc:
            main(["export-dot", "--family", "shadow", "--p", "2"])
        assert exc.value.code == 2

    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_family(self):
        with pytest.raises(SystemExit) as exc:
            main(["build", "--family", "grid", "--p", "3"])
        assert exc.value.code == 2

    def test_invalid_p_exits_2(self, capsys):
        code, _, err = run(capsys, "build", "--family", "shadow", "--p", "1")
        assert code == 2
        assert "error:" in err

    def test_internal_error_exits_4(self, capsys, monkeypatch):
        # exit 1 is reserved for --strict failures, so a crash must not map to it
        def crash(args):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setitem(cli._COMMANDS, "validate", crash)
        code, out, err = run(capsys, "validate", "--family", "shadow",
                             "--p-range", "2..3", "--strict")
        assert code == 4
        assert out == ""
        assert err == ("error: internal error: RecursionError: "
                       "maximum recursion depth exceeded\n")
