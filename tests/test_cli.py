"""CLI behavior: golden outputs, exit codes, format agreement."""

import json
import time

import pytest

from genfrob.cli import MAX_S_ROWS, main
from genfrob.closedform import one_a_b_frobenius
from oracles import numpy_peel_count


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDenumerant:
    def test_flagship_count(self, capsys):
        code, out, _ = run_cli(capsys, "denumerant", "--tuple", "10,15,21", "--n", "120")
        assert code == 0 and out == "6\n"

    def test_zero_and_gap(self, capsys):
        assert run_cli(capsys, "denumerant", "--tuple", "3,5", "--n", "0")[1] == "1\n"
        assert run_cli(capsys, "denumerant", "--tuple", "3,5", "--n", "7")[1] == "0\n"

    def test_invalid_tuple_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "denumerant", "--tuple", "3,oops", "--n", "1")
        assert code == 2 and "error" in err

    def test_capacity_exits_3(self, capsys, monkeypatch):
        monkeypatch.setenv("GENFROB_MAX_TABLE", "100")
        code, _, err = run_cli(capsys, "denumerant", "--tuple", "2,3,5,7", "--n", "5000")
        assert code == 3 and "error" in err

    @pytest.mark.parametrize(
        "parts, n", [("1,1", "9223372036854775807"), ("1,2", str(10**23))]
    )
    def test_two_part_count_past_int64_exits_3(self, capsys, parts, n):
        code, out, err = run_cli(capsys, "denumerant", "--tuple", parts, "--n", n)
        assert code == 3 and out == "" and "64-bit" in err


class TestFrobenius:
    def test_two_var(self, capsys):
        code, out, _ = run_cli(capsys, "frobenius", "--tuple", "3,7", "--s", "2")
        assert code == 0
        assert out.splitlines()[0] == "53"
        assert "two_var_closed_form" in out

    def test_unit_pair(self, capsys):
        _, out, _ = run_cli(capsys, "frobenius", "--tuple", "1,2", "--s", "0")
        assert out.splitlines()[0] == "-1"

    def test_sigma_match_on_triple(self, capsys):
        code, out, _ = run_cli(capsys, "frobenius", "--tuple", "10,15,21", "--s", "4")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "194"
        assert "theorem1" in lines[1]

    def test_brute_method_prints_window(self, capsys):
        code, out, _ = run_cli(
            capsys, "frobenius", "--tuple", "10,15,21", "--s", "4", "--method", "brute"
        )
        lines = out.splitlines()
        assert lines[0] == "194"
        assert "brute_force" in lines[1]
        assert lines[2].startswith("window: 195:")

    def test_json_format(self, capsys):
        _, out, _ = run_cli(
            capsys, "frobenius", "--tuple", "3,7", "--s", "2", "--format", "json"
        )
        payload = json.loads(out)
        assert payload["value"] == 53
        assert payload["method"] == "two_var_closed_form"

    def test_closed_with_no_match_exits_2(self, capsys):
        # 6 is not in any sigma sequence of this tuple
        code, _, err = run_cli(
            capsys, "frobenius", "--tuple", "10,15,21", "--s", "6", "--method", "closed"
        )
        assert code == 2 and "no closed form" in err

    def test_closed_matches_sigma_in_second_sequence(self, capsys):
        code, out, _ = run_cli(
            capsys, "frobenius", "--tuple", "10,15,21", "--s", "5", "--method", "closed"
        )
        assert code == 0 and out.splitlines()[0] == "209"

    def test_gcd_above_one_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "frobenius", "--tuple", "4,6", "--s", "0")
        assert code == 2


class TestTheorem1:
    def test_markdown_golden(self, capsys):
        code, out, _ = run_cli(
            capsys, "theorem1", "--tuple", "10,15,21", "--s", "0..2"
        )
        assert code == 0
        assert out == (
            "### tuple=10,15,21 pivot=1 d=3\n"
            "| s | sigma | g |\n"
            "| ---: | ---: | ---: |\n"
            "| 0 | 0 | 89 |\n"
            "| 1 | 4 | 194 |\n"
            "| 2 | 11 | 299 |\n"
            "\n"
            "### tuple=10,15,21 pivot=3 d=5\n"
            "| s | sigma | g |\n"
            "| ---: | ---: | ---: |\n"
            "| 0 | 0 | 89 |\n"
            "| 1 | 1 | 119 |\n"
            "| 2 | 2 | 149 |\n"
            "\n"
        )

    def test_formats_carry_identical_numbers(self, capsys):
        args = ["theorem1", "--tuple", "10,15,21", "--s", "0..5,100,10000"]
        _, md, _ = run_cli(capsys, *args, "--format", "markdown")
        _, csv_text, _ = run_cli(capsys, *args, "--format", "csv")
        _, json_text, _ = run_cli(capsys, *args, "--format", "json")

        from_json = [
            (case["pivot"], [(r["s"], r["sigma"], r["g"]) for r in case["rows"]])
            for case in json.loads(json_text)["cases"]
        ]

        from_csv, current = [], None
        for line in csv_text.splitlines():
            if line.startswith("# pivot="):
                current = (int(line.split("=")[1].split()[0]), [])
                from_csv.append(current)
            elif line and line != "s,sigma,g":
                s, sigma, g = map(int, line.split(","))
                current[1].append((s, sigma, g))

        from_md, current = [], None
        for line in md.splitlines():
            if line.startswith("### "):
                pivot = int(line.split("pivot=")[1].split()[0])
                current = (pivot, [])
                from_md.append(current)
            elif line.startswith("|") and "sigma" not in line and "---" not in line:
                cells = [c.strip() for c in line.strip("|").split("|")]
                current[1].append(tuple(int(c) for c in cells))

        assert from_json == from_csv == from_md

    def test_cross_check_small_rows(self, capsys):
        code, _, err = run_cli(
            capsys,
            "theorem1", "--tuple", "10,15,21", "--s", "0..3",
            "--cross-check",
        )
        assert code == 0
        assert "8 rows verified" in err

    def test_no_applicable_case_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "theorem1", "--tuple", "16,23,37")
        assert code == 2 and "no applicable case" in err

    def test_unit_tuple_tables(self, capsys):
        _, out, _ = run_cli(
            capsys, "theorem1", "--tuple", "1,4,9", "--s", "0..5", "--format", "json"
        )
        payload = json.loads(out)
        by_pivot = {case["pivot"]: case["rows"] for case in payload["cases"]}
        assert [(r["sigma"], r["g"]) for r in by_pivot[2]] == [
            (0, -1), (3, 8), (8, 17), (15, 26), (24, 35), (36, 44),
        ]
        assert [(r["sigma"], r["g"]) for r in by_pivot[3]] == [
            (0, -1), (1, 3), (2, 7), (4, 11), (6, 15), (9, 19),
        ]

    def test_bad_s_range_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "theorem1", "--tuple", "10,15,21", "--s", "5..1")
        assert code == 2

    def test_s_beyond_ten_million(self, capsys):
        code, out, _ = run_cli(
            capsys, "theorem1", "--tuple", "10,15,21", "--s", "0,1000000000", "--format", "json"
        )
        assert code == 0
        rows = {case["pivot"]: case["rows"] for case in json.loads(out)["cases"]}[1]
        s = 10**9
        # pivot 1 steps by 7/2: sigma(s) = (7*s(s+1)/2 + ceil(s/2)) / 2
        assert rows[1] == {"s": s, "sigma": (7 * s * (s + 1) // 2 + (s + 1) // 2) // 2, "g": 105 * s + 89}

    def test_over_long_range_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, "theorem1", "--tuple", "10,15,21", "--s", f"0..{MAX_S_ROWS}"
        )
        assert code == 2 and "more than" in err
        code, _, _ = run_cli(capsys, "theorem1", "--tuple", "10,15,21", "--s", "0..1000000000000")
        assert code == 2


class TestUset:
    def test_golden_prefix(self, capsys):
        code, out, _ = run_cli(capsys, "uset", "--tuple", "10,15,21", "--s-max", "11")
        assert code == 0
        assert out == (
            "0,1,2,3,4,5,7,9,11,14,17,20,22,24\n"
            "# complete through 24 (s_max=11)\n"
        )

    def test_s_max_zero(self, capsys):
        _, out, _ = run_cli(capsys, "uset", "--tuple", "10,15,21", "--s-max", "0")
        assert out.splitlines()[0] == "0"

    def test_wrong_arity_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "uset", "--tuple", "3,5", "--s-max", "4")
        assert code == 2


class TestVerify:
    def test_passing_suite_exits_0(self, capsys):
        code, out, err = run_cli(
            capsys, "verify", "--suite", "lemma3", "--max-ab", "8", "--max-s", "2",
            "--max-c", "30",
        )
        assert code == 0
        assert "0 failures" in out and "pass" in out
        assert "elapsed" in err

    def test_jsonl_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "decreasing", "--max-ab", "8", "--max-s", "2",
            "--max-c", "30", "--format", "jsonl",
        )
        assert code == 0
        head = json.loads(out.splitlines()[0])
        assert head["suite"] == "decreasing" and head["passed"] is True

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "report.jsonl"
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "twovar", "--max-ab", "6", "--max-s", "2",
            "--format", "jsonl", "--output", str(target),
        )
        assert code == 0 and out == ""
        assert json.loads(target.read_text().splitlines()[0])["passed"] is True

    def test_unwritable_output_exits_2(self, capsys, tmp_path):
        target = tmp_path / "missing" / "report.txt"
        code, out, err = run_cli(
            capsys, "verify", "--suite", "twovar", "--max-ab", "3", "--max-s", "1",
            "--output", str(target),
        )
        assert code == 2 and out == ""
        assert err.startswith("error: cannot write --output") and err.count("\n") == 1

    def test_unknown_suite_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--suite", "nope")
        assert code == 2 and "unknown suite" in err

    def test_failing_suite_exits_1(self, capsys, monkeypatch):
        from genfrob.verify import Failure, VerificationReport

        def broken_runner(**kwargs):
            failure = Failure(inputs=(3, 7, 1), expected=1, actual=2)
            return VerificationReport("lemma2", 1, (failure,), 0.0)

        from genfrob import cli

        monkeypatch.setitem(cli.SUITES, "lemma2", broken_runner)
        code, out, _ = run_cli(capsys, "verify", "--suite", "lemma2")
        assert code == 1
        assert "1 failures" in out and "FAIL" in out

    @pytest.mark.parametrize("bounds", [("--max-ab", "0"), ("--max-ab", "5", "--max-s", "-1")])
    def test_twovar_bounds_with_nothing_to_check_exit_2(self, capsys, bounds):
        code, out, err = run_cli(capsys, "verify", "--suite", "twovar", *bounds)
        assert code == 2 and out == "" and "error" in err

    def test_bounds_outside_the_runner_signature_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--suite", "twovar", "--max-c", "5")
        assert code == 2 and "not applicable" in err

    def test_type_error_inside_a_suite_propagates(self, capsys, monkeypatch):
        from genfrob import cli

        def buggy_runner(max_part=20, max_s=3):
            return max_part + "oops"  # a defect, not bad input

        monkeypatch.setitem(cli.SUITES, "lemma2", buggy_runner)
        with pytest.raises(TypeError):
            main(["verify", "--suite", "lemma2", "--max-part", "4"])

    def test_sampled_mode(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "lemma2", "--max-part", "10", "--max-s", "2",
            "--max-c", "20", "--samples", "10", "--seed", "3", "--format", "jsonl",
        )
        assert code == 0
        assert json.loads(out.splitlines()[0])["passed"] is True


class TestBoundedTime:
    """Inputs that once ran without bound or fell back to brute force."""

    def test_three_part_count_at_a_billion(self, capsys):
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, "denumerant", "--tuple", "2,3,5", "--n", "1000000000")
        assert time.perf_counter() - start < 1.0
        assert code == 0 and out == "16666666833333334\n"

    def test_three_part_count_against_a_different_peel(self, capsys):
        code, out, _ = run_cli(capsys, "denumerant", "--tuple", "2,3,5", "--n", "100000000")
        assert code == 0
        assert int(out) == numpy_peel_count(10**8, (2, 3, 5), peel=1)

    def test_closed_form_at_a_large_sigma_index(self, capsys):
        s_inner = 3 * 10**6
        sigma, g = one_a_b_frobenius(7, 11, s_inner)
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, "frobenius", "--tuple", "1,7,11", "--s", str(sigma))
        assert time.perf_counter() - start < 1.0
        assert code == 0
        assert out.splitlines() == [str(s_inner * 11 - 1), "method: theorem1"]
        assert g == s_inner * 11 - 1

    def test_s_beyond_64_bits_exits_3(self, capsys):
        code, _, _ = run_cli(capsys, "frobenius", "--tuple", "10,15,21", "--s", str(2**64))
        assert code == 3


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("theorem1", "--tuple", "10,15,21", "--s", "0..5,100", "--format", "csv"),
            ("uset", "--tuple", "10,15,21", "--s-max", "11"),
            ("frobenius", "--tuple", "10,15,21", "--s", "4", "--method", "brute"),
            ("verify", "--suite", "twovar", "--max-ab", "6", "--max-s", "2",
             "--format", "jsonl"),
        ],
    )
    def test_byte_identical_across_invocations(self, capsys, argv):
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second
