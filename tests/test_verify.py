import itertools
import json
from math import gcd
from pathlib import Path

import pytest

from genfrob import _kernel
from genfrob.cli import main
from genfrob.denumerant import denumerant
from genfrob.errors import InvalidInputError
from genfrob.verify import (
    SUITES,
    check_decreasing,
    check_lemma2,
    check_lemma3,
    cross_check_theorem1,
    run_decreasing_suite,
    run_lemma2_suite,
    run_lemma3_suite,
    run_two_var_suite,
)


class TestLemma2:
    def test_examples_pass(self):
        report = check_lemma2((3, 7), 2, 6)
        assert report.passed and report.cases_run > 0
        report = check_lemma2((10, 15, 21), 0, 30)
        assert report.passed and report.cases_run > 0

    def test_j_zero_is_the_definition(self):
        # the j=0 term is d(g; A) <= s itself
        report = check_lemma2((3, 7), 0, 3)
        assert report.passed

    def test_rejects_non_multiple_c(self):
        with pytest.raises(InvalidInputError):
            check_lemma2((3, 7), 2, 5)

    def test_rejects_gcd_above_one(self):
        with pytest.raises(InvalidInputError):
            check_lemma2((4, 6), 1, 4)


class TestLemma3:
    def test_sandwich_at_j_zero(self):
        # at j=0: the count of 53 is exactly 2, sandwiched by 32 < 53 <= 53
        assert denumerant(53, (3, 7)) == 2
        report = check_lemma3(3, 7, 2, 6)
        assert report.passed and report.cases_run == 53 // 6 + 1

    def test_boundary_hit(self):
        # g(4,5;1)=31, c=20: 31-20=11 equals g(4,5;0), count must be 0
        assert denumerant(11, (4, 5)) == 0
        report = check_lemma3(4, 5, 1, 20)
        assert report.passed

    def test_rejects_non_qualifying_c(self):
        with pytest.raises(InvalidInputError):
            check_lemma3(4, 5, 1, 3)

    def test_rejects_non_coprime(self):
        with pytest.raises(InvalidInputError):
            check_lemma3(4, 6, 1, 4)


class TestDecreasing:
    def test_qualifying_example(self):
        report = check_decreasing(3, 7, 2, 6)
        assert report.passed

    def test_non_qualifying_c_rejected(self):
        # 3 divides neither 4 nor 5; the conclusion genuinely fails there,
        # so the input is invalid rather than a failure
        with pytest.raises(InvalidInputError):
            check_decreasing(4, 5, 1, 3)

    def test_product_step_decreases(self):
        report = check_decreasing(3, 7, 3, 21)
        assert report.passed

    def test_frozen_count_rays(self):
        # oracle-computed rays over (3, 7), step 6
        ray_from_g = [denumerant(53 - 6 * j, (3, 7)) for j in range(9)]
        assert ray_from_g == [2, 2, 2, 2, 1, 1, 1, 0, 0]
        ray_from_product = [denumerant(63 - 6 * j, (3, 7)) for j in range(13)]
        assert ray_from_product == [4, 3, 3, 3, 2, 2, 2, 2, 1, 1, 1, 0, 0]
        # and the non-qualifying (4, 5) ray really is not monotone
        ray_4_5 = [denumerant(31 - 3 * j, (4, 5)) for j in range(12)]
        assert ray_4_5 == [1, 2, 2, 1, 1, 1, 1, 1, 0, 1, 0, 0]
        assert any(b > a for a, b in zip(ray_4_5, ray_4_5[1:]))


class TestSuites:
    def test_lemma2_reduced_bounds(self):
        report = run_lemma2_suite(max_part=10, max_s=2, max_c=30)
        assert report.passed and report.cases_run > 100

    def test_lemma3_reduced_bounds(self):
        report = run_lemma3_suite(max_ab=10, max_s=3, max_c=40)
        assert report.passed and report.cases_run > 100

    def test_decreasing_reduced_bounds(self):
        report = run_decreasing_suite(max_ab=10, max_s=3, max_c=40)
        assert report.passed

    def test_theorem1_reduced_bounds(self):
        report = cross_check_theorem1(15, 2)
        assert report.passed and report.cases_run > 50

    def test_two_var_reduced_bounds(self):
        report = run_two_var_suite(10, 3)
        assert report.passed and report.cases_run > 100

    def test_sampled_mode_is_deterministic(self):
        a = run_lemma3_suite(max_ab=15, max_s=3, max_c=40, samples=25, seed=7)
        b = run_lemma3_suite(max_ab=15, max_s=3, max_c=40, samples=25, seed=7)
        assert a.to_json_lines() == b.to_json_lines()
        assert a.cases_run == b.cases_run

    def test_suite_registry(self):
        assert set(SUITES) == {"lemma2", "lemma3", "decreasing", "theorem1", "twovar"}


class TestReport:
    def test_json_lines_round_trip(self):
        report = check_lemma3(3, 7, 2, 6)
        lines = report.to_json_lines()
        head = json.loads(lines[0])
        assert head == {
            "suite": "lemma3",
            "cases_run": report.cases_run,
            "failures": 0,
            "passed": True,
        }
        assert len(lines) == 1  # no failure lines

    def test_elapsed_present_but_not_serialized(self):
        report = check_lemma2((3, 7), 1, 3)
        assert report.elapsed >= 0.0
        assert "elapsed" not in report.to_json_lines()[0]


# jsonl reports of every suite (exhaustive and sampled) and theorem1
# --cross-check runs on small bounds, recorded from the per-check runners
# that preceded the one-table-per-tuple evaluators: as computed, and with
# one entry of every kernel table perturbed.
REPORTS = json.loads((Path(__file__).parent / "data" / "verify_reports.json").read_text())


def _perturb_kernel(monkeypatch, index, delta):
    """Add delta to entry ``index`` of every table that reaches it."""
    original = _kernel.build_counts

    def build_counts(parts, n_max):
        counts = original(parts, n_max)
        if n_max >= index:
            counts[index] += delta
        return counts

    monkeypatch.setattr(_kernel, "build_counts", build_counts)


class TestRecordedReports:
    @pytest.mark.parametrize(
        "case", REPORTS, ids=lambda c: " ".join(c["argv"][:3]) + f" {c['perturb']}"
    )
    def test_matches_recording(self, case, monkeypatch, capsys):
        if case["perturb"]:
            _perturb_kernel(monkeypatch, *case["perturb"])
        code = main(case["argv"])
        out, err = capsys.readouterr()
        if case["perturb"] and case["perturb"][1] < 0:
            # A lowered entry beyond the table one s alone would build can
            # still reach the batched search, which grows its table for
            # the largest s: failures may be added, never dropped.
            failures = out.splitlines()[1:]
            assert set(case["stdout"].splitlines()[1:]) <= set(failures)
            assert code == (1 if failures else 0)
            return
        assert code == case["exit"]
        assert out == case["stdout"]
        if "stderr" in case:
            assert err == case["stderr"]

    def test_recording_covers_every_suite_and_failures(self):
        suites = {c["argv"][2] for c in REPORTS if c["argv"][0] == "verify"}
        assert suites == set(SUITES)
        failing = {c["argv"][2] for c in REPORTS if c["exit"] == 1 and c["argv"][0] == "verify"}
        assert failing == set(SUITES)
        assert any("--samples" in c["argv"] and c["exit"] == 1 for c in REPORTS)
        assert any(c["argv"][0] == "theorem1" and c["exit"] == 1 for c in REPORTS)


def _pair_loop(check, max_ab, max_s, max_c):
    for a, b in itertools.combinations_with_replacement(range(1, max_ab + 1), 2):
        if gcd(a, b) != 1:
            continue
        for s in range(max_s + 1):
            for c in sorted({c for p in (a, b) for c in range(p, max_c + 1, p)}):
                yield check(a, b, s, c)


def _lemma2_loop(max_part, max_s, max_c):
    for k in (2, 3):
        for parts in itertools.combinations_with_replacement(range(1, max_part + 1), k):
            if gcd(*parts) != 1:
                continue
            for s in range(max_s + 1):
                for c in sorted({c for p in parts for c in range(p, max_c + 1, p)}):
                    yield check_lemma2(parts, s, c)


@pytest.mark.parametrize("perturb", [(37, 1), (89, 2)])
def test_perturbed_suites_match_a_per_check_loop(perturb, monkeypatch):
    """A raised kernel entry shows up as the same failures in the batched
    suites as in a loop of one-check calls, each with its own table."""
    _perturb_kernel(monkeypatch, *perturb)
    runs = [
        (run_lemma2_suite(max_part=8, max_s=2, max_c=24), _lemma2_loop(8, 2, 24)),
        (run_lemma3_suite(max_ab=10, max_s=3, max_c=40), _pair_loop(check_lemma3, 10, 3, 40)),
        (run_decreasing_suite(max_ab=10, max_s=3, max_c=40), _pair_loop(check_decreasing, 10, 3, 40)),
    ]
    for report, loop in runs:
        reports = list(loop)
        failures = sorted((f for r in reports for f in r.failures), key=lambda f: f.inputs)
        assert report.failures and report.failures == tuple(failures)
        assert report.cases_run == sum(r.cases_run for r in reports)
