"""Tests of the benchmark itself: generators, references, checks, tracing, output.

    python3 -m pytest perfbench/tests -q
"""

import itertools
import json
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))
sys.path.insert(0, str(ROOT / "src"))

from perfbench import checks, metrics, reference, run, speed, tracing, workloads  # noqa: E402

RUN = [sys.executable, str(ROOT / "perfbench" / "run.py")]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def naive_count(n, parts):
    if n < 0:
        return 0
    if len(parts) == 1:
        return 1 if n % parts[0] == 0 else 0
    return sum(naive_count(n - j * parts[0], parts[1:]) for j in range(n // parts[0] + 1))


def first_ops(workload, seed, count=25):
    return [op.argv for op in itertools.islice(workloads.ops(workload, seed), count)]


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_generator_is_deterministic_per_seed(workload):
    assert first_ops(workload, 7) == first_ops(workload, 7)
    assert first_ops(workload, 7) != first_ops(workload, 8)


def test_draws_are_evenly_spread():
    # a run's cost mix must barely depend on the seed: any 13 consecutive
    # draws of a key leave no gap wider than a sixth of [0, 1)
    for seed in range(20):
        strata = workloads.Strata(random.Random(seed))
        draws = sorted(strata.u("key") for _ in range(13))
        gaps = [b - a for a, b in zip(draws, draws[1:])] + [1 + draws[0] - draws[-1]]
        assert max(gaps) < 1 / 6


def test_catalogue_matches_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    for key, catalogue in (("end_to_end", metrics.END_TO_END), ("per_layer", metrics.PER_LAYER)):
        listed = [(m["name"], m["unit"], m["better"]) for m in SPEC[key]]
        assert listed == [(m.name, m.unit, m.better) for m in catalogue]
    legal = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")  # names the benchmark format admits
    assert all(legal.fullmatch(m.name) for m in metrics.END_TO_END + metrics.PER_LAYER)
    assert next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")["bound"] == max(
        m["bound"] for m in SPEC["end_to_end"]
    )


@pytest.mark.parametrize("parts", [(3, 5, 7), (6, 10, 15), (1, 4, 9), (4, 6, 9), (2, 2, 3)])
def test_reference_counts_agree_with_enumeration(parts):
    table = reference.count_table(parts, 120)
    for n in range(121):
        want = naive_count(n, parts)
        assert reference.count3(n, *parts) == want == table[n]
        if reference.gcd_all(parts) == 1:
            assert all(reference.peel_count(n, parts, i, chunk=5) == want for i in range(3))


def test_sigma_and_gen_frobenius_references():
    for num, den in ((7, 2), (1, 1), (5, 12), (315, 90)):
        for s in range(30):
            assert reference.sigma(num, den, s) == sum(-(-j * num // den) for j in range(1, s + 1))
    g = reference.g_values((10, 15, 21), 4)
    assert g[0] == 89 and g[4] == 194
    assert all(reference.certify_g(lambda n: naive_count(n, (10, 15, 21)), g[s], s, 10) for s in range(5))


def test_expected_cases_match_the_package():
    from genfrob import verify

    bounds = {"max_part": 5, "max_s": 2, "max_c": 20}
    assert reference.expected_cases("lemma2", bounds) == verify.run_lemma2_suite(**bounds).cases_run
    bounds = {"max_ab": 7, "max_s": 3}
    assert reference.expected_cases("twovar", bounds) == verify.run_two_var_suite(**bounds).cases_run


def test_checker_rejects_wrong_outputs():
    checker = checks.Checker()
    op = workloads.Op("frobenius", (), {"parts": (10, 15, 21), "s": 4, "format": "text"})
    assert checker.check(op, "194\nmethod: theorem1\n")[0] is None
    assert checker.check(op, "195\nmethod: theorem1\n")[0] is not None
    assert checker.check(op, "garbage")[0] is not None
    op = workloads.Op("denumerant", (), {"parts": (10, 15, 21), "n": 10**7 + 1, "split": True})
    assert checker.check(op, "15873126984\n")[0] is None
    assert checker.check(op, "15873126985\n")[0] is not None
    op = workloads.Op("verify", (), {"suite": "twovar", "bounds": {"max_ab": 10, "max_s": 6}})
    assert checker.check(op, "suite twovar: 448 cases, 0 failures (pass)\n") == (None, 448)
    assert checker.check(op, "suite twovar: 447 cases, 0 failures (pass)\n")[0] is not None


def test_tail_is_highest_percentile_with_ten_beyond():
    latencies = [float(i) for i in range(100)]
    assert run.tail(latencies) == (89.0, 90.0, 100)
    assert run.tail([1.0, 2.0]) == (2.0, 100.0, 2)


def test_every_workload_has_a_speed_probe():
    assert set(workloads.PROBES) == set(workloads.WORKLOADS)
    for probe in set(workloads.PROBES.values()):
        assert 0 < probe.seconds() < 1


def test_a_probe_after_one_op_serves_the_next():
    calls = []

    class Counting(speed.Probe):
        def seconds(self):
            calls.append(1)
            return self.nominal_s / 2  # the machine runs twice as fast as nominal

    probe = Counting("counting", lambda: None, 1, 1e-3)
    latency, elapsed, out, problem, after = run.timed_call(lambda argv: print("ok") or 0, [], probe)
    assert (out, problem, latency) == ("ok\n", None, 2 * elapsed) and len(calls) == 2
    run.timed_call(lambda argv: 0, [], probe, before=after)
    assert len(calls) == 3


def test_tracer_restores_the_package(tmp_path):
    from genfrob import _kernel, cli, verify

    originals = (_kernel.build_counts, cli.gen_frobenius_brute, dict(verify.SUITES))
    tracer = tracing.Tracer(tmp_path / "spans.tsv.gz")
    tracer.install()
    try:
        traced_main = tracer.wrap("cli", "main", cli.main)
        assert run.call(traced_main, ["frobenius", "--tuple", "6,10,15", "--s", "50", "--method", "brute"])[2] is None
        tracer.end_op()
    finally:
        tracer.uninstall()
        tracer.close()
    assert (_kernel.build_counts, cli.gen_frobenius_brute, dict(verify.SUITES)) == originals
    summary = tracer.summary()
    assert summary["cli.calls"] == 1 and summary["frobenius.searches"] == 1
    assert summary["kernel.calls"] >= 1 and summary["kernel.errors"] == 0


def result_of(workload, trace):
    done = subprocess.run(
        RUN + ["--workload", workload, "--seed", "3", "--seconds", "0.2", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    for name, metric in result["metrics"].items():  # printed by name with unit
        assert any(line.startswith(f"{name} ") and metric["unit"] in line for line in lines[:-1])
    return result


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_run_prints_the_listed_metrics(workload):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result = result_of(workload, trace)
        assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert list(result["metrics"]) == [m["name"] for m in SPEC[key]]
        assert all(result["metrics"][m["name"]]["unit"] == m["unit"] for m in SPEC[key])


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-grid", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
