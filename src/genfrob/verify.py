"""Executable property suites backed by the brute-force oracle.

Each check verifies one proved statement about counts and generalized
Frobenius numbers on concrete inputs and returns a structured report.
Inputs that violate a statement's hypothesis raise
:class:`InvalidInputError` and are never counted as failures, so a suite
tests exactly the claims.  Suite runners enumerate qualifying inputs
exhaustively (or sample them with a seeded RNG) and aggregate the
per-input reports.
"""

from __future__ import annotations

import itertools
import json
import random
import time
from dataclasses import dataclass
from typing import Any, NamedTuple

import numpy as np

from .closedform import detect_cases
from .denumerant import Coins, denumerant, denumerant_series
from .errors import InvalidInputError
from .exactint import gcd, gcd_fold
from .frobenius import gen_frobenius_brute, gen_frobenius_two


class Failure(NamedTuple):
    inputs: tuple
    expected: Any
    actual: Any


@dataclass(frozen=True)
class VerificationReport:
    """Pass/fail evidence from one suite run; failures empty iff it passed."""

    suite: str
    cases_run: int
    failures: tuple[Failure, ...]
    elapsed: float

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json_lines(self) -> list[str]:
        # elapsed is deliberately omitted: serialized reports must be
        # byte-reproducible across runs
        head = {
            "suite": self.suite,
            "cases_run": self.cases_run,
            "failures": len(self.failures),
            "passed": self.passed,
        }
        lines = [json.dumps(head)]
        for f in self.failures:
            lines.append(
                json.dumps({"inputs": list(f.inputs), "expected": f.expected, "actual": f.actual})
            )
        return lines


def _report(suite: str, cases_run: int, failures, start: float) -> VerificationReport:
    failures = tuple(sorted(failures, key=lambda f: f.inputs))
    return VerificationReport(suite, cases_run, failures, time.perf_counter() - start)


def _merge(suite: str, reports, start: float) -> VerificationReport:
    cases = sum(r.cases_run for r in reports)
    failures = [f for r in reports for f in r.failures]
    return _report(suite, cases, failures, start)


def _require_multiple_of_part(c: int, parts) -> None:
    if c < 1:
        raise InvalidInputError("c must be positive")
    if all(c % a for a in parts):
        raise InvalidInputError(f"c={c} is not a multiple of any part in {tuple(parts)}")


def check_lemma2(coins, s: int, c: int, *, max_table: int | None = None) -> VerificationReport:
    """Counts never rise above s along the arithmetic ray g(A;s) - j*c.

    Requires c to be a multiple of some part: then each representation of
    g(A;s) - j*c extends to one of g(A;s), so more than s of them would
    contradict the definition of g.
    """
    start = time.perf_counter()
    coins = Coins.of(coins)
    if coins.overall_gcd != 1:
        raise InvalidInputError("requires overall gcd 1")
    if s < 0:
        raise InvalidInputError("s must be non-negative")
    _require_multiple_of_part(c, coins.parts)
    g = gen_frobenius_brute(coins, s, max_table=max_table).value
    failures = []
    cases = 0
    if g >= 0:
        table = denumerant_series(coins, g, max_table=max_table)
        js = np.arange(g // c + 1)
        counts = table.counts[g - c * js]
        cases = int(js.size)
        for idx in np.flatnonzero(counts > s):
            failures.append(
                Failure(coins.parts + (s, c, int(js[idx])), f"<= {s}", int(counts[idx]))
            )
    return _report("lemma2", cases, failures, start)


def check_lemma3(a: int, b: int, s: int, c: int, *, max_table: int | None = None) -> VerificationReport:
    """The sandwich equivalence along the ray g(a,b;s) - j*c for coprime a, b.

    With g_i = g(a, b; i) and g_{-1} = -2, the count of g_s - j*c equals i
    exactly when g_{i-1} < g_s - j*c <= g_i.  Each j verifies the whole
    family of equivalences (i = 0..s) at once, since the sandwiched index
    is unique; cases_run counts the j values.
    """
    start = time.perf_counter()
    if a < 1 or b < 1 or gcd(a, b) != 1:
        raise InvalidInputError("requires positive coprime a, b")
    if s < 0:
        raise InvalidInputError("s must be non-negative")
    if c < 1 or (c % a and c % b):
        raise InvalidInputError(f"c={c} must be a multiple of {a} or {b}")
    g_s = gen_frobenius_two(a, b, s)
    failures = []
    cases = 0
    if g_s >= 0:
        table = denumerant_series((a, b), g_s, max_table=max_table)
        js = np.arange(g_s // c + 1)
        m = g_s - c * js
        counts = table.counts[m]
        # smallest i with m <= (i+1)ab - a - b; always lands in 0..s here
        sandwiched = (m + a + b + a * b - 1) // (a * b) - 1
        cases = int(js.size)
        for idx in np.flatnonzero(counts != sandwiched):
            failures.append(
                Failure((a, b, s, c, int(js[idx])), int(sandwiched[idx]), int(counts[idx]))
            )
    return _report("lemma3", cases, failures, start)


def check_decreasing(a: int, b: int, s: int, c: int, *, max_table: int | None = None) -> VerificationReport:
    """The count sequence along g(a,b;s) - j*c is non-increasing in j.

    Same hypothesis as the sandwich equivalence; without it the conclusion
    genuinely fails, so non-qualifying c are rejected as invalid input.
    """
    start = time.perf_counter()
    if a < 1 or b < 1 or gcd(a, b) != 1:
        raise InvalidInputError("requires positive coprime a, b")
    if s < 0:
        raise InvalidInputError("s must be non-negative")
    if c < 1 or (c % a and c % b):
        raise InvalidInputError(f"c={c} must be a multiple of {a} or {b}")
    g_s = gen_frobenius_two(a, b, s)
    failures = []
    cases = 0
    if g_s >= 0:
        table = denumerant_series((a, b), g_s, max_table=max_table)
        js = np.arange(g_s // c + 1)
        counts = table.counts[g_s - c * js]
        cases = max(int(js.size) - 1, 0)
        for idx in np.flatnonzero(np.diff(counts) > 0):
            failures.append(
                Failure(
                    (a, b, s, c, int(js[idx]), int(js[idx + 1])),
                    f"d at j={int(js[idx + 1])} <= d at j={int(js[idx])}",
                    (int(counts[idx]), int(counts[idx + 1])),
                )
            )
    return _report("decreasing", cases, failures, start)


def cross_check_theorem1(
    part_bound: int, s_bound: int, *, max_table: int | None = None
) -> VerificationReport:
    """Closed form versus brute force on every detected configuration.

    Enumerates all non-decreasing triples with parts <= part_bound and
    overall gcd 1; for every detected case and s <= s_bound the closed-form
    value must equal the brute-force g at the sigma index.
    """
    start = time.perf_counter()
    if part_bound < 1 or s_bound < 0:
        raise InvalidInputError("bounds must be positive / non-negative")
    failures = []
    cases = 0
    for parts in itertools.combinations_with_replacement(range(1, part_bound + 1), 3):
        if gcd_fold(parts) != 1:
            continue
        coins = Coins(parts)
        for case in detect_cases(coins):
            for s in range(s_bound + 1):
                sigma = case.sigma(s)
                expected = case.value(s)
                got = gen_frobenius_brute(
                    coins, sigma, max_table=max_table,
                    size_hint=expected + coins.min_part + 2,
                ).value
                cases += 1
                if got != expected:
                    failures.append(Failure(parts + (case.pivot, s, sigma), expected, got))
    return _report("theorem1", cases, failures, start)


def _coprime_pairs(max_ab: int):
    for a in range(1, max_ab + 1):
        for b in range(a, max_ab + 1):
            if gcd(a, b) == 1:
                yield a, b


def _qualifying_c(parts, max_c: int) -> list[int]:
    return sorted({c for a in parts for c in range(a, max_c + 1, a)})


def run_lemma2_suite(
    max_part: int = 20,
    max_s: int = 3,
    max_c: int = 60,
    *,
    arities=(2, 3),
    samples: int | None = None,
    seed: int | None = None,
    max_table: int | None = None,
) -> VerificationReport:
    """All (A, s, c) with parts <= max_part, gcd 1, s <= max_s, qualifying c <= max_c."""
    start = time.perf_counter()
    reports = []
    if samples is None:
        for k in arities:
            for parts in itertools.combinations_with_replacement(range(1, max_part + 1), k):
                if gcd_fold(parts) != 1:
                    continue
                for s in range(max_s + 1):
                    for c in _qualifying_c(parts, max_c):
                        reports.append(check_lemma2(parts, s, c, max_table=max_table))
    else:
        rng = random.Random(seed)
        while len(reports) < samples:
            k = rng.choice(arities)
            parts = tuple(sorted(rng.randint(1, max_part) for _ in range(k)))
            if gcd_fold(parts) != 1:
                continue
            choices = _qualifying_c(parts, max_c)
            if not choices:
                continue
            reports.append(
                check_lemma2(parts, rng.randint(0, max_s), rng.choice(choices), max_table=max_table)
            )
    return _merge("lemma2", reports, start)


def run_lemma3_suite(
    max_ab: int = 20,
    max_s: int = 4,
    max_c: int = 80,
    *,
    samples: int | None = None,
    seed: int | None = None,
    max_table: int | None = None,
) -> VerificationReport:
    """All coprime pairs a <= b <= max_ab, s <= max_s, qualifying c <= max_c."""
    start = time.perf_counter()
    reports = []
    if samples is None:
        for a, b in _coprime_pairs(max_ab):
            for s in range(max_s + 1):
                for c in _qualifying_c((a, b), max_c):
                    reports.append(check_lemma3(a, b, s, c, max_table=max_table))
    else:
        rng = random.Random(seed)
        while len(reports) < samples:
            a, b = rng.randint(1, max_ab), rng.randint(1, max_ab)
            if gcd(a, b) != 1:
                continue
            choices = _qualifying_c((a, b), max_c)
            if not choices:
                continue
            reports.append(
                check_lemma3(a, b, rng.randint(0, max_s), rng.choice(choices), max_table=max_table)
            )
    return _merge("lemma3", reports, start)


def run_decreasing_suite(
    max_ab: int = 20,
    max_s: int = 4,
    max_c: int = 80,
    *,
    samples: int | None = None,
    seed: int | None = None,
    max_table: int | None = None,
) -> VerificationReport:
    """Non-increasing count rays over the same grid as the sandwich suite."""
    start = time.perf_counter()
    reports = []
    if samples is None:
        for a, b in _coprime_pairs(max_ab):
            for s in range(max_s + 1):
                for c in _qualifying_c((a, b), max_c):
                    reports.append(check_decreasing(a, b, s, c, max_table=max_table))
    else:
        rng = random.Random(seed)
        while len(reports) < samples:
            a, b = rng.randint(1, max_ab), rng.randint(1, max_ab)
            if gcd(a, b) != 1:
                continue
            choices = _qualifying_c((a, b), max_c)
            if not choices:
                continue
            reports.append(
                check_decreasing(a, b, rng.randint(0, max_s), rng.choice(choices), max_table=max_table)
            )
    return _merge("decreasing", reports, start)


def run_theorem1_suite(
    max_part: int = 30,
    max_s: int = 4,
    *,
    max_table: int | None = None,
    samples: int | None = None,
    seed: int | None = None,
) -> VerificationReport:
    """Exhaustive closed-form-vs-oracle sweep (sampling is not supported)."""
    if samples is not None:
        raise InvalidInputError("the closed-form sweep is exhaustive only")
    return cross_check_theorem1(max_part, max_s, max_table=max_table)


def run_two_var_suite(
    max_ab: int = 25,
    max_s: int = 6,
    *,
    max_table: int | None = None,
    samples: int | None = None,
    seed: int | None = None,
) -> VerificationReport:
    """Two-part closed form versus brute force, plus d(g(a,b;s); a,b) == s."""
    start = time.perf_counter()
    if samples is not None:
        raise InvalidInputError("the two-variable sweep is exhaustive only")
    failures = []
    cases = 0
    for a, b in _coprime_pairs(max_ab):
        for s in range(max_s + 1):
            expected = gen_frobenius_two(a, b, s)
            got = gen_frobenius_brute(
                (a, b), s, max_table=max_table, size_hint=expected + min(a, b) + 2
            ).value
            cases += 1
            if got != expected:
                failures.append(Failure((a, b, s, "g_value"), expected, got))
            count_at_g = denumerant(expected, (a, b), max_table=max_table)
            cases += 1
            if count_at_g != s:
                failures.append(Failure((a, b, s, "count_at_g"), s, count_at_g))
    return _report("twovar", cases, failures, start)


SUITES = {
    "lemma2": run_lemma2_suite,
    "lemma3": run_lemma3_suite,
    "decreasing": run_decreasing_suite,
    "theorem1": run_theorem1_suite,
    "twovar": run_two_var_suite,
}
