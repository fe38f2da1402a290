"""Executable property suites backed by the brute-force oracle.

Each check verifies one proved statement about counts and generalized
Frobenius numbers on concrete inputs and returns a structured report.
Inputs that violate a statement's hypothesis raise
:class:`InvalidInputError` and are never counted as failures, so a suite
tests exactly the claims.  Suite runners enumerate qualifying inputs
exhaustively (or sample them with a seeded RNG), group them by tuple and
evaluate each tuple from one counting table: every g(A; s) the tuple
needs comes from one batched search, and all of its rays g - j*c are
read from that table as one index array.
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
from .frobenius import gen_frobenius_brute_many, gen_frobenius_two

# Unused here; kept importable by this path because perfbench's tracer
# patches verify.gen_frobenius_brute.
from .frobenius import gen_frobenius_brute  # noqa: F401


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


def _run(suite: str, evaluate, work: dict, max_table, start: float) -> VerificationReport:
    """One evaluator call, hence one counting table, per tuple key of ``work``.

    ``evaluate(parts, work[parts], max_table)`` returns that tuple's
    ``(cases_run, failures)``.
    """
    cases, failures = 0, []
    for parts, item in work.items():
        n, found = evaluate(parts, item, max_table)
        cases += n
        failures += found
    return _report(suite, cases, failures, start)


def _rays(g: list[int], checks: list[tuple[int, int]]):
    """All rays g[i] - j*c_i (j = 0..g[i]//c_i) of the checks with g[i] >= 0, as one array.

    Returns (ray, which, j, m): ``which`` holds the index of each ray's
    check in ``checks`` and ``m`` the concatenated integers g - j*c.
    """
    ray = [i for i, value in enumerate(g) if value >= 0]
    top = np.array([g[i] for i in ray], dtype=np.int64)
    step = np.array([checks[i][1] for i in ray], dtype=np.int64)
    lengths = top // step + 1
    which = np.repeat(np.arange(len(ray)), lengths)
    starts = np.cumsum(lengths) - lengths
    j = np.arange(int(lengths.sum())) - starts[which]
    return ray, which, j, top[which] - step[which] * j


def _require_multiple_of_part(c: int, parts) -> None:
    if c < 1:
        raise InvalidInputError("c must be positive")
    if all(c % a for a in parts):
        raise InvalidInputError(f"c={c} is not a multiple of any part in {tuple(parts)}")


def _require_coprime_pair_checks(a: int, b: int, checks) -> None:
    if a < 1 or b < 1 or gcd(a, b) != 1:
        raise InvalidInputError("requires positive coprime a, b")
    for s, c in checks:
        if s < 0:
            raise InvalidInputError("s must be non-negative")
        if c < 1 or (c % a and c % b):
            raise InvalidInputError(f"c={c} must be a multiple of {a} or {b}")


def _pair_rays(pair, checks, max_table):
    """The pair suites' rays g(a,b;s) - j*c and their counts, from one table."""
    a, b = pair
    _require_coprime_pair_checks(a, b, checks)
    g = [gen_frobenius_two(a, b, s) for s, _ in checks]
    ray, which, j, m = _rays(g, checks)
    counts = np.zeros(0, dtype=np.int64)
    if ray:
        counts = denumerant_series(pair, max(g), max_table=max_table).counts[m]
    return ray, which, j, m, counts


# The evaluators: one tuple and its (s, c) checks in, (cases_run, failures) out.


def _lemma2(coins, checks, max_table):
    coins = Coins.of(coins)
    if coins.overall_gcd != 1:
        raise InvalidInputError("requires overall gcd 1")
    for s, c in checks:
        if s < 0:
            raise InvalidInputError("s must be non-negative")
        _require_multiple_of_part(c, coins.parts)
    g, table = gen_frobenius_brute_many(coins, [s for s, _ in checks], max_table=max_table)
    ray, which, j, m = _rays(g, checks)
    counts = table.counts[m]
    bound = np.array([checks[i][0] for i in ray], dtype=np.int64)[which]
    failures = []
    for idx in np.flatnonzero(counts > bound):
        s, c = checks[ray[which[idx]]]
        failures.append(Failure(coins.parts + (s, c, int(j[idx])), f"<= {s}", int(counts[idx])))
    return int(m.size), failures


def _lemma3(pair, checks, max_table):
    a, b = pair
    ray, which, j, m, counts = _pair_rays(pair, checks, max_table)
    # smallest i with m <= (i+1)ab - a - b; always lands in 0..s here
    sandwiched = (m + a + b + a * b - 1) // (a * b) - 1
    failures = []
    for idx in np.flatnonzero(counts != sandwiched):
        s, c = checks[ray[which[idx]]]
        failures.append(
            Failure((a, b, s, c, int(j[idx])), int(sandwiched[idx]), int(counts[idx]))
        )
    return int(m.size), failures


def _decreasing(pair, checks, max_table):
    a, b = pair
    ray, which, j, _, counts = _pair_rays(pair, checks, max_table)
    # consecutive entries (idx, idx + 1) of the same ray
    same_ray = which[1:] == which[:-1]
    failures = []
    for idx in np.flatnonzero(same_ray & (counts[1:] > counts[:-1])):
        s, c = checks[ray[which[idx]]]
        j0, j1 = int(j[idx]), int(j[idx + 1])
        failures.append(
            Failure(
                (a, b, s, c, j0, j1),
                f"d at j={j1} <= d at j={j0}",
                (int(counts[idx]), int(counts[idx + 1])),
            )
        )
    return int(np.count_nonzero(same_ray)), failures


def check_lemma2(coins, s: int, c: int, *, max_table: int | None = None) -> VerificationReport:
    """Counts never rise above s along the arithmetic ray g(A;s) - j*c.

    Requires c to be a multiple of some part: then each representation of
    g(A;s) - j*c extends to one of g(A;s), so more than s of them would
    contradict the definition of g.
    """
    start = time.perf_counter()
    return _report("lemma2", *_lemma2(coins, [(s, c)], max_table), start)


def check_lemma3(a: int, b: int, s: int, c: int, *, max_table: int | None = None) -> VerificationReport:
    """The sandwich equivalence along the ray g(a,b;s) - j*c for coprime a, b.

    With g_i = g(a, b; i) and g_{-1} = -2, the count of g_s - j*c equals i
    exactly when g_{i-1} < g_s - j*c <= g_i.  Each j verifies the whole
    family of equivalences (i = 0..s) at once, since the sandwiched index
    is unique; cases_run counts the j values.
    """
    start = time.perf_counter()
    return _report("lemma3", *_lemma3((a, b), [(s, c)], max_table), start)


def check_decreasing(a: int, b: int, s: int, c: int, *, max_table: int | None = None) -> VerificationReport:
    """The count sequence along g(a,b;s) - j*c is non-increasing in j.

    Same hypothesis as the sandwich equivalence; without it the conclusion
    genuinely fails, so non-qualifying c are rejected as invalid input.
    """
    start = time.perf_counter()
    return _report("decreasing", *_decreasing((a, b), [(s, c)], max_table), start)


def _theorem1(parts, s_bound: int, max_table):
    """Closed form versus the batched search at every sigma index of one triple."""
    coins = Coins(parts)
    rows = [
        (case.pivot, s, case.sigma(s), case.value(s))
        for case in detect_cases(coins)
        for s in range(s_bound + 1)
    ]
    if not rows:
        return 0, []
    got, _ = gen_frobenius_brute_many(
        coins, [sigma for _, _, sigma, _ in rows], max_table=max_table,
        size_hint=max(expected for *_, expected in rows) + coins.min_part + 2,
    )
    failures = [
        Failure(parts + (pivot, s, sigma), expected, value)
        for (pivot, s, sigma, expected), value in zip(rows, got)
        if value != expected
    ]
    return len(rows), failures


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
    triples = (
        parts
        for parts in itertools.combinations_with_replacement(range(1, part_bound + 1), 3)
        if gcd_fold(parts) == 1
    )
    return _run("theorem1", _theorem1, {parts: s_bound for parts in triples}, max_table, start)


def _coprime_pairs(max_ab: int):
    for a in range(1, max_ab + 1):
        for b in range(a, max_ab + 1):
            if gcd(a, b) == 1:
                yield a, b


def _qualifying_c(parts, max_c: int) -> list[int]:
    return sorted({c for a in parts for c in range(a, max_c + 1, a)})


def _enumerate(tuples, max_s: int, max_c: int, samples, seed, draw_tuple):
    """The checks of a ray suite, grouped as ``{tuple: [(s, c), ...]}``.

    Exhaustive mode takes every tuple of ``tuples``, s <= max_s and
    qualifying c <= max_c.  Sampled mode draws ``samples`` checks with a
    ``random.Random(seed)``: ``draw_tuple(rng)`` gives a tuple or None to
    redraw, then s and c are drawn.  Tuples keep the order they first
    appear in; their checks keep draw order, repeats included.
    """
    work = {}
    if samples is None:
        for parts in tuples:
            for s in range(max_s + 1):
                for c in _qualifying_c(parts, max_c):
                    work.setdefault(parts, []).append((s, c))
        return work
    rng = random.Random(seed)
    drawn = 0
    while drawn < samples:
        parts = draw_tuple(rng)
        if parts is None:
            continue
        choices = _qualifying_c(parts, max_c)
        if not choices:
            continue
        s = rng.randint(0, max_s)
        work.setdefault(parts, []).append((s, rng.choice(choices)))
        drawn += 1
    return work


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
    tuples = (
        parts
        for k in arities
        for parts in itertools.combinations_with_replacement(range(1, max_part + 1), k)
        if gcd_fold(parts) == 1
    )

    def draw(rng):
        k = rng.choice(arities)
        parts = tuple(sorted(rng.randint(1, max_part) for _ in range(k)))
        return parts if gcd_fold(parts) == 1 else None

    work = _enumerate(tuples, max_s, max_c, samples, seed, draw)
    return _run("lemma2", _lemma2, work, max_table, start)


def _run_pair_suite(suite, evaluate, max_ab, max_s, max_c, samples, seed, max_table):
    start = time.perf_counter()

    def draw(rng):
        a, b = rng.randint(1, max_ab), rng.randint(1, max_ab)
        return (a, b) if gcd(a, b) == 1 else None

    work = _enumerate(_coprime_pairs(max_ab), max_s, max_c, samples, seed, draw)
    return _run(suite, evaluate, work, max_table, start)


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
    return _run_pair_suite("lemma3", _lemma3, max_ab, max_s, max_c, samples, seed, max_table)


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
    return _run_pair_suite("decreasing", _decreasing, max_ab, max_s, max_c, samples, seed, max_table)


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


def _two_var(pair, max_s: int, max_table):
    """Two-part closed form versus the batched search, and d(g(a,b;s); a,b) == s."""
    a, b = pair
    expected = [gen_frobenius_two(a, b, s) for s in range(max_s + 1)]
    if not expected:
        return 0, []
    coins = Coins(pair)
    got, _ = gen_frobenius_brute_many(
        coins, range(max_s + 1), max_table=max_table, size_hint=max(expected) + min(a, b) + 2
    )
    failures = []
    for s, (want, value) in enumerate(zip(expected, got)):
        if value != want:
            failures.append(Failure((a, b, s, "g_value"), want, value))
        count_at_g = denumerant(want, coins, max_table=max_table)
        if count_at_g != s:
            failures.append(Failure((a, b, s, "count_at_g"), s, count_at_g))
    return 2 * len(expected), failures


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
    work = {pair: max_s for pair in _coprime_pairs(max_ab)}
    return _run("twovar", _two_var, work, max_table, start)


SUITES = {
    "lemma2": run_lemma2_suite,
    "lemma3": run_lemma3_suite,
    "decreasing": run_decreasing_suite,
    "theorem1": run_theorem1_suite,
    "twovar": run_two_var_suite,
}
