"""Seeded op generators for the three workloads.

An op is one CLI invocation (its argv) plus what the checker needs to
know about it.  ``ops(workload, seed)`` yields an endless, deterministic
stream: the same seed gives the same ops in the same order.

Every workload cycles through a fixed list of op templates, and each
template draws its size from an evenly spread sequence (``Strata``), so the
mix of op costs in a run barely depends on the seed while the concrete
tuples, bounds and sample seeds do.  That keeps run-to-run spread low
without pinning the inputs.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import lru_cache
from math import gcd

from . import reference as ref
from . import speed

SPLIT_N = 10**7  # the package's default table capacity; denumerant past it splits


@dataclass(frozen=True)
class Op:
    kind: str
    argv: tuple[str, ...]
    spec: dict  # what the checker needs to know about the op


GOLDEN = (5**0.5 - 1) / 2


class Strata:
    """Evenly spread draws: the i-th draw of a key is frac(start + i * 0.618...),
    from a seeded start per key.  Any run of consecutive draws covers [0, 1)
    almost evenly, so a run's cost mix barely depends on the seed or on how
    many ops fit in it."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.points: dict[str, float] = {}

    def u(self, key: str) -> float:
        """The next draw of ``key`` in [0, 1)."""
        if key not in self.points:
            self.points[key] = self.rng.random()
        self.points[key] = (self.points[key] + GOLDEN) % 1.0
        return self.points[key]

    def pick(self, key: str, ordered):
        """The element of ``ordered`` at the next draw of ``key``, as a quantile."""
        return ordered[int(self.u(key) * len(ordered))]


def _lerp(lo: float, hi: float, u: float) -> float:
    return lo + (hi - lo) * u


def _tuple_arg(parts) -> str:
    return ",".join(map(str, parts))


# --- verify-grid ------------------------------------------------------------


def _lemma2_checks(p: int, s: int, c: int) -> int:
    return sum((s + 1) * len(ref.qualifying_c(parts, c)) for parts in ref.lemma2_tuples(p))


def _pair_checks(ab: int, s: int, c: int) -> int:
    return sum((s + 1) * len(ref.qualifying_c(pair, c)) for pair in ref.coprime_pairs(ab))


def _theorem1_searches(p: int, s: int) -> int:
    triples = itertools.combinations_with_replacement(range(1, p + 1), 3)
    return (s + 1) * sum(len(ref.closed_form_cases(t)) for t in triples if ref.gcd_all(t) == 1)


@lru_cache(maxsize=None)
def _suite_configs(suite: str) -> tuple[tuple[int, dict], ...]:
    """(work, bounds) pairs whose work (checks or searches) keeps one run at
    roughly 40-120 ms, sorted by work so a quantile picks a cost level."""
    if suite == "lemma2":
        grid = (
            (_lemma2_checks(p, s, c), {"max_part": p, "max_s": s, "max_c": c})
            for p in range(3, 10) for s in range(4) for c in range(8, 41, 4)
        )
        lo, hi = 1000, 3000
    elif suite in ("lemma3", "decreasing"):
        grid = (
            (_pair_checks(ab, s, c), {"max_ab": ab, "max_s": s, "max_c": c})
            for ab in range(4, 15) for s in range(6) for c in range(10, 81, 10)
        )
        lo, hi = 2000, 5000
    elif suite == "theorem1":
        grid = (
            (_theorem1_searches(p, s), {"max_part": p, "max_s": s})
            for p in range(6, 17) for s in range(6)
        )
        lo, hi = 1600, 4500
    else:
        grid = (
            (len(ref.coprime_pairs(ab)) * (s + 1), {"max_ab": ab, "max_s": s})
            for ab in range(8, 41) for s in range(13)
        )
        lo, hi = 1400, 3500
    kept = [(w, b) for w, b in grid if lo <= w <= hi]
    return tuple(sorted(kept, key=lambda wb: (wb[0], sorted(wb[1].items()))))


def _verify_argv(suite: str, bounds: dict, fmt: str, samples=None, seed=None) -> tuple[str, ...]:
    argv = ["verify", "--suite", suite]
    for key, value in bounds.items():
        argv += ["--" + key.replace("_", "-"), str(value)]
    if samples is not None:
        argv += ["--samples", str(samples), "--seed", str(seed)]
    return tuple(argv + ["--format", fmt])


def _exhaustive(suite: str):
    def make(rng: random.Random, strata: Strata) -> Op:
        _, bounds = strata.pick(suite, _suite_configs(suite))
        fmt = rng.choice(("text", "jsonl"))
        return Op("verify", _verify_argv(suite, bounds, fmt), {"suite": suite, "bounds": bounds})

    return make


def _sampled(suites):
    def make(rng: random.Random, strata: Strata) -> Op:
        suite = rng.choice(suites)
        samples = round(_lerp(150, 450, strata.u("samples:" + suite)))
        if suite == "lemma2":
            bounds = {"max_part": rng.randint(8, 14), "max_s": rng.randint(1, 3), "max_c": rng.randint(20, 60)}
        else:
            bounds = {"max_ab": rng.randint(12, 24), "max_s": rng.randint(2, 5), "max_c": rng.randint(30, 80)}
        argv = _verify_argv(suite, bounds, rng.choice(("text", "jsonl")), samples, rng.randrange(10**6))
        return Op("verify", argv, {"suite": suite, "bounds": bounds, "samples": samples})

    return make


def _cross_check(rng: random.Random, strata: Strata) -> Op:
    while True:
        parts = tuple(rng.randint(1, 40) for _ in range(3))
        if ref.gcd_all(parts) == 1 and ref.closed_form_cases(parts):
            break
    top = rng.randint(2, 8)
    s_arg = f"0..{top}" + (f",{top + rng.randint(2, 20)}" if rng.random() < 0.5 else "")
    fmt = rng.choice(("markdown", "csv", "json"))
    argv = ("theorem1", "--tuple", _tuple_arg(parts), "--s", s_arg, "--format", fmt, "--cross-check")
    return Op("theorem1", argv, {"parts": parts, "s_values": _parse_s(s_arg), "format": fmt})


VERIFY_GRID = (
    _exhaustive("lemma2"),
    _exhaustive("lemma3"),
    _exhaustive("theorem1"),
    _sampled(("lemma2",)),
    _exhaustive("decreasing"),
    _exhaustive("twovar"),
    _sampled(("lemma3", "decreasing")),
    _cross_check,
    _exhaustive("lemma2"),
)


# --- large-index ------------------------------------------------------------


def _divisible_tuple(rng: random.Random):
    # pivot x'*m is divisible by x = d*x' over d = gcd(x, y); gcd(pivot, d) = 1
    d = rng.randint(1, 6)
    while True:
        x1, y1, m = rng.randint(2, 30), rng.randint(2, 30), rng.randint(1, 8)
        if gcd(x1, y1) == 1 and gcd(x1 * m, d) == 1:
            parts = [x1 * m, d * x1, d * y1]
            rng.shuffle(parts)
            return tuple(parts)


def _triangular_tuple(rng: random.Random):
    n = rng.randint(2, 30)
    return tuple(k * (k + 1) // 2 for k in (n, n + 1, n + 2))


def _coprime_product_tuple(rng: random.Random):
    while True:
        m1, m2, m3 = (rng.randint(2, 13) for _ in range(3))
        if gcd(m1, m2) == gcd(m1, m3) == gcd(m2, m3) == 1:
            return (m2 * m3, m1 * m3, m1 * m2)


def _one_a_b_tuple(rng: random.Random):
    return (1, rng.randint(2, 250), rng.randint(2, 250))


FAMILIES = (_divisible_tuple, _triangular_tuple, _coprime_product_tuple, _one_a_b_tuple)


def _closed_form_tuple(rng: random.Random, strata: Strata, key: str):
    family = strata.pick("family:" + key, FAMILIES)
    while True:
        parts = family(rng)
        if ref.gcd_all(parts) == 1 and ref.closed_form_cases(parts):
            return parts


def _theorem1_large(rng: random.Random, strata: Strata) -> Op:
    steps = _lerp(6e4, 1.5e5, strata.u("theorem1"))
    while True:
        parts = _closed_form_tuple(rng, strata, "theorem1")
        cases = ref.closed_form_cases(parts)
        top = max(int(steps / len(cases)), 101)
        if all(ref.sigma(num, den, top) <= ref.I64_MAX for _, _, num, den in cases):
            break
    s_arg = f"0..5,100,{top}"
    fmt = rng.choice(("markdown", "csv", "json"))
    argv = ("theorem1", "--tuple", _tuple_arg(parts), "--s", s_arg, "--format", fmt)
    return Op("theorem1", argv, {"parts": parts, "s_values": _parse_s(s_arg), "format": fmt})


def _uset_large(rng: random.Random, strata: Strata) -> Op:
    s_max = round(_lerp(1.2e4, 3e4, strata.u("uset")))
    while True:
        parts = _closed_form_tuple(rng, strata, "uset")
        if _uset_fits(parts, s_max):
            break
    argv = ("uset", "--tuple", _tuple_arg(parts), "--s-max", str(s_max))
    return Op("uset", argv, {"parts": parts, "s_max": s_max})


def _uset_fits(parts, s_max: int) -> bool:
    for i in range(3):
        j, k = (x for x in range(3) if x != i)
        d = gcd(parts[j], parts[k])
        if ref.sigma(parts[j] * parts[k], parts[i] * d * d, s_max) > ref.I64_MAX // 4:
            return False
    return True


def _frobenius_closed(rng: random.Random, strata: Strata) -> Op:
    target = _lerp(1.2e5, 3e5, strata.u("frobenius"))
    best = None
    for _ in range(50):
        parts = _closed_form_tuple(rng, strata, "frobenius")
        _, _, num, den = rng.choice(ref.closed_form_cases(parts))
        j = int(target)
        for _ in range(2):  # the walks over earlier cases grow with j as well
            s = ref.sigma(num, den, j)
            walked = ref.sigma_match_steps(parts, s)
            j = max(1, round(j * target / max(walked, 1)))
        s = ref.sigma(num, den, j)
        walked = ref.sigma_match_steps(parts, s)
        miss = abs(walked / target - 1)
        if s <= ref.I64_MAX // 4 and (best is None or miss < best[0]):
            best = (miss, parts, s, walked)
        if miss < 0.3:
            break
    _, parts, s, walked = best
    fmt = rng.choice(("text", "json"))
    argv = ("frobenius", "--tuple", _tuple_arg(parts), "--s", str(s), "--format", fmt)
    return Op("frobenius", argv, {"parts": parts, "s": s, "format": fmt, "sigma_steps": walked})


def _denumerant_split(rng: random.Random, strata: Strata) -> Op:
    target = _lerp(8e4, 2e5, strata.u("split"))
    n = SPLIT_N + rng.randint(0, 10**5)
    best = None
    for _ in range(300):
        parts = _closed_form_tuple(rng, strata, "split")
        miss = abs(ref.split_terms(n, parts) / target - 1)
        if best is None or miss < best[0]:
            best = (miss, parts)
        if miss < 0.05:  # split ops make the tail, so their costs follow the even draws closely
            break
    parts = best[1]
    argv = ("denumerant", "--tuple", _tuple_arg(parts), "--n", str(n))
    return Op("denumerant", argv, {"parts": parts, "n": n, "split": True})


LARGE_INDEX = (_theorem1_large, _uset_large, _frobenius_closed, _denumerant_split)


# --- dense-tables -----------------------------------------------------------

# Part ranges per arity keep every count in the table below 1e17 (int64
# holds 9.2e18) at the largest sizes drawn, so no op overflows.
PART_RANGES = {3: (5, 150), 4: (5, 200), 5: (60, 400), 6: (400, 1500)}
COUNT_CEILING = 1e17


def _dense_parts(rng: random.Random, k: int, n_max: int):
    lo, hi = PART_RANGES[k]
    while True:
        parts = tuple(rng.sample(range(lo, hi + 1), k))
        if ref.gcd_all(parts) == 1 and ref.estimate_count(n_max, parts) < COUNT_CEILING:
            return parts


def _denumerant_table(k: int):
    # n * k (table entries times coin passes) spans 1.6e7..3.6e7 for every k,
    # so n stays within 2e6..9e6 while table costs bunch around the median
    def make(rng: random.Random, strata: Strata) -> Op:
        n = round(_lerp(1.6e7, 3.6e7, strata.u("denumerant")) / k)
        parts = _dense_parts(rng, k, n)
        argv = ("denumerant", "--tuple", _tuple_arg(parts), "--n", str(n))
        return Op("denumerant", argv, {"parts": parts, "n": n, "split": False})

    return make


def _frobenius_brute(k: int):
    # The search doubles its table from 1024 entries until the certificate
    # fits, so a target g in (0.56, 0.84) of 1024 * 2^m ends on that size.
    def make(rng: random.Random, strata: Strata) -> Op:
        size = 1024 * 2 ** strata.pick("brute", (7, 8, 9, 10, 11, 12))
        target = round(size * _lerp(0.56, 0.84, rng.random()))
        parts = _dense_parts(rng, k, size)
        s = max(1, int(ref.estimate_count(target, parts)))
        fmt = rng.choice(("text", "json"))
        argv = ("frobenius", "--tuple", _tuple_arg(parts), "--s", str(s), "--method", "brute", "--format", fmt)
        return Op("frobenius", argv, {"parts": parts, "s": s, "format": fmt, "brute": True})

    return make


# Two table counts per search keep the run's median inside the (continuous)
# spread of table-count costs rather than in the gap between the two kinds.
DENSE_TABLES = (
    _denumerant_table(4),
    _frobenius_brute(3),
    _denumerant_table(5),
    _denumerant_table(6),
    _frobenius_brute(4),
    _denumerant_table(4),
    _denumerant_table(5),
    _frobenius_brute(5),
    _denumerant_table(6),
)


WORKLOADS = {
    "verify-grid": VERIFY_GRID,
    "large-index": LARGE_INDEX,
    "dense-tables": DENSE_TABLES,
}

# The speed probe (``perfbench.speed``) that scales each workload's latencies:
# the first two spend their time in the interpreter, the last in numpy passes
# over large tables.
PROBES = {
    "verify-grid": speed.INTERPRETER,
    "large-index": speed.INTERPRETER,
    "dense-tables": speed.TABLES,
}


def _parse_s(text: str) -> list[int]:
    values = []
    for piece in text.split(","):
        lo, _, hi = piece.partition("..")
        values.extend(range(int(lo), int(hi) + 1) if hi else [int(lo)])
    return values


def ops(workload: str, seed: int):
    """Endless deterministic op stream for ``workload`` under ``seed``."""
    templates = WORKLOADS[workload]
    rng = random.Random(f"{workload}/{seed}")
    strata = Strata(rng)
    for i in itertools.count():
        yield templates[i % len(templates)](rng, strata)
