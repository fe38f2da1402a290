"""Reference arithmetic the benchmark checks genfrob's outputs against.

Nothing here imports genfrob.  Each routine reaches its answer by a
different method than the layer it checks:

- ``count3`` sums Popoviciu's two-part count along an arithmetic
  progression with ``floor_sum``, in O(log n) (the package walks the
  progression term by term or fills a table);
- ``peel_count`` peels a part that ``_split_large`` does not peel and sums
  the two-part counts with numpy;
- ``count_table`` fills a table one residue class at a time with
  ``np.cumsum`` (the package kernel reshapes and accumulates per coin);
- ``sigma`` is a single ``floor_sum`` call (the package walks j = 1..s).
"""

from __future__ import annotations

import itertools
from functools import reduce
from math import gcd

import numpy as np

I64_MAX = 2**63 - 1


def gcd_all(values) -> int:
    return reduce(gcd, values, 0)


def floor_sum(n: int, m: int, a: int, b: int) -> int:
    """sum(floor((a*i + b) / m) for i in range(n)) for n >= 0, m >= 1, a, b >= 0."""
    total = 0
    while True:
        if a >= m:
            total += n * (n - 1) // 2 * (a // m)
            a %= m
        if b >= m:
            total += n * (b // m)
            b %= m
        y_max = a * n + b
        if y_max < m:
            return total
        n, b = divmod(y_max, m)
        m, a = a, m


def _sum_mod(count: int, m: int, step: int, start: int) -> int:
    """sum((start + step*t) % m for t in range(count)), any integer step/start."""
    step %= m
    start %= m
    linear = count * start + step * (count * (count - 1) // 2)
    return linear - m * floor_sum(count, m, step, start)


def count3(n: int, a: int, b: int, c: int) -> int:
    """d(n; a, b, c) exactly, in O(log) steps.

    Peel c: only z with h = gcd(a, b) dividing n - z*c contribute, and for
    those the two-part count of m = (n - z*c)/h over the coprime pair
    (a/h, b/h) is Popoviciu's ``(m - b'*(b'^-1 m mod a') - a'*(a'^-1 m mod b'))/(a'b') + 1``.
    The m form an arithmetic progression, so each mod term sums with one
    ``floor_sum``.
    """
    if min(a, b, c) < 1:
        raise ValueError("parts must be positive")
    if n < 0:
        return 0
    common = gcd_all((a, b, c))
    if common > 1:
        if n % common:
            return 0
        return count3(n // common, a // common, b // common, c // common)
    h = gcd(a, b)
    a1, b1 = a // h, b // h
    z_top = n // c
    z0 = (n * pow(c, -1, h)) % h if h > 1 else 0
    if z0 > z_top:
        return 0
    terms = (z_top - z0) // h + 1
    first = (n - z0 * c) // h  # m_t = first - c*t for t in range(terms)
    b_inv = pow(b1, -1, a1) if a1 > 1 else 0
    a_inv = pow(a1, -1, b1) if b1 > 1 else 0
    sum_m = terms * first - c * (terms * (terms - 1) // 2)
    sum_ra = _sum_mod(terms, a1, -b_inv * c, b_inv * first)
    sum_rb = _sum_mod(terms, b1, -a_inv * c, a_inv * first)
    q, r = divmod(sum_m - b1 * sum_ra - a1 * sum_rb, a1 * b1)
    if r:
        raise ArithmeticError("Popoviciu sum is not integral")
    return q + terms


def peel_count(n: int, parts: tuple[int, int, int], peel: int, chunk: int = 1 << 16) -> int:
    """d(n; parts) as sum over x of d(n - x*parts[peel]; other two), vectorized.

    The two-part count of m over (b, c) with h = gcd(b, c) is zero unless h
    divides m; otherwise it counts the y in [0, m'/c'] congruent to
    m' * c'^-1 mod b' (primes mark the division by h).
    """
    if n < 0:
        return 0
    p = parts[peel]
    b, c = (parts[i] for i in range(3) if i != peel)
    h = gcd(b, c)
    b1, c1 = b // h, c // h
    c_inv = pow(c1, -1, b1) if b1 > 1 else 0
    total = 0
    x_top = n // p
    for lo in range(0, x_top + 1, chunk):
        x = np.arange(lo, min(lo + chunk, x_top + 1), dtype=np.int64)
        m = n - x * p
        m = m[m % h == 0] // h
        y0 = (m % b1) * c_inv % b1
        total += int(np.sum((m // c1 - y0) // b1 + 1))
    return total


def count_table(parts, n_max: int) -> np.ndarray:
    """int64 counts d(0..n_max; parts), filled one residue class at a time."""
    counts = np.zeros(n_max + 1, dtype=np.int64)
    counts[0] = 1
    for a in parts:
        if a > n_max:
            continue
        for r in range(a):
            view = counts[r::a]
            np.cumsum(view, out=view)
        if counts.min() < 0:
            raise OverflowError(f"reference count over {tuple(parts)} exceeds int64")
    return counts


def estimate_count(n: int, parts) -> float:
    """Leading-order size of d(n; parts): (n + sum/2)^(k-1) / ((k-1)! * prod)."""
    k = len(parts)
    size = float(n + sum(parts) / 2) ** (k - 1)
    for i in range(1, k):
        size /= i
    for a in parts:
        size /= a
    return size


# --- closed-form configurations and the sigma index -----------------------


def closed_form_cases(parts) -> list[tuple[int, int, int, int]]:
    """(pivot, d, num, den) for each pivot ai with ai % (aj/d) == 0 for a non-pivot aj.

    d is the gcd of the two non-pivot parts and num/den = aj*ak / (ai*d^2),
    the step coefficient of the sigma index; pivots are 1-based, in order.
    """
    cases = []
    for i in range(3):
        j, k = (x for x in range(3) if x != i)
        d = gcd(parts[j], parts[k])
        if any(parts[i] % (parts[m] // d) == 0 for m in (j, k)):
            cases.append((i + 1, d, parts[j] * parts[k], parts[i] * d * d))
    return cases


def sigma(num: int, den: int, s: int) -> int:
    """sum(ceil(j*num/den) for j in 1..s)."""
    return floor_sum(s + 1, den, num, den - 1)


def sigma_reach(num: int, den: int, target: int) -> int:
    """Smallest j >= 0 with sigma(num, den, j) >= target."""
    hi = 1
    while sigma(num, den, hi) < target:
        hi *= 2
    lo = 0
    while lo < hi:
        mid = (lo + hi) // 2
        if sigma(num, den, mid) >= target:
            hi = mid
        else:
            lo = mid + 1
    return lo


def sigma_match_steps(parts, s: int, max_steps: int = 2_000_000) -> int:
    """Steps the CLI's sigma walk takes to match s, computed from the inputs.

    Cases are tried in pivot order; each walk runs until its index reaches s
    or hits ``max_steps``, and the first exact hit ends the search.
    """
    steps = 0
    for _, _, num, den in closed_form_cases(parts):
        j = min(sigma_reach(num, den, s), max_steps)
        steps += j
        if sigma(num, den, j) == s:
            break
    return steps


def split_terms(n: int, parts) -> int:
    """Terms of the splitting sum that peels the largest of three parts."""
    i = max(range(3), key=lambda idx: parts[idx])
    a = parts[i]
    b, c = (parts[j] for j in range(3) if j != i)
    h = gcd(b, c)
    j0 = (n * pow(a % h, -1, h)) % h if h > 1 else 0
    top = n // a
    return (top - j0) // h + 1 if j0 <= top else 0


def uset_prefix(parts, s_max: int) -> tuple[list[int], int]:
    """(union elements <= bound, bound) of the three index sequences up to s_max."""
    seqs = []
    for i in range(3):
        j, k = (x for x in range(3) if x != i)
        d = gcd(parts[j], parts[k])
        num, den = parts[j] * parts[k], parts[i] * d * d
        steps = np.arange(s_max + 1, dtype=np.int64) * num
        seqs.append(np.cumsum(-(-steps // den)))
    bound = int(min(seq[-1] for seq in seqs))
    merged = np.unique(np.concatenate(seqs))
    return [int(v) for v in merged[merged <= bound]], bound


def certify_g(count, g: int, s: int, window: int) -> bool:
    """True iff d(g) <= s and the next ``window`` counts all exceed s."""
    return count(g) <= s and all(count(n) > s for n in range(g + 1, g + window + 1))


# --- expected case counts of the verification suites ----------------------


def qualifying_c(parts, max_c: int) -> list[int]:
    """The c <= max_c that are multiples of some part."""
    return sorted({c for a in parts for c in range(a, max_c + 1, a)})


def coprime_pairs(max_ab: int) -> list[tuple[int, int]]:
    return [(a, b) for a in range(1, max_ab + 1) for b in range(a, max_ab + 1) if gcd(a, b) == 1]


def lemma2_tuples(max_part: int):
    """Pairs and triples of parts <= max_part, non-decreasing, with gcd 1."""
    for k in (2, 3):
        for parts in itertools.combinations_with_replacement(range(1, max_part + 1), k):
            if gcd_all(parts) == 1:
                yield parts


def g_values(parts, max_s: int) -> list[int]:
    """g(parts; s) for s = 0..max_s, from one table grown until every certificate fits."""
    window = min(parts)
    n_max = 64
    while True:
        table = count_table(parts, n_max)
        values = []
        for s in range(max_s + 1):
            small = np.flatnonzero(table <= s)
            values.append(int(small[-1]) if small.size else -1)
        if values[-1] + window <= n_max:
            return values
        n_max *= 2


def _ray_cases(parts, max_s: int, max_c: int, drop_first: bool) -> int:
    cases = 0
    for g in g_values(parts, max_s):
        if g >= 0:
            cases += sum(g // c + (0 if drop_first else 1) for c in qualifying_c(parts, max_c))
    return cases


def expected_cases(suite: str, bounds: dict) -> int:
    """cases_run an exhaustive suite run must report for these bounds."""
    if suite == "lemma2":
        return sum(
            _ray_cases(parts, bounds["max_s"], bounds["max_c"], False)
            for parts in lemma2_tuples(bounds["max_part"])
        )
    if suite in ("lemma3", "decreasing"):
        return sum(
            _ray_cases(pair, bounds["max_s"], bounds["max_c"], suite == "decreasing")
            for pair in coprime_pairs(bounds["max_ab"])
        )
    if suite == "theorem1":
        triples = itertools.combinations_with_replacement(range(1, bounds["max_part"] + 1), 3)
        return (bounds["max_s"] + 1) * sum(
            len(closed_form_cases(t)) for t in triples if gcd_all(t) == 1
        )
    if suite == "twovar":
        return 2 * (bounds["max_s"] + 1) * len(coprime_pairs(bounds["max_ab"]))
    raise ValueError(f"unknown suite {suite!r}")
