"""Independent test oracles: naive enumeration, no package internals."""

import math

import numpy as np


def naive_denumerant(n, parts):
    """Count solutions of sum(parts[i]*x[i]) == n by nested enumeration."""
    if n < 0:
        return 0
    if not parts:
        return 1 if n == 0 else 0
    a = parts[0]
    return sum(naive_denumerant(n - j * a, parts[1:]) for j in range(n // a + 1))


def inplace_dp_counts(parts, n_max):
    """[d(0; parts), ..., d(n_max; parts)] by the in-place update
    c[m] += c[m - a], one part at a time, in Python ints."""
    counts = [1] + [0] * n_max
    for a in parts:
        for m in range(a, n_max + 1):
            counts[m] += counts[m - a]
    return counts


def naive_gen_frobenius(parts, s, scan_to):
    """Largest n <= scan_to with naive count <= s; asserts the stop window."""
    counts = [naive_denumerant(n, parts) for n in range(scan_to + 1)]
    best = -1
    for n, d in enumerate(counts):
        if d <= s:
            best = n
    window = min(parts)
    assert best + window <= scan_to, "scan_to too small to certify"
    assert all(counts[n] > s for n in range(best + 1, best + window + 1))
    return best


def scan_gen_frobenius(parts, s_values):
    """[g(parts; s) for s in s_values] by scanning a pure-Python table.

    The table doubles until min(parts) counts above max(s_values) follow
    the last count <= max(s_values); each s then takes the last index
    whose count is <= s.
    """
    window, top, n_max = min(parts), max(s_values), 64
    while True:
        counts = inplace_dp_counts(parts, n_max)
        last = max((n for n, d in enumerate(counts) if d <= top), default=-1)
        if last + window <= n_max:
            break
        n_max *= 2
    assert all(d > top for d in counts[last + 1 : last + window + 1])
    return [max((n for n, d in enumerate(counts) if d <= s), default=-1) for s in s_values]


def naive_floor_sum(n, m, a, b):
    """sum(floor((a*i + b) / m) for i in range(n)), term by term."""
    return sum((a * i + b) // m for i in range(n))


def naive_sigma(num, den, s):
    """sum(ceil(j*num/den) for j in 1..s) by the term-by-term walk."""
    total = 0
    for j in range(1, s + 1):
        total += -(-(j * num) // den)
    return total


def naive_sigma_inverse(num, den, target):
    """Smallest s with naive_sigma(num, den, s) >= target, walking s upward."""
    total, s = 0, 0
    while total < target:
        s += 1
        total += -(-(s * num) // den)
    return s


def naive_u_set(parts, s_max):
    """(sorted union, smallest sequence maximum) of the three index sequences."""
    sequences = []
    for i in range(3):
        j, k = (x for x in range(3) if x != i)
        d = math.gcd(parts[j], parts[k])
        num, den = parts[j] * parts[k], parts[i] * d * d
        seq, total = [0], 0
        for s in range(1, s_max + 1):
            total += -(-(s * num) // den)
            seq.append(total)
        sequences.append(seq)
    return sorted(set().union(*sequences)), min(seq[-1] for seq in sequences)


def numpy_peel_count(n, parts, peel, chunk=1 << 16):
    """d(n; parts) for three parts: sum over x of d(n - x*parts[peel]; other two).

    Each two-part count over (b, c), h = gcd(b, c), is zero unless h
    divides m; otherwise it counts the y in [0, (m/h) // (c/h)] congruent
    to (m/h) * (c/h)^-1 mod b/h.  The x run in numpy chunks.
    """
    p = parts[peel]
    b, c = (parts[i] for i in range(3) if i != peel)
    h = math.gcd(b, c)
    b1, c1 = b // h, c // h
    c_inv = pow(c1, -1, b1) if b1 > 1 else 0
    total = 0
    for lo in range(0, n // p + 1, chunk):
        x = np.arange(lo, min(lo + chunk, n // p + 1), dtype=np.int64)
        m = n - p * x
        if h > 1:
            m = m[m % h == 0] // h
        y0 = (m % b1) * c_inv % b1
        total += int(np.sum((m // c1 - y0) // b1 + 1))
    return total
