"""Closed forms for g(A; s) on three-part tuples with a divisibility condition.

A tuple (a1, a2, a3) with overall gcd 1 admits a closed form whenever some
pivot part ai is divisible by (aj / d) for a non-pivot part aj, where d is
the gcd of the two non-pivot parts.  Each such configuration pins

    g(A; sigma(s)) = (s+1) * (product of non-pivot parts)/d + ai*d - a1 - a2 - a3

at the cumulative index sigma(s) = sum_{j=0..s} ceil(j * num / den) with
num/den = (product of non-pivot parts) / (ai * d^2), one floor_sum call
(O(log s)); its inverse is a doubling-plus-bisection search.  All
arithmetic is exact; every division is checked to be remainder-free.

Also here: the union of the three index sequences (which counts are ever
pinned), and the specializations to consecutive triangular numbers, to
pairwise-coprime products, and to tuples containing 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Literal, NamedTuple

from .denumerant import Coins, table_capacity
from .errors import CapacityError, InvalidInputError, InvariantError
from .exactint import I64_MAX, floor_sum, gcd, require_i64

if TYPE_CHECKING:
    import numpy as np


def _cumulative_ceil(num: int, den: int, s: int) -> int:
    """sum(ceil(j*num/den) for j in 0..s), exact and not narrowed.

    ceil(j*num/den) == floor((j*num + den - 1)/den), so the sum is a single
    floor_sum call, O(log) in s.  Strictly increasing in s for num >= 1.
    """
    if s < 0:
        raise InvalidInputError("s must be non-negative")
    return floor_sum(s + 1, den, num, den - 1)


@dataclass(frozen=True)
class ClosedFormCase:
    """One applicable (pivot, divisibility) configuration of a 3-part tuple."""

    coins: Coins
    pivot: int  # 1-based index of the pivot part
    d: int  # gcd of the two non-pivot parts
    modulus_part: int  # 1-based index of the non-pivot part with (part/d) | pivot
    num: int  # sigma-step coefficient numerator, lowest terms
    den: int  # sigma-step coefficient denominator

    @property
    def pivot_value(self) -> int:
        return self.coins.parts[self.pivot - 1]

    @property
    def other_values(self) -> tuple[int, int]:
        return tuple(p for i, p in enumerate(self.coins.parts, 1) if i != self.pivot)

    def sigma(self, s: int) -> int:
        """The cumulative ceiling index paired with :meth:`value` at the same s."""
        return require_i64(_cumulative_ceil(self.num, self.den, s), "sigma index")

    def sigma_inverse(self, target: int) -> int:
        """Smallest s >= 0 with sigma(s) >= target.

        Doubling brackets s, then a binary search pins it: O(log s) sigma
        evaluations, each exact, so a target near the 64-bit limit is safe.
        """
        num, den = self.num, self.den
        hi = 1
        while _cumulative_ceil(num, den, hi) < target:
            hi *= 2
        lo = hi // 2 + 1 if hi > 1 else 0  # sigma(hi // 2) < target
        while lo < hi:
            mid = (lo + hi) // 2
            if _cumulative_ceil(num, den, mid) >= target:
                hi = mid
            else:
                lo = mid + 1
        return lo

    def index_of(self, target: int) -> int | None:
        """The s with sigma(s) == target, or None if target is not in the index family."""
        s = self.sigma_inverse(target)
        return s if _cumulative_ceil(self.num, self.den, s) == target else None

    def value(self, s: int) -> int:
        """g(A; sigma(s)), evaluated without any rounding."""
        if s < 0:
            raise InvalidInputError("s must be non-negative")
        x, y = self.other_values
        q, r = divmod(x * y, self.d)
        if r:  # d divides each non-pivot part, hence their product
            raise InvariantError(f"d={self.d} does not divide the non-pivot product {x * y}")
        v = (s + 1) * q + self.pivot_value * self.d - sum(self.coins.parts)
        return require_i64(v, "closed-form value")


class Row(NamedTuple):
    """One table row: index s, cumulative sigma, and the pinned g value."""

    s: int
    sigma: int
    g: int


def _three_parts(coins) -> Coins:
    coins = Coins.of(coins)
    if len(coins.parts) != 3:
        raise InvalidInputError("closed-form detection is defined for 3-part tuples")
    return coins


def _pivot_coefficients(a, i: int) -> tuple[int, int, int, int, int]:
    """(j, k, d, num, den) for pivot index ``i`` (0-based) of the parts ``a``.

    j < k are the non-pivot indices, d = gcd(a[j], a[k]), and num/den =
    a[j]*a[k] / (a[i]*d^2) is the sigma-step coefficient in lowest terms.
    """
    j, k = (x for x in range(3) if x != i)
    d = gcd(a[j], a[k])
    num, den = a[j] * a[k], a[i] * d * d
    shrink = gcd(num, den)
    return j, k, d, num // shrink, den // shrink


def detect_cases(coins) -> tuple[ClosedFormCase, ...]:
    """Every applicable configuration, ordered by pivot.

    A pivot with both non-pivot conditions holding yields a single case
    (sigma and the value depend only on the pivot); the recorded
    modulus_part is the first that holds.
    """
    coins = _three_parts(coins)
    if coins.overall_gcd != 1:
        raise InvalidInputError("closed forms require overall gcd 1")
    a = coins.parts
    cases = []
    for i in range(3):
        j, k, d, num, den = _pivot_coefficients(a, i)
        for m in (j, k):
            if a[i] % (a[m] // d) == 0:
                cases.append(ClosedFormCase(coins, i + 1, d, m + 1, num, den))
                break
    return tuple(cases)


def table_rows(case: ClosedFormCase, s_values) -> list[Row]:
    """Rows (s, sigma, g) for strictly increasing s values, O(log s) per row."""
    s_values = list(s_values)
    if not s_values or any(b <= a for a, b in zip(s_values, s_values[1:])):
        raise InvalidInputError("s values must be non-empty and strictly increasing")
    if s_values[0] < 0:
        raise InvalidInputError("s must be non-negative")
    return [Row(s, case.sigma(s), case.value(s)) for s in s_values]


def _index_sequences(coins, s_max: int) -> list[np.ndarray]:
    """The three index sequences sigma_i(0..s_max) as strictly increasing int64 arrays."""
    import numpy as np  # an array path: see the denumerant module docstring

    coins = _three_parts(coins)
    if s_max < 0:
        raise InvalidInputError("s_max must be non-negative")
    cap = table_capacity()
    if s_max + 1 > cap:  # each sequence is an array of s_max + 1 entries
        raise CapacityError(f"index sequences of {s_max + 1} entries exceed capacity {cap}")
    a = coins.parts
    sequences = []
    for i in range(3):
        _, _, _, num, den = _pivot_coefficients(a, i)
        # the last index is the largest, so every term and partial sum fits
        require_i64(_cumulative_ceil(num, den, s_max), "sigma index")
        if s_max * num + den - 1 <= I64_MAX:
            steps = np.arange(s_max + 1, dtype=np.int64) * num
            steps += den - 1
            steps //= den
        else:  # t*num would leave int64: exact Python ints for this sequence
            steps = np.array([(t * num + den - 1) // den for t in range(s_max + 1)], dtype=np.int64)
        sequences.append(np.cumsum(steps, out=steps))
    return sequences


def _sorted_union(arrays) -> np.ndarray:
    """Sorted distinct values of sorted int64 arrays.

    Sort plus adjacent dedupe is far cheaper than np.unique here, and the
    stable sort (a merge sort) joins the already sorted runs in linear time.
    """
    import numpy as np

    merged = np.sort(np.concatenate(arrays), kind="stable")
    keep = np.empty(merged.size, dtype=bool)
    keep[:1] = True
    np.not_equal(merged[1:], merged[:-1], out=keep[1:])
    return merged[keep]


def u_set(coins, s_max: int) -> tuple[int, ...]:
    """Sorted union of the three index sequences, each truncated at s_max.

    All three divisors d_i are used whether or not the corresponding
    divisibility condition holds.  Each sequence is an int64 array of
    s_max + 1 entries, so s_max + 1 is held to the table capacity.
    """
    return tuple(_sorted_union(_index_sequences(coins, s_max)).tolist())


def u_set_prefix(coins, s_max: int) -> tuple[tuple[int, ...], int]:
    """(prefix, bound): the union elements <= bound, which are final.

    Each sequence is strictly increasing past its truncation point, so no
    union element at or below the smallest truncated maximum can appear
    later; bound is that maximum.
    """
    import numpy as np

    sequences = _index_sequences(coins, s_max)
    bound = min(int(seq[-1]) for seq in sequences)
    kept = [seq[: np.searchsorted(seq, bound, side="right")] for seq in sequences]
    return tuple(_sorted_union(kept).tolist()), bound


def triangular(n: int) -> int:
    """The n-th triangular number n(n+1)/2."""
    if n < 0:
        raise InvalidInputError("triangular numbers are indexed by n >= 0")
    return require_i64(n * (n + 1) // 2, "triangular number")


def _exact_quarter(value: int) -> int:
    q, r = divmod(value, 4)
    if r:
        raise InvariantError(f"{value} is not a multiple of 4")
    return q


def triangular_frobenius(
    n: int, s: int, variant: Literal["first", "second"]
) -> tuple[int, int]:
    """(sigma, g) for the tuple of consecutive triangular numbers (t_n, t_{n+1}, t_{n+2}).

    ``first`` pivots on t_n with d = gcd(t_{n+1}, t_{n+2}); ``second``
    pivots on t_{n+2} with d = gcd(t_n, t_{n+1}).  The first variant is
    additionally checked against the factored single-fraction presentation
    (even n, and odd n >= 3), which must agree exactly.
    """
    if n < 1:
        raise InvalidInputError("n must be positive")
    if s < 0:
        raise InvalidInputError("s must be non-negative")
    if variant not in ("first", "second"):
        raise InvalidInputError(f"unknown variant {variant!r}")
    t0, t1, t2 = triangular(n), triangular(n + 1), triangular(n + 2)
    total = t0 + t1 + t2
    if variant == "first":
        d = gcd(t1, t2)
        num, den = t1 * t2, t0 * d * d
        value = (s + 1) * (t1 * t2 // d) + t0 * d - total
    else:
        d = gcd(t0, t1)
        num, den = t0 * t1, t2 * d * d
        value = (s + 1) * (t0 * t1 // d) + t2 * d - total
    sigma = require_i64(_cumulative_ceil(num, den, s), "sigma index")
    value = require_i64(value, "closed-form value")
    if variant == "first":
        if n % 2 == 0:
            alt_value = _exact_quarter((n + 1) * (n + 2) * (2 * s * (n + 3) + 3 * n)) - 1
            alt_sigma = s * (s + 1) + _cumulative_ceil(6, n, s)
            _require_same_presentation(n, s, (sigma, value), (alt_sigma, alt_value))
        elif n >= 3:
            alt_value = _exact_quarter((n + 1) * (n + 2) * ((n + 3) * s + 3 * (n - 1))) - 1
            alt_sigma = _cumulative_ceil(n + 3, 2 * n, s)
            _require_same_presentation(n, s, (sigma, value), (alt_sigma, alt_value))
    return sigma, value


def _require_same_presentation(n: int, s: int, direct, factored) -> None:
    if direct != factored:
        raise InvariantError(
            f"triangular n={n} s={s}: (sigma, g) {direct} != factored form {factored}"
        )


def pairwise_coprime_frobenius(m1: int, m2: int, m3: int, n: int) -> int:
    """g(m2*m3, m1*m3, m1*m2; t_n) = m1*m2*m3*(n+2) - m1*m2 - m1*m3 - m2*m3.

    The product tuple always admits the pivot-1 configuration with index
    coefficient exactly 1, so the paired index is the n-th triangular
    number; that structure is checked.
    """
    for m in (m1, m2, m3):
        if m < 1:
            raise InvalidInputError("factors must be positive")
    for x, y in ((m1, m2), (m1, m3), (m2, m3)):
        if gcd(x, y) != 1:
            raise InvalidInputError(f"factors must be pairwise coprime, got gcd({x},{y}) > 1")
    if n < 0:
        raise InvalidInputError("n must be non-negative")
    value = require_i64(
        m1 * m2 * m3 * (n + 2) - m1 * m2 - m1 * m3 - m2 * m3, "closed-form value"
    )
    coins = Coins((m2 * m3, m1 * m3, m1 * m2))
    case = next(c for c in detect_cases(coins) if c.pivot == 1)
    if not case.num == case.den == 1:  # hence case.sigma(n) == triangular(n)
        raise InvariantError(f"pivot-1 index coefficient {case.num}/{case.den} is not 1")
    if case.value(n) != value:
        raise InvariantError(f"closed form {case.value(n)} != product formula {value}")
    return value


def one_a_b_frobenius(a: int, b: int, s: int) -> tuple[int, int]:
    """(sigma, g) for the tuple (1, a, b): g(1, a, b; sum ceil(j*b/a)) = s*b - 1."""
    if a < 1 or b < 1:
        raise InvalidInputError("parts must be positive")
    if s < 0:
        raise InvalidInputError("s must be non-negative")
    value = require_i64(s * b - 1, "closed-form value")
    case = next(c for c in detect_cases(Coins((1, a, b))) if c.pivot == 2)
    if case.value(s) != value:
        raise InvariantError(f"closed form {case.value(s)} != s*b - 1 = {value}")
    return case.sigma(s), value
