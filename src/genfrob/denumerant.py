"""Representation counting: d(n; a1..ak) by several exact strategies.

d(n; A) is the number of non-negative integer solutions of
``a1*x1 + ... + ak*xk == n``.  Strategies: the DP table built by the
counting kernel, a direct congruence count for two coprime parts, and the
splitting identity that peels one part off a larger tuple (for three parts
it is summed in closed form, O(log n); for more it is summed over the DP
table of the other parts as that table streams past, chunk by chunk).  All
strategies agree exactly; counts are 64-bit with overflow signalled.

numpy loads with the first table: this module, ``frobenius`` and
``closedform`` import it inside the functions that build or read arrays,
so the closed-form paths (two and three parts, sigma indices, closed g
values) never import it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import TYPE_CHECKING

from . import _kernel
from .errors import CapacityError, InvalidInputError, InvariantError, RangeOverflowError
from .exactint import I64_MAX, floor_sum, gcd, gcd_fold, require_i64

if TYPE_CHECKING:
    import numpy as np

DEFAULT_MAX_TABLE = 10**7
CAPACITY_ENV = "GENFROB_MAX_TABLE"


def table_capacity(override: int | None = None) -> int:
    """Cap on DP table length in entries (env ``GENFROB_MAX_TABLE`` overrides)."""
    if override is not None:
        cap = int(override)
    else:
        raw = os.environ.get(CAPACITY_ENV)
        try:
            cap = int(raw) if raw else DEFAULT_MAX_TABLE
        except ValueError:
            raise InvalidInputError(f"{CAPACITY_ENV}={raw!r} is not an integer") from None
    if cap < 1:
        raise InvalidInputError("table capacity must be positive")
    return cap


@dataclass(frozen=True)
class Coins:
    """An ordered tuple of k >= 2 positive parts with its gcd cached.

    Construct with :meth:`of` (idempotent) or :meth:`parse`; the validated
    invariants are k >= 2, every part >= 1 and within 64 bits, and
    ``overall_gcd`` equal to the gcd fold of the parts.
    """

    parts: tuple[int, ...]
    overall_gcd: int = 0  # 0 means "compute it"; any other value is validated

    def __post_init__(self):
        parts = tuple(int(p) for p in self.parts)
        object.__setattr__(self, "parts", parts)
        if len(parts) < 2:
            raise InvalidInputError("a tuple needs at least two parts")
        for p in parts:
            if p < 1:
                raise InvalidInputError(f"parts must be positive, got {p}")
            require_i64(p, "part")
        fold = gcd_fold(parts)
        if self.overall_gcd == 0:
            object.__setattr__(self, "overall_gcd", fold)
        elif self.overall_gcd != fold:
            raise InvalidInputError(
                f"cached gcd {self.overall_gcd} does not match the parts (gcd {fold})"
            )

    @classmethod
    def of(cls, value) -> "Coins":
        if isinstance(value, Coins):
            return value
        return cls(tuple(value))

    @classmethod
    def parse(cls, text: str) -> "Coins":
        """Parse a comma-separated list of positive integers, order preserved."""
        try:
            parts = tuple(int(piece) for piece in text.split(","))
        except ValueError as exc:
            raise InvalidInputError(f"cannot parse tuple {text!r}: {exc}") from None
        return cls(parts)

    @property
    def min_part(self) -> int:
        return min(self.parts)

    def __len__(self):
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)


@dataclass(frozen=True)
class DenumerantTable:
    """Immutable prefix d(0;A), d(1;A), ..., d(N;A) of the counting sequence."""

    coins: Coins
    counts: np.ndarray  # int64, read-only

    @property
    def n_max(self) -> int:
        return len(self.counts) - 1

    def count(self, n: int) -> int:
        """d(n; A) for any integer n covered by the table (0 for n < 0)."""
        if n < 0:
            return 0
        if n > self.n_max:
            raise CapacityError(f"n={n} beyond this table (n_max={self.n_max})")
        return int(self.counts[n])

    def __len__(self):
        return len(self.counts)


def denumerant_series(coins, n_max: int, *, max_table: int | None = None) -> DenumerantTable:
    """The full counting table up to ``n_max``, built by the selected kernel."""
    coins = Coins.of(coins)
    if n_max < 0:
        raise InvalidInputError("n_max must be non-negative")
    cap = table_capacity(max_table)
    if n_max + 1 > cap:
        raise CapacityError(f"table of {n_max + 1} entries exceeds capacity {cap}")
    counts = _kernel.build_counts(coins.parts, n_max)
    counts.setflags(write=False)
    return DenumerantTable(coins, counts)


def denumerant_two(n: int, a: int, b: int) -> int:
    """d(n; a, b) for coprime a, b by counting one congruence class.

    Counts the y in [0, n//b] with ``n - y*b`` divisible by a; each such y
    fixes x exactly.  Returns 0 for negative n.  ``n`` and the count are
    64-bit values: either outside that range raises RangeOverflowError.
    """
    if a < 1 or b < 1:
        raise InvalidInputError("parts must be positive")
    if gcd(a, b) != 1:
        raise InvalidInputError(f"denumerant_two requires coprime parts, got ({a}, {b})")
    require_i64(n, "n")
    if n < 0:
        return 0
    y0 = (n * pow(b, -1, a)) % a
    y_top = n // b
    if y0 > y_top:
        return 0
    return require_i64((y_top - y0) // a + 1, "denumerant")


def denumerant(n: int, coins, *, max_table: int | None = None) -> int:
    """d(n; A) by the cheapest applicable strategy.

    Negative n counts 0.  A common factor g of all parts is divided out
    first (n must be a multiple of g to be representable at all).  Two
    parts use the congruence count and three the closed split sum.  Four
    or more stream the DP table over the parts minus one copy of the
    largest part a and sum it along the residue class of n mod a, which
    saves the last coin pass and holds one chunk of the table at a time;
    n beyond the table capacity raises.  n and
    the count are 64-bit values: either outside that range raises
    RangeOverflowError.
    """
    coins = Coins.of(coins)
    require_i64(n, "n")
    if n < 0:
        return 0
    g = coins.overall_gcd
    if g > 1:
        if n % g:
            return 0
        reduced = Coins(tuple(p // g for p in coins.parts))
        return denumerant(n // g, reduced, max_table=max_table)
    parts = coins.parts
    if len(parts) == 2:
        return denumerant_two(n, parts[0], parts[1])
    if len(parts) == 3:
        return _split_large(n, parts)
    cap = table_capacity(max_table)
    if n + 1 > cap:
        raise CapacityError(
            f"n={n} exceeds the table capacity {cap} and no split strategy applies for k={len(parts)}"
        )
    i = max(range(len(parts)), key=lambda idx: parts[idx])
    a = parts[i]
    import numpy as np  # a table path: see the module docstring

    # d(n) = sum_j d(n - j*a; rest), summed chunk by chunk as the table of
    # the other parts streams past, so no n-entry array is ever held.  The
    # addends are non-negative int64, so the first partial sum within a
    # chunk to leave int64 wraps negative; the running total is exact.
    total = 0
    for lo, chunk in _kernel.stream_counts(parts[:i] + parts[i + 1 :], n):
        sums = np.cumsum(chunk[(n - lo) % a :: a])
        if sums.size:
            total += int(sums[-1])
            if sums[sums.argmin()] < 0 or total > I64_MAX:
                raise RangeOverflowError(f"d({n}; {parts}) exceeds int64")
    return total


def _split_large(n: int, parts: tuple[int, ...]) -> int:
    """d(n; a, b, c) for overall gcd 1 as a closed sum, O(log n).

    Peel the largest part a: d(n) = sum_j d(n - j*a; b, c).  Only multiples
    of h = gcd(b, c) can be hit, so j runs over one residue class mod h
    (gcd(a, h) == 1 because the overall gcd is 1), and each term is the
    count of m = (n - j*a)/h over the coprime pair b' = b/h, c' = c/h.
    Popoviciu's formula gives that count as
    ``(m - b'*(b'^-1 m mod c') - c'*(c'^-1 m mod b')) / (b'c') + 1``;
    the m run along an arithmetic progression, so each sum is one
    floor_sum call.
    """
    i = max(range(3), key=lambda idx: parts[idx])
    a = parts[i]
    b, c = (parts[j] for j in range(3) if j != i)
    h = gcd(b, c)
    bb, cc = b // h, c // h
    j0 = (n * pow(a % h, -1, h)) % h if h > 1 else 0
    j_top = n // a
    if j0 > j_top:
        return 0
    terms = (j_top - j0) // h + 1
    first = (n - j0 * a) // h  # m_t = first - a*t for t in range(terms)
    sum_m = terms * first - a * (terms * (terms - 1) // 2)
    sum_rc = _sum_mod_progression(terms, cc, pow(bb, -1, cc), first, -a)
    sum_rb = _sum_mod_progression(terms, bb, pow(cc, -1, bb), first, -a)
    q, r = divmod(sum_m - bb * sum_rc - cc * sum_rb, bb * cc)
    if r:
        raise InvariantError(f"Popoviciu sum for d({n}; {parts}) is not divisible by {bb * cc}")
    return require_i64(q + terms, "denumerant")


def _sum_mod_progression(terms: int, modulus: int, factor: int, first: int, step: int) -> int:
    """sum((factor * (first + step*t)) % modulus for t in range(terms))."""
    start, stride = factor * first % modulus, factor * step % modulus
    linear = terms * start + stride * (terms * (terms - 1) // 2)
    return linear - modulus * floor_sum(terms, modulus, stride, start)

