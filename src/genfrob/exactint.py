"""Overflow-checked exact integer helpers.

Every scalar that leaves this package is a signed 64-bit value.  Python
integers are unbounded, so all arithmetic here is exact by construction;
what this module adds is the narrowing check: any result outside the
64-bit range raises :class:`RangeOverflowError` instead of being returned.
Intermediate values are never narrowed.

Usage:

    from genfrob.exactint import floor_sum, require_i64

    sigma = require_i64(floor_sum(s + 1, den, num, den - 1))  # raises instead of wrapping
"""

from __future__ import annotations

import math

from .errors import InvalidInputError, RangeOverflowError

I64_MIN = -(2**63)
I64_MAX = 2**63 - 1


def require_i64(value: int, what: str = "result") -> int:
    """Return ``value`` unchanged if it fits in signed 64 bits, else raise."""
    if value < I64_MIN or value > I64_MAX:
        raise RangeOverflowError(f"{what} {value} outside the signed 64-bit range")
    return value


def gcd(a: int, b: int) -> int:
    """Greatest common divisor.

    ``gcd(0, b) == b`` so the fold over a tuple stays simple; callers that
    need strict positivity enforce it themselves.  Negative input is
    rejected.
    """
    if a < 0 or b < 0:
        raise InvalidInputError("gcd is defined here for non-negative integers")
    return math.gcd(a, b)


def gcd_fold(values) -> int:
    """gcd of an arbitrary non-empty sequence of non-negative integers."""
    values = tuple(values)
    if not values:
        raise InvalidInputError("gcd fold of an empty sequence")
    if any(v < 0 for v in values):
        raise InvalidInputError("gcd is defined here for non-negative integers")
    return math.gcd(*values)


def floor_sum(n: int, m: int, a: int, b: int) -> int:
    """Exact ``sum(floor((a*i + b) / m) for i in range(n))`` in O(log m) steps.

    The Euclid-like reduction of the AtCoder Library's ``floor_sum``:
    ``n >= 0`` and ``m >= 1``; ``a`` and ``b`` may be any integers.  The
    result is an unbounded Python int; callers narrow it.
    """
    for name, value in (("n", n), ("m", m), ("a", a), ("b", b)):
        if not isinstance(value, int):
            raise InvalidInputError(f"floor_sum requires integer {name}, got {type(value).__name__}")
    if n < 0:
        raise InvalidInputError("floor_sum requires n >= 0")
    if m < 1:
        raise InvalidInputError("floor_sum requires m >= 1")
    total = 0
    while True:
        # divmod floors, so negative a and b reduce into [0, m) as well
        q, a = divmod(a, m)
        total += q * (n * (n - 1) // 2)
        q, b = divmod(b, m)
        total += q * n
        y_max = a * n + b
        if y_max < m:
            return total
        n, b = divmod(y_max, m)
        m, a = a, m

