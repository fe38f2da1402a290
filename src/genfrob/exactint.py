"""Overflow-checked exact integer helpers.

Every scalar that leaves this package is a signed 64-bit value.  Python
integers are unbounded, so all arithmetic here is exact by construction;
what these helpers add is the narrowing check: any result outside the
64-bit range raises :class:`RangeOverflowError` instead of being returned.
Intermediate products are allowed up to 128 bits before narrowing, which
mirrors how the hot kernels hold products of two 64-bit values.

Usage:

    from genfrob.exactint import ceil_div, checked_mul, floor_sum, require_i64

    q = ceil_div(checked_mul(j, num), den)        # raises instead of wrapping
    sigma = require_i64(floor_sum(s + 1, den, num, den - 1))
"""

from __future__ import annotations

import math

from .errors import InvalidInputError, RangeOverflowError

I64_MIN = -(2**63)
I64_MAX = 2**63 - 1

_I128_MIN = -(2**127)
_I128_MAX = 2**127 - 1


def require_i64(value: int, what: str = "result") -> int:
    """Return ``value`` unchanged if it fits in signed 64 bits, else raise."""
    if value < I64_MIN or value > I64_MAX:
        raise RangeOverflowError(f"{what} {value} outside the signed 64-bit range")
    return value


def _require_i128(value: int, what: str) -> int:
    if value < _I128_MIN or value > _I128_MAX:
        raise RangeOverflowError(f"{what} {value} exceeds the 128-bit product headroom")
    return value


def checked_add(a: int, b: int) -> int:
    """Exact sum, narrowed to 64 bits."""
    return require_i64(a + b, "sum")


def checked_sub(a: int, b: int) -> int:
    """Exact difference, narrowed to 64 bits."""
    return require_i64(a - b, "difference")


def checked_mul(a: int, b: int) -> int:
    """Exact product, narrowed to 64 bits."""
    return require_i64(a * b, "product")


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


def lcm(a: int, b: int) -> int:
    """Exact least common multiple of two positive integers."""
    if a < 1 or b < 1:
        raise InvalidInputError("lcm requires positive integers")
    return require_i64(math.lcm(a, b), "lcm")


def lcm_fold(values) -> int:
    """lcm of an arbitrary non-empty sequence of positive integers."""
    values = tuple(values)
    if not values:
        raise InvalidInputError("lcm fold of an empty sequence")
    result = 1
    for v in values:
        result = lcm(result, v)
    return result


def ceil_div(num: int, den: int) -> int:
    """Exact ceiling of ``num / den`` for ``num >= 0`` and ``den >= 1``.

    ``num`` may be a product of two 64-bit values (128-bit headroom); the
    quotient itself must narrow back to 64 bits.
    """
    if den < 1:
        raise InvalidInputError("ceil_div requires a positive denominator")
    if num < 0:
        raise InvalidInputError("ceil_div requires a non-negative numerator")
    _require_i128(num, "numerator")
    require_i64(den, "denominator")
    return require_i64(-(-num // den), "ceiling quotient")


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


class CheckedInt:
    """Integer wrapper whose operators narrow every result to 64 bits.

    Arithmetic is exact (Python integers underneath); any result outside
    the signed 64-bit range raises :class:`RangeOverflowError` instead of
    wrapping.  Mixing with plain ``int`` is allowed on either side.
    """

    __slots__ = ("_value",)

    def __init__(self, value):
        if isinstance(value, CheckedInt):
            value = value._value
        if not isinstance(value, int):
            raise TypeError(f"CheckedInt requires int, got {type(value).__name__}")
        self._value = require_i64(value, "CheckedInt value")

    @property
    def value(self) -> int:
        return self._value

    def __repr__(self):
        return f"CheckedInt({self._value})"

    def __int__(self):
        return self._value

    def __index__(self):
        return self._value

    def __hash__(self):
        return hash(self._value)

    @staticmethod
    def _unwrap(other):
        if isinstance(other, CheckedInt):
            return other._value
        if isinstance(other, int):
            return other
        return None

    def _binary(self, other, op):
        rhs = self._unwrap(other)
        if rhs is None:
            return NotImplemented
        return CheckedInt(require_i64(op(self._value, rhs), "CheckedInt result"))

    def __add__(self, other):
        return self._binary(other, lambda a, b: a + b)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binary(other, lambda a, b: a - b)

    def __rsub__(self, other):
        rhs = self._unwrap(other)
        if rhs is None:
            return NotImplemented
        return CheckedInt(require_i64(rhs - self._value, "CheckedInt result"))

    def __mul__(self, other):
        return self._binary(other, lambda a, b: a * b)

    __rmul__ = __mul__

    def __floordiv__(self, other):
        return self._binary(other, lambda a, b: a // b)

    def __mod__(self, other):
        return self._binary(other, lambda a, b: a % b)

    def __neg__(self):
        return CheckedInt(require_i64(-self._value, "CheckedInt result"))

    def __eq__(self, other):
        rhs = self._unwrap(other)
        return NotImplemented if rhs is None else self._value == rhs

    def __lt__(self, other):
        rhs = self._unwrap(other)
        return NotImplemented if rhs is None else self._value < rhs

    def __le__(self, other):
        rhs = self._unwrap(other)
        return NotImplemented if rhs is None else self._value <= rhs

    def __gt__(self, other):
        rhs = self._unwrap(other)
        return NotImplemented if rhs is None else self._value > rhs

    def __ge__(self, other):
        rhs = self._unwrap(other)
        return NotImplemented if rhs is None else self._value >= rhs
