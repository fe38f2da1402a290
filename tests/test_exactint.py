import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genfrob.errors import InvalidInputError, RangeOverflowError
from genfrob.exactint import (
    I64_MAX,
    I64_MIN,
    CheckedInt,
    ceil_div,
    checked_add,
    checked_mul,
    checked_sub,
    floor_sum,
    gcd,
    gcd_fold,
    lcm,
    lcm_fold,
    require_i64,
)
from oracles import naive_floor_sum


def test_gcd_examples():
    assert gcd(15, 21) == 3
    assert gcd(7, 7) == 7
    assert gcd(16, 23) == 1


def test_gcd_zero_convention():
    assert gcd(0, 5) == 5
    assert gcd(5, 0) == 5


def test_gcd_rejects_negative():
    with pytest.raises(InvalidInputError):
        gcd(-3, 5)


def test_gcd_fold():
    assert gcd_fold((10, 15, 21)) == 1
    assert gcd_fold((15, 21)) == 3
    with pytest.raises(InvalidInputError):
        gcd_fold(())


def test_ceil_div_examples():
    assert ceil_div(315 * 1, 90) == 4
    assert ceil_div(0, 5) == 0
    assert ceil_div(9 * 2, 4) == 5


def test_ceil_div_validation():
    with pytest.raises(InvalidInputError):
        ceil_div(3, 0)
    with pytest.raises(InvalidInputError):
        ceil_div(-1, 3)


def test_lcm_examples():
    assert lcm_fold((55, 22, 10)) == 110
    assert lcm(1, 9) == 9
    assert lcm(4, 6) == 12


def test_lcm_rejects_nonpositive():
    with pytest.raises(InvalidInputError):
        lcm(0, 3)


@given(st.integers(1, 10**9), st.integers(1, 10**9))
def test_gcd_lcm_product_identity(a, b):
    assert gcd(a, b) * lcm(a, b) == a * b


@given(st.integers(0, 10**12), st.integers(1, 10**6))
def test_ceil_div_bounds(n, d):
    q = ceil_div(n, d)
    assert q * d >= n
    assert (q - 1) * d < n


def test_overflow_signals():
    with pytest.raises(RangeOverflowError):
        checked_mul(2**62, 4)
    with pytest.raises(RangeOverflowError):
        checked_add(I64_MAX, 1)
    with pytest.raises(RangeOverflowError):
        checked_sub(I64_MIN, 1)
    with pytest.raises(RangeOverflowError):
        lcm(2**40, 2**40 + 1)
    with pytest.raises(RangeOverflowError):
        ceil_div(2**100, 2)
    with pytest.raises(RangeOverflowError):
        ceil_div(2**200, 2)  # numerator beyond the 128-bit headroom
    assert require_i64(I64_MAX) == I64_MAX
    assert require_i64(I64_MIN) == I64_MIN


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 60),
    st.integers(1, 50),
    st.integers(-200, 200),
    st.integers(-200, 200),
)
def test_floor_sum_matches_naive_sum(n, m, a, b):
    assert floor_sum(n, m, a, b) == naive_floor_sum(n, m, a, b)


def test_floor_sum_exact_beyond_128_bits():
    for n, m, a, b in ((1000, 2**70 + 3, 2**100 + 7, 2**90), (700, 3, -(2**80), 2**120 + 1)):
        assert floor_sum(n, m, a, b) == naive_floor_sum(n, m, a, b)


def test_floor_sum_edge_and_validation():
    assert floor_sum(0, 5, 3, 2) == 0
    assert floor_sum(4, 1, 1, 0) == 6
    with pytest.raises(InvalidInputError):
        floor_sum(-1, 5, 1, 1)
    with pytest.raises(InvalidInputError):
        floor_sum(3, 0, 1, 1)
    with pytest.raises(InvalidInputError):
        floor_sum(3, 2, 1.5, 1)


def test_checked_int_arithmetic():
    x = CheckedInt(40)
    assert int(x + 2) == 42
    assert int(2 + x) == 42
    assert int(x - 50) == -10
    assert int(50 - x) == 10
    assert int(x * 3) == 120
    assert int(-x) == -40
    assert int(x // 7) == 5
    assert int(x % 7) == 5
    assert x == 40 and x < 41 and x >= CheckedInt(40)
    assert hash(x) == hash(40)


def test_checked_int_overflow():
    big = CheckedInt(2**62)
    with pytest.raises(RangeOverflowError):
        big * 4
    with pytest.raises(RangeOverflowError):
        CheckedInt(I64_MAX) + 1
    with pytest.raises(RangeOverflowError):
        CheckedInt(2**63)


def test_checked_int_type_errors():
    with pytest.raises(TypeError):
        CheckedInt("3")


@given(st.integers(I64_MIN // 2, I64_MAX // 2), st.integers(-(2**30), 2**30))
def test_checked_int_matches_plain_int(a, b):
    assert int(CheckedInt(a) + b) == a + b
    assert int(CheckedInt(a) - b) == a - b
