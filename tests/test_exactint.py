import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genfrob.errors import InvalidInputError, RangeOverflowError
from genfrob.exactint import I64_MAX, I64_MIN, floor_sum, gcd, gcd_fold, require_i64
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


def test_overflow_signals():
    with pytest.raises(RangeOverflowError):
        require_i64(I64_MAX + 1)
    with pytest.raises(RangeOverflowError):
        require_i64(I64_MIN - 1)
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

