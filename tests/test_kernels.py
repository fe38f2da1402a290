"""The counting kernel: correctness against the naive and in-place DP oracles."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genfrob._kernel import BLOCK, build_counts
from genfrob.errors import RangeOverflowError
from oracles import inplace_dp_counts, naive_denumerant


def test_small_table():
    counts = build_counts((3, 5), 7)
    assert counts.dtype == np.int64
    assert counts.tolist() == [1, 0, 0, 1, 0, 1, 1, 0]


def test_single_entry_table():
    assert build_counts((2, 3), 0).tolist() == [1]


def test_part_larger_than_table():
    assert build_counts((2, 100), 5).tolist() == [1, 0, 1, 0, 1, 0]


def test_rejects_nonpositive_part():
    with pytest.raises(ValueError):
        build_counts((0, 3), 5)


@settings(max_examples=60, deadline=None)
@given(
    parts=st.lists(st.integers(1, 12), min_size=1, max_size=4),
    n_max=st.integers(0, 40),
)
def test_matches_naive_oracle(parts, n_max):
    expected = [naive_denumerant(n, tuple(parts)) for n in range(n_max + 1)]
    assert build_counts(tuple(parts), n_max).tolist() == expected


@pytest.mark.parametrize(
    "parts, n_max",
    [
        # several blocks per pass, so every block boundary carries a row;
        # 100_001 entries leave a ragged last row for each part
        ((3, 7, 5000), 100_000),
        # parts of at least BLOCK entries: one row per block
        ((BLOCK + 3, 2, 2 * BLOCK + 1, BLOCK), 3 * BLOCK + 10),
        # a part equal to n_max, and one past it
        ((5, 11, 4099, 4100), 4099),
    ],
)
def test_matches_inplace_dp(parts, n_max):
    assert build_counts(parts, n_max).tolist() == inplace_dp_counts(parts, n_max)


def test_matches_inplace_dp_on_random_multi_block_tables():
    rng = random.Random(4)
    for _ in range(10):
        n_max = rng.randint(BLOCK, 4 * BLOCK)
        parts = (rng.randint(1, 40), rng.randint(41, 3000), rng.randint(3000, n_max + 10))
        assert build_counts(parts, n_max).tolist() == inplace_dp_counts(parts, n_max)


def test_overflow_detected():
    # twenty unit coins: counts are binomial(n+19, 19), far past int64 by n=200
    with pytest.raises(RangeOverflowError):
        build_counts((1,) * 20, 200)

