"""Both kernel backends: correctness against the naive oracle, bitwise agreement."""

import os
import random
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import genfrob
from genfrob._kernel import available_backends
from genfrob._kernel._pykernel import BLOCK
from genfrob.errors import RangeOverflowError
from oracles import inplace_dp_counts, naive_denumerant

BACKENDS = available_backends()


@pytest.fixture(params=sorted(BACKENDS), ids=sorted(BACKENDS))
def kernel(request):
    return BACKENDS[request.param]


def test_selected_backend_is_available():
    assert genfrob.KERNEL_BACKEND in available_backends()


def test_small_table(kernel):
    counts = kernel.build_counts((3, 5), 7)
    assert counts.dtype == np.int64
    assert counts.tolist() == [1, 0, 0, 1, 0, 1, 1, 0]


def test_single_entry_table(kernel):
    assert kernel.build_counts((2, 3), 0).tolist() == [1]


def test_part_larger_than_table(kernel):
    assert kernel.build_counts((2, 100), 5).tolist() == [1, 0, 1, 0, 1, 0]


def test_rejects_nonpositive_part(kernel):
    with pytest.raises(ValueError):
        kernel.build_counts((0, 3), 5)


@settings(max_examples=60, deadline=None)
@given(
    parts=st.lists(st.integers(1, 12), min_size=1, max_size=4),
    n_max=st.integers(0, 40),
)
def test_matches_naive_oracle(parts, n_max):
    expected = [naive_denumerant(n, tuple(parts)) for n in range(n_max + 1)]
    for impl in BACKENDS.values():
        assert impl.build_counts(tuple(parts), n_max).tolist() == expected


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
def test_matches_inplace_dp(kernel, parts, n_max):
    assert kernel.build_counts(parts, n_max).tolist() == inplace_dp_counts(parts, n_max)


def test_matches_inplace_dp_on_random_multi_block_tables(kernel):
    rng = random.Random(4)
    for _ in range(10):
        n_max = rng.randint(BLOCK, 4 * BLOCK)
        parts = (rng.randint(1, 40), rng.randint(41, 3000), rng.randint(3000, n_max + 10))
        assert kernel.build_counts(parts, n_max).tolist() == inplace_dp_counts(parts, n_max)


@settings(max_examples=40, deadline=None)
@given(
    parts=st.lists(st.integers(1, 30), min_size=1, max_size=5),
    n_max=st.integers(0, 300),
)
def test_backends_bitwise_identical(parts, n_max):
    tables = [impl.build_counts(tuple(parts), n_max) for impl in BACKENDS.values()]
    for other in tables[1:]:
        assert np.array_equal(tables[0], other)


def test_overflow_detected(kernel):
    # twenty unit coins: counts are binomial(n+19, 19), far past int64 by n=200
    with pytest.raises(RangeOverflowError):
        kernel.build_counts((1,) * 20, 200)


def test_env_var_forces_python_backend():
    code = "from genfrob._kernel import BACKEND; print(BACKEND)"
    env = dict(os.environ, GENFROB_NO_EXT="1")
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "python"
