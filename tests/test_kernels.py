"""The counting kernel, one-buffer and streamed: correctness against the
naive and in-place DP oracles."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genfrob import _kernel
from genfrob._kernel import CHUNK, build_counts, stream_counts
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
        # two chunks, so every chunk boundary carries a row; 100_001
        # entries leave a ragged last row for each part
        ((3, 7, 5000), 100_000),
        # parts of half a chunk and more: one row per chunk, or less
        ((CHUNK // 2 + 3, 2, CHUNK + 1, CHUNK // 2), 3 * CHUNK // 2 + 10),
        # a part equal to n_max, and one past it
        ((5, 11, 4099, 4100), 4099),
    ],
)
def test_matches_inplace_dp(parts, n_max):
    assert build_counts(parts, n_max).tolist() == inplace_dp_counts(parts, n_max)


def test_matches_inplace_dp_on_random_multi_block_tables():
    rng = random.Random(4)
    for _ in range(10):
        n_max = rng.randint(CHUNK // 2, 2 * CHUNK)
        parts = (rng.randint(1, 40), rng.randint(41, 3000), rng.randint(3000, n_max + 10))
        assert build_counts(parts, n_max).tolist() == inplace_dp_counts(parts, n_max)


def test_overflow_detected():
    # twenty unit coins: counts are binomial(n+19, 19), far past int64 by n=200
    with pytest.raises(RangeOverflowError):
        build_counts((1,) * 20, 200)



# --- the chunk-major stream -------------------------------------------------


@pytest.fixture
def small_chunks(monkeypatch):
    """Chunks of 16 entries, so short tables cross many chunk boundaries."""
    monkeypatch.setattr(_kernel, "CHUNK", 16)
    return 16


def _streamed(parts, n_max, first=None):
    args = (parts, n_max) if first is None else (parts, n_max, first)
    pieces, end = [], 0
    for lo, chunk in stream_counts(*args):
        assert lo == end
        pieces += chunk.tolist()
        end += chunk.size
    return pieces


@pytest.mark.parametrize("parts", [(3, 5, 7), (1, 2, 16), (4, 9, 10, 15), (6, 10, 15)])
def test_every_length_around_chunk_boundaries(small_chunks, parts):
    for boundary in (small_chunks, 2 * small_chunks, 5 * small_chunks):
        for n_max in (boundary - 2, boundary - 1, boundary):  # lengths boundary - 1 .. + 1
            expected = inplace_dp_counts(parts, n_max)
            assert build_counts(parts, n_max).tolist() == expected, (parts, n_max)
            assert _streamed(parts, n_max) == expected, (parts, n_max)


def test_matches_inplace_dp_at_the_real_chunk_boundaries():
    parts = (3, 7, 101, 1000)
    for n_max in (CHUNK - 2, CHUNK - 1, CHUNK, 2 * CHUNK - 1, 2 * CHUNK):
        expected = inplace_dp_counts(parts, n_max)
        assert build_counts(parts, n_max).tolist() == expected, n_max
    assert _streamed(parts, 2 * CHUNK) == expected


def test_parts_larger_than_a_chunk(small_chunks):
    # every chunk is shorter than every part but 3
    parts = (3, 50, 130, 41)
    for n_max in (129, 130, 131, 400, 777):
        expected = inplace_dp_counts(parts, n_max)
        assert _streamed(parts, n_max, 4) == expected, n_max
        assert build_counts(parts, n_max).tolist() == expected, n_max


def test_stream_chunks_double_from_the_first():
    sizes = [chunk.size for _, chunk in stream_counts((2, 3), 10 * CHUNK, 1000)]
    assert sizes[:3] == [1000, 2000, 4000]
    assert max(sizes) == CHUNK and sum(sizes) == 10 * CHUNK + 1


def test_parts_past_n_max_are_skipped(small_chunks):
    for n_max in (40, 99):
        expected = inplace_dp_counts((2, 7), n_max)
        assert build_counts((2, 7, 100, 5000), n_max).tolist() == expected
        assert _streamed((7, 100, 2), n_max, 3) == expected


def test_one_chunk_tables_come_from_the_one_buffer_path(monkeypatch):
    calls = []
    one_buffer = _kernel._one_buffer
    monkeypatch.setattr(_kernel, "_one_buffer", lambda *a: calls.append(a[1]) or one_buffer(*a))
    build_counts((3, 5), CHUNK - 1)
    assert _streamed((3, 5), 99) == inplace_dp_counts((3, 5), 99)
    build_counts((3, 5), CHUNK)
    assert calls == [CHUNK - 1, 99]


def test_random_streams_match_inplace_dp(small_chunks):
    rng = random.Random(27)
    for _ in range(150):
        parts = tuple(rng.randint(1, 70) for _ in range(rng.randint(1, 5)))
        n_max = rng.randint(0, 400)
        first = rng.randint(1, 40)
        expected = inplace_dp_counts(parts, n_max)
        assert _streamed(parts, n_max, first) == expected, (parts, n_max, first)
        assert build_counts(parts, n_max).tolist() == expected, (parts, n_max)


def test_overflow_in_a_later_chunk(small_chunks):
    # twenty unit coins: d(n) = binomial(n+19, 19) first leaves int64 at n = 70,
    # in the fifth chunk; every earlier entry is exact
    assert math.comb(69 + 19, 19) < 1 << 63 <= math.comb(70 + 19, 19)
    assert build_counts((1,) * 20, 69).tolist() == [math.comb(n + 19, 19) for n in range(70)]
    with pytest.raises(RangeOverflowError):
        build_counts((1,) * 20, 70)
    with pytest.raises(RangeOverflowError):
        for _ in stream_counts((1,) * 20, 100, 4):
            pass


def test_overflow_in_the_second_real_chunk():
    # five unit coins: binomial(n+4, 4) first leaves int64 at n = 121974
    assert CHUNK < 121974 < 2 * CHUNK
    counts = build_counts((1,) * 5, 121973)
    assert int(counts[-1]) == math.comb(121973 + 4, 4)
    with pytest.raises(RangeOverflowError):
        build_counts((1,) * 5, 121974)
