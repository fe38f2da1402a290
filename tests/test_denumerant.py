import math
import random
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genfrob.denumerant import (
    Coins,
    _split_large,
    denumerant,
    denumerant_series,
    denumerant_two,
)
from genfrob.errors import CapacityError, InvalidInputError, RangeOverflowError
from genfrob.exactint import gcd, gcd_fold
from oracles import inplace_dp_counts, naive_denumerant, numpy_peel_count


class TestCoins:
    def test_caches_gcd(self):
        assert Coins.of((10, 15, 21)).overall_gcd == 1
        assert Coins.of((15, 21)).overall_gcd == 3

    def test_of_is_idempotent(self):
        coins = Coins.of((3, 5))
        assert Coins.of(coins) is coins

    def test_parse_preserves_order(self):
        assert Coins.parse("21,10,15").parts == (21, 10, 15)

    def test_rejects_short_and_nonpositive(self):
        with pytest.raises(InvalidInputError):
            Coins.of((5,))
        with pytest.raises(InvalidInputError):
            Coins.of((3, 0))
        with pytest.raises(InvalidInputError):
            Coins.parse("3,x")

    def test_rejects_wrong_cached_gcd(self):
        with pytest.raises(InvalidInputError):
            Coins((3, 5), overall_gcd=2)

    def test_min_part_and_len(self):
        coins = Coins.of((10, 15, 21))
        assert coins.min_part == 10
        assert len(coins) == 3
        assert list(coins) == [10, 15, 21]


class TestDenumerant:
    def test_known_values(self):
        assert denumerant(120, (10, 15, 21)) == 6
        assert denumerant(7, (3, 5)) == 0  # the two-part Frobenius number
        assert denumerant(53, (3, 7)) == 2  # g(3,7;2) carries exactly 2

    def test_trivial_values(self):
        assert denumerant(0, (3, 5)) == 1
        assert denumerant(-1, (3, 5)) == 0

    def test_common_factor_reduction(self):
        assert denumerant(30, (6, 10)) == naive_denumerant(30, (6, 10))
        assert denumerant(31, (6, 10)) == 0  # not a multiple of gcd 2

    def test_duplicate_parts_count_coordinates(self):
        assert denumerant(3, (3, 3)) == 2
        assert denumerant(6, (3, 3, 2)) == naive_denumerant(6, (3, 3, 2))

    @settings(max_examples=80, deadline=None)
    @given(
        parts=st.lists(st.integers(1, 30), min_size=2, max_size=3),
        n=st.integers(-3, 90),
    )
    def test_matches_naive_oracle(self, parts, n):
        assert denumerant(n, tuple(parts)) == naive_denumerant(n, tuple(parts))

    def test_beyond_capacity_three_parts_splits(self):
        n = 4000
        expected = denumerant(n, (9, 15, 70))
        assert denumerant(n, (9, 15, 70), max_table=100) == expected

    def test_beyond_capacity_four_parts_raises(self):
        with pytest.raises(CapacityError):
            denumerant(4000, (9, 15, 70, 11), max_table=100)

    def test_three_parts_below_capacity_take_the_closed_sum(self):
        n = 9_999_999
        start = time.perf_counter()
        value = denumerant(n, (2, 3, 5))
        assert time.perf_counter() - start < 1.0
        assert value == numpy_peel_count(n, (2, 3, 5), peel=1)


class TestResidueSum:
    """k >= 4 parts: the (k-1)-part table summed along one residue class,
    against a pure-Python DP over all k parts."""

    def test_matches_inplace_dp_on_random_tuples(self):
        rng = random.Random(45)
        for k in (4, 5, 6):
            for trial in range(20):
                parts = [rng.randint(1, 60) for _ in range(k)]
                if trial % 4 == 0:
                    parts[rng.randrange(k)] = max(parts)  # the largest part twice
                n_max = rng.randint(0, 1500)
                expected = inplace_dp_counts(parts, n_max)
                for n in {0, n_max, n_max // 2, rng.randint(0, n_max)}:
                    assert denumerant(n, tuple(parts)) == expected[n], (parts, n)

    @pytest.mark.parametrize("k", [4, 5, 6])
    def test_unit_coins_at_the_int64_boundary(self, k):
        # d(n; 1^k) = comb(n + k - 1, k - 1); find the largest n that fits
        lo, hi = 0, 1 << 22
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if math.comb(mid + k - 1, k - 1) < 1 << 63 else (lo, mid)
        assert denumerant(lo, (1,) * k) == math.comb(lo + k - 1, k - 1)
        with pytest.raises(RangeOverflowError):
            denumerant(lo + 1, (1,) * k)


class TestInt64Boundary:
    """n exactly at the signed 64-bit maximum, and one past it, for k = 2, 3, 4."""

    I64_MAX = (1 << 63) - 1

    def test_two_parts(self):
        n = self.I64_MAX  # odd, so n - 3y is even exactly for odd y <= n // 3
        assert denumerant(n, (2, 3)) == denumerant_two(n, 2, 3) == (n // 3 + 1) // 2
        for call in (lambda: denumerant(n + 1, (2, 3)), lambda: denumerant_two(n + 1, 2, 3)):
            with pytest.raises(RangeOverflowError):
                call()

    def test_two_part_count_past_int64(self):
        # d(n; 1, 1) = n + 1 and d(n; 1, 2) = n // 2 + 1
        with pytest.raises(RangeOverflowError):
            denumerant(self.I64_MAX, (1, 1))
        with pytest.raises(RangeOverflowError):
            denumerant(10**23, (1, 2))

    def test_three_parts(self):
        # parts near 2^22 keep d(2^63 - 1) near 2^59; peeling one copy of a
        # gives d(n; a, b, c) = d(n - a; a, b, c) + d(n; b, c)
        n, parts = self.I64_MAX, (4194301, 4194303, 4194305)
        count = denumerant(n, parts)
        assert 0 < count <= self.I64_MAX
        assert count == denumerant(n - parts[0], parts) + denumerant(n, parts[1:])
        with pytest.raises(RangeOverflowError):
            denumerant(n + 1, parts)
        with pytest.raises(RangeOverflowError):  # the count itself leaves int64
            denumerant(n, (2, 3, 5))

    def test_four_parts(self):
        with pytest.raises(CapacityError):
            denumerant(self.I64_MAX, (2, 3, 5, 7))
        with pytest.raises(RangeOverflowError):
            denumerant(self.I64_MAX + 1, (2, 3, 5, 7))


def _random_triples(rng, count, *, bound=40):
    """``count`` triples with overall gcd 1; every other one has gcd > 1
    between the two parts the split does not peel."""
    triples = []
    while len(triples) < count:
        if len(triples) % 2:
            h = rng.randint(2, 6)
            b, c = h * rng.randint(1, bound // h), h * rng.randint(1, bound // h)
            parts = (rng.randint(max(b, c), bound + 10), b, c)  # largest first: peeled
        else:
            parts = tuple(rng.randint(1, bound) for _ in range(3))
        if gcd_fold(parts) == 1:
            triples.append(parts)
    return triples


class TestSplitLarge:
    """The closed floor-sum split against DP tables, which share no code with it."""

    def test_matches_table_on_random_triples(self):
        rng = random.Random(20231)
        triples = _random_triples(rng, 240)
        with_common_pair = 0
        for parts in triples:
            peeled = max(range(3), key=lambda i: parts[i])
            b, c = (parts[i] for i in range(3) if i != peeled)
            with_common_pair += gcd(b, c) > 1
            counts = denumerant_series(parts, 1500).counts
            for n in list(range(0, 60)) + [rng.randint(60, 1500) for _ in range(20)]:
                assert _split_large(n, parts) == counts[n], (parts, n)
        assert with_common_pair >= 100

    def test_denumerant_takes_split_past_small_capacity(self):
        rng = random.Random(7)
        for parts in _random_triples(rng, 40, bound=25) + [(4, 6, 10), (6, 10, 15), (1, 1, 1)]:
            counts = denumerant_series(parts, 3000).counts
            for n in (0, 1, 50, 51, rng.randint(52, 3000), 3000):
                assert denumerant(n, parts, max_table=50) == counts[n], (parts, n)


class TestSeries:
    def test_frozen_small_series(self):
        table = denumerant_series((3, 5), 7)
        assert table.counts.tolist() == [1, 0, 0, 1, 0, 1, 1, 0]

    def test_zero_length_series(self):
        assert denumerant_series((2, 3), 0).counts.tolist() == [1]

    def test_value_at_120(self):
        assert denumerant_series((10, 15, 21), 120).count(120) == 6

    def test_count_accessor(self):
        table = denumerant_series((3, 5), 10)
        assert table.count(-4) == 0
        assert table.count(8) == 1
        with pytest.raises(CapacityError):
            table.count(11)

    def test_counts_are_read_only(self):
        table = denumerant_series((3, 5), 10)
        with pytest.raises(ValueError):
            table.counts[0] = 99

    def test_multi_block_counts_are_read_only_and_exact(self):
        table = denumerant_series((3, 7, 5000), 100_000)
        with pytest.raises(ValueError):
            table.counts[-1] = 99
        assert table.counts.tolist() == inplace_dp_counts((3, 7, 5000), 100_000)

    def test_capacity_enforced(self):
        with pytest.raises(CapacityError):
            denumerant_series((3, 5), 1000, max_table=100)
        with pytest.raises(InvalidInputError):
            denumerant_series((3, 5), -1)

    def test_zero_below_min_part(self):
        table = denumerant_series((7, 11), 40)
        assert table.counts[1:7].tolist() == [0] * 6
        assert table.count(0) == 1


class TestDenumerantTwo:
    def test_examples(self):
        assert denumerant_two(31, 4, 5) == 1
        assert denumerant_two(-1, 3, 7) == 0
        assert denumerant_two(63, 3, 7) == 4

    def test_requires_coprime(self):
        with pytest.raises(InvalidInputError):
            denumerant_two(10, 4, 6)

    def test_unit_part(self):
        assert denumerant_two(9, 1, 4) == 3  # y in {0, 1, 2}

    @settings(max_examples=80, deadline=None)
    @given(
        a=st.integers(1, 25),
        b=st.integers(1, 25),
        n=st.integers(0, 400),
    )
    def test_agrees_with_table(self, a, b, n):
        from genfrob.exactint import gcd

        if gcd(a, b) != 1:
            a = 1
        table = denumerant_series((a, b), n)
        assert denumerant_two(n, a, b) == table.count(n)


class TestInvariants:
    @settings(max_examples=60, deadline=None)
    @given(parts=st.lists(st.integers(1, 50), min_size=2, max_size=4))
    def test_monotone_shift(self, parts):
        parts = tuple(parts)
        n_max = 2000 + max(parts)
        counts = denumerant_series(parts, n_max).counts
        for a in set(parts):
            assert np.all(counts[a:] >= counts[:-a])

    @settings(max_examples=40, deadline=None)
    @given(
        a=st.integers(2, 25),
        b=st.integers(2, 25),
        s=st.integers(0, 10),
    )
    def test_two_var_count_at_g_is_exactly_s(self, a, b, s):
        from genfrob.exactint import gcd

        if gcd(a, b) != 1:
            b = a + 1  # consecutive integers are coprime
        g = (s + 1) * a * b - a - b
        assert denumerant(g, (a, b)) == s

    def test_strategy_agreement_exhaustive_pairs(self):
        # DP table vs congruence counting on every coprime pair <= 30, n <= 500
        from genfrob.exactint import gcd

        for a in range(1, 31):
            for b in range(a, 31):
                if gcd(a, b) != 1:
                    continue
                counts = denumerant_series((a, b), 500).counts
                for n in range(0, 501, 7):
                    assert denumerant_two(n, a, b) == counts[n]
