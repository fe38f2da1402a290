import json
import math
import random
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genfrob import _kernel, frobenius
from genfrob.denumerant import denumerant
from genfrob.errors import CapacityError, InvalidInputError
from genfrob.frobenius import (
    METHOD_BRUTE_FORCE,
    METHOD_GCD_REDUCTION,
    beck_kifer_reduce,
    gen_frobenius_brute,
    gen_frobenius_brute_many,
    gen_frobenius_two,
)
from oracles import inplace_dp_counts, naive_gen_frobenius, scan_gen_frobenius

# g(A; 0..20) and the s = 20 witness window of 36 seeded random tuples
# (k = 2..4, parts <= 15, unsorted, some with repeated parts), recorded
# from the one-s-per-table search that preceded gen_frobenius_brute_many.
BRUTE_VALUES = json.loads((Path(__file__).parent / "data" / "brute_values.json").read_text())


class TestTwoVar:
    def test_known_values(self):
        assert gen_frobenius_two(3, 5, 0) == 7
        assert gen_frobenius_two(1, 2, 0) == -1
        assert gen_frobenius_two(3, 7, 2) == 53
        assert gen_frobenius_two(4, 5, 1) == 31

    def test_sentinel_below_zero(self):
        assert gen_frobenius_two(3, 7, -1) == -2
        with pytest.raises(InvalidInputError):
            gen_frobenius_two(3, 7, -2)

    def test_rejects_non_coprime(self):
        with pytest.raises(InvalidInputError):
            gen_frobenius_two(4, 6, 0)


class TestBrute:
    def test_known_values(self):
        assert gen_frobenius_brute((3, 5), 0).value == 7
        assert gen_frobenius_brute((10, 15, 21), 4).value == 194

    def test_agrees_with_formula_for_unit_pair(self):
        assert gen_frobenius_brute((1, 2), 5).value == gen_frobenius_two(1, 2, 5) == 9

    def test_all_representable_returns_minus_one(self):
        result = gen_frobenius_brute((1, 3), 0)
        assert result.value == -1
        assert result.witness_window == ((0, 1),)

    def test_witness_window_certifies(self):
        coins = (10, 15, 21)
        s = 4
        result = gen_frobenius_brute(coins, s)
        assert result.method == METHOD_BRUTE_FORCE
        window = result.witness_window
        assert len(window) == min(coins)
        assert window[0][0] == result.value + 1
        for n, d in window:
            assert n > result.value
            assert d >= s + 1
            assert denumerant(n, coins) == d
        assert denumerant(result.value, coins) <= s

    def test_matches_naive_oracle_on_triples(self):
        cases = [((3, 5, 7), 2, 80), ((4, 6, 9), 1, 80), ((7, 3, 3), 0, 60), ((2, 3, 5), 3, 40)]
        for parts, s, scan in cases:
            assert gen_frobenius_brute(parts, s).value == naive_gen_frobenius(parts, s, scan)

    @settings(max_examples=40, deadline=None)
    @given(
        a=st.integers(2, 25),
        b=st.integers(2, 25),
        s=st.integers(0, 6),
    )
    def test_pairs_match_closed_form(self, a, b, s):
        from genfrob.exactint import gcd

        if gcd(a, b) != 1:
            b = a + 1
        assert gen_frobenius_brute((a, b), s).value == gen_frobenius_two(a, b, s)

    def test_monotone_in_s(self):
        coins = (6, 10, 15)
        values = [gen_frobenius_brute(coins, s).value for s in range(8)]
        assert values == sorted(values)

    def test_rejects_bad_inputs(self):
        with pytest.raises(InvalidInputError):
            gen_frobenius_brute((4, 6), 0)  # gcd 2
        with pytest.raises(InvalidInputError):
            gen_frobenius_brute((3, 5), -1)

    def test_capacity_error_with_tiny_cap(self):
        with pytest.raises(CapacityError):
            gen_frobenius_brute((101, 103), 5, max_table=50)

    def test_growth_without_coprime_pair(self):
        # no coprime pair: the size cap cannot be derived, growth must still stop
        assert gen_frobenius_brute((6, 10, 15), 0).value == 29


class TestBatched:
    def test_recorded_values_and_plain_scan(self):
        rng = random.Random(7)
        regrown = 0
        for entry in BRUTE_VALUES:
            parts, recorded = tuple(entry["parts"]), entry["g"]
            assert scan_gen_frobenius(parts, range(21)) == recorded, parts
            # all s at once, then unsorted lists with repeats
            values, table = gen_frobenius_brute_many(parts, range(21))
            assert values == recorded, parts
            regrown += table.n_max + 1 > 1024
            for _ in range(3):
                s_list = [rng.randint(0, 20) for _ in range(rng.randint(1, 12))]
                values, _ = gen_frobenius_brute_many(parts, s_list)
                assert values == [recorded[s] for s in s_list], (parts, s_list)
        assert regrown >= 3  # some largest s forced the table past its first size

    def test_single_s_keeps_value_and_window(self):
        for entry in BRUTE_VALUES:
            parts = tuple(entry["parts"])
            result = gen_frobenius_brute(parts, 20)
            assert result.value == entry["g"][20]
            assert [list(pair) for pair in result.witness_window] == entry["window_s20"]

    def test_certificate_covers_every_value(self):
        values, table = gen_frobenius_brute_many((15, 11), [20, 0, 7, 7])
        assert values == [gen_frobenius_two(15, 11, s) for s in (20, 0, 7, 7)]
        assert table.n_max >= max(values) + 11
        assert not table.counts.flags.writeable
        for value, s in zip(values, (20, 0, 7, 7)):
            assert table.counts[value] <= s
            assert np.all(table.counts[value + 1 :] > s)

    def test_all_minus_one(self):
        values, _ = gen_frobenius_brute_many((1, 3), [0, 0])
        assert values == [-1, -1]
        values, _ = gen_frobenius_brute_many((1, 3), [1, 0])
        assert values == [2, -1]

    def test_rejects_bad_inputs(self):
        with pytest.raises(InvalidInputError):
            gen_frobenius_brute_many((4, 6), [0])
        with pytest.raises(InvalidInputError):
            gen_frobenius_brute_many((3, 5), [2, -1])
        with pytest.raises(InvalidInputError):
            gen_frobenius_brute_many((3, 5), [])

    def test_capacity_follows_the_largest_s(self):
        assert gen_frobenius_brute_many((101, 103), [0], max_table=11000)[0] == [10199]
        with pytest.raises(CapacityError):
            gen_frobenius_brute_many((101, 103), [0, 1], max_table=11000)


class TestBeckKiferReduce:
    def test_flagship_triple(self):
        result = beck_kifer_reduce((10, 15, 21), 0)
        assert result.value == 89
        assert result.method == METHOD_GCD_REDUCTION

    def test_duplicate_tail_goes_to_brute(self):
        # reduced (7,1,1) is not a pair; dedup would be wrong for s > 0
        assert beck_kifer_reduce((7, 3, 3), 0).value == 11
        assert gen_frobenius_brute((7, 3, 3), 0).value == 11
        for s in range(4):
            assert beck_kifer_reduce((7, 3, 3), s).value == gen_frobenius_brute((7, 3, 3), s).value

    def test_identity_when_tail_gcd_is_one(self):
        for s in range(3):
            assert beck_kifer_reduce((3, 5, 7), s).value == gen_frobenius_brute((3, 5, 7), s).value

    def test_two_parts_uses_closed_form(self):
        for s in range(5):
            assert beck_kifer_reduce((3, 7), s).value == gen_frobenius_two(3, 7, s)

    def test_agrees_with_brute_on_all_small_triples(self):
        # exhaustive over sorted triples with parts <= 30, s <= 4
        import itertools

        from genfrob.exactint import gcd_fold

        for parts in itertools.combinations_with_replacement(range(1, 31), 3):
            if gcd_fold(parts) != 1:
                continue
            for s in range(5):
                assert (
                    beck_kifer_reduce(parts, s).value
                    == gen_frobenius_brute(parts, s).value
                ), (parts, s)

    def test_agrees_with_brute_under_reordering(self):
        # the reduction lever is the first part; any rotation must agree
        import itertools

        from genfrob.exactint import gcd_fold

        for parts in itertools.combinations_with_replacement(range(1, 13), 3):
            if gcd_fold(parts) != 1:
                continue
            rotated = (parts[1], parts[2], parts[0])
            for s in (0, 2):
                assert (
                    beck_kifer_reduce(rotated, s).value
                    == gen_frobenius_brute(rotated, s).value
                ), (rotated, s)

    def test_agrees_with_brute_on_quadruples(self):
        quads = [(5, 6, 10, 15), (7, 2, 4, 6), (3, 10, 15, 20)]
        for parts in quads:
            for s in range(3):
                assert (
                    beck_kifer_reduce(parts, s).value
                    == gen_frobenius_brute(parts, s).value
                ), (parts, s)

    def test_rejects_gcd_above_one(self):
        with pytest.raises(InvalidInputError):
            beck_kifer_reduce((4, 6, 8), 0)


class TestStreamedSearch:
    """A first table that holds no window is followed by one streamed table."""

    @pytest.fixture
    def small_chunks(self, monkeypatch):
        monkeypatch.setattr(_kernel, "CHUNK", 16)

    def test_recorded_values_over_many_chunks(self, small_chunks):
        # size_hint=1 makes the first table min(A) entries long, so every
        # search with a window past it streams chunks from 2 * (min(A) + 1)
        # entries, doubling, but never past 16
        streamed = 0
        for entry in BRUTE_VALUES:
            parts, recorded = tuple(entry["parts"]), entry["g"]
            values, table = gen_frobenius_brute_many(parts, range(21), size_hint=1)
            assert values == recorded, parts
            streamed += table.n_max + 1 > 16
            result = gen_frobenius_brute(parts, 20, size_hint=1)
            assert [list(pair) for pair in result.witness_window] == entry["window_s20"]
        assert streamed >= 30

    def test_random_tuples_match_the_scan(self, small_chunks):
        rng = random.Random(27)
        for _ in range(25):
            parts = tuple(rng.randint(1, 30) for _ in range(rng.randint(2, 4)))
            if math.gcd(*parts) != 1:
                continue
            s_values = [rng.randint(0, 15) for _ in range(rng.randint(1, 5))]
            expected = scan_gen_frobenius(parts, s_values)
            assert gen_frobenius_brute_many(parts, s_values, size_hint=1)[0] == expected, parts
            assert gen_frobenius_brute_many(parts, s_values)[0] == expected, parts

    # d(n; 5, 7, 9) passes 3.6e7 near n = 150_000, past two real chunks
    PARTS, S = (5, 7, 9), 36_000_000

    def _expected(self):
        counts = inplace_dp_counts(self.PARTS, 160_000)
        g = max(n for n, d in enumerate(counts) if d <= self.S)
        assert g + 5 < len(counts) and all(d > self.S for d in counts[g + 1 : g + 6])
        return g, counts

    def test_search_over_real_chunks(self):
        g, counts = self._expected()
        assert g > 2 * _kernel.CHUNK
        result = gen_frobenius_brute(self.PARTS, self.S)
        assert result.value == g
        assert list(result.witness_window) == [(n, counts[n]) for n in range(g + 1, g + 6)]
        values, table = gen_frobenius_brute_many(self.PARTS, [self.S, 0, 1000])
        last = [max(n for n, d in enumerate(counts) if d <= s) for s in (0, 1000)]
        assert values == [g, *last] and last[0] == 13
        assert not table.counts.flags.writeable
        assert table.n_max >= g + 5
        assert table.counts[: len(counts)].tolist() == counts[: table.n_max + 1]

    def test_a_raised_capacity_reserves_no_larger_table(self):
        import tracemalloc

        # a capacity of 8 TB of entries: the search still reserves at most
        # DEFAULT_MAX_TABLE entries (80 MB, of which it touches 1.3 MB)
        g, _ = self._expected()
        tracemalloc.start()
        try:
            value = gen_frobenius_brute(self.PARTS, self.S, max_table=10**12).value
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert value == g
        assert peak < 8 * frobenius.DEFAULT_MAX_TABLE + (8 << 20)

    def test_the_table_grows_past_its_reservation(self, monkeypatch):
        # a 50,000-entry reservation doubles twice on the way to g + 5
        g, counts = self._expected()
        monkeypatch.setattr(frobenius, "DEFAULT_MAX_TABLE", 50_000)
        values, table = gen_frobenius_brute_many(self.PARTS, [self.S, 1000], max_table=10**12)
        assert values == [g, max(n for n, d in enumerate(counts) if d <= 1000)]
        assert table.n_max >= g + 5 > 100_000
        assert table.counts[: len(counts)].tolist() == counts[: table.n_max + 1]

    def test_capacity_error_at_the_same_entry_count(self, monkeypatch):
        g, _ = self._expected()
        entries = g + 5 + 1  # through the last entry of the window
        assert gen_frobenius_brute(self.PARTS, self.S, max_table=entries).value == g
        message = re.escape(
            f"no certifying window within {entries - 1} table entries (capacity {entries - 1})"
        )
        with pytest.raises(CapacityError, match=message):
            gen_frobenius_brute(self.PARTS, self.S, max_table=entries - 1)
        monkeypatch.setenv("GENFROB_MAX_TABLE", str(entries - 1))
        with pytest.raises(CapacityError, match=message):
            gen_frobenius_brute_many(self.PARTS, [self.S])
