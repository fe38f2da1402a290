import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genfrob.closedform import (
    ClosedFormCase,
    _exact_quarter,
    detect_cases,
    one_a_b_frobenius,
    pairwise_coprime_frobenius,
    table_rows,
    triangular,
    triangular_frobenius,
    u_set,
    u_set_prefix,
)
from genfrob.denumerant import Coins, denumerant_series
from genfrob.errors import CapacityError, InvalidInputError, InvariantError, RangeOverflowError
from genfrob.exactint import I64_MAX, gcd, gcd_fold
from genfrob.frobenius import gen_frobenius_brute
from oracles import naive_sigma, naive_sigma_inverse, naive_u_set

TABLE_S = [0, 1, 2, 3, 4, 5, 100, 10**4]

# the two (sigma, g) tables of the flagship (10,15,21) example
SIGMA_1 = [0, 4, 11, 22, 36, 54, 17700, 175020000]
G_1 = [89, 194, 299, 404, 509, 614, 10589, 1050089]
SIGMA_2 = [0, 1, 2, 3, 5, 7, 1486, 14291429]
G_2 = [89, 119, 149, 179, 209, 239, 3089, 300089]


class TestDetect:
    def test_flagship_tuple_has_two_cases(self):
        cases = detect_cases((10, 15, 21))
        assert [(c.pivot, c.d) for c in cases] == [(1, 3), (3, 5)]
        assert cases[0].modulus_part == 2  # 10 is a multiple of 15/3
        assert cases[1].modulus_part == 2  # 21 is a multiple of 15/5

    def test_pairwise_coprime_without_divisibility_is_empty(self):
        assert detect_cases((16, 23, 37)) == ()

    def test_degenerate_tuple(self):
        cases = detect_cases((1, 1, 2))
        assert cases  # a unit part always divides by quotient 1
        for case in cases:
            for s in range(4):
                assert gen_frobenius_brute((1, 1, 2), case.sigma(s)).value == case.value(s)

    def test_wrong_arity_rejected(self):
        with pytest.raises(InvalidInputError):
            detect_cases((3, 5))
        with pytest.raises(InvalidInputError):
            detect_cases((2, 4, 6))

    def test_coefficient_is_exact_fraction(self):
        case = detect_cases((10, 15, 21))[0]
        # 15*21 / (10*9) reduced
        assert (case.num, case.den) == (7, 2)
        assert case.num * (10 * 9) == case.den * (15 * 21)


class TestFlagshipTables:
    def test_sigma_and_value_pivot_one(self):
        case = detect_cases((10, 15, 21))[0]
        assert [case.sigma(s) for s in TABLE_S] == SIGMA_1
        assert [case.value(s) for s in TABLE_S] == G_1

    def test_sigma_and_value_pivot_three(self):
        case = detect_cases((10, 15, 21))[1]
        assert [case.sigma(s) for s in TABLE_S] == SIGMA_2
        assert [case.value(s) for s in TABLE_S] == G_2

    def test_table_rows_walk_matches_pointwise_sigma(self):
        case = detect_cases((10, 15, 21))[0]
        rows = table_rows(case, TABLE_S)
        assert [(r.s, r.sigma, r.g) for r in rows] == list(zip(TABLE_S, SIGMA_1, G_1))

    def test_table_rows_validates_s_values(self):
        case = detect_cases((10, 15, 21))[0]
        with pytest.raises(InvalidInputError):
            table_rows(case, [])
        with pytest.raises(InvalidInputError):
            table_rows(case, [3, 3])
        with pytest.raises(InvalidInputError):
            table_rows(case, [-1, 2])


def _closed_form_triples(rng, count, bound):
    triples = []
    while len(triples) < count:
        parts = tuple(rng.randint(1, bound) for _ in range(3))
        if gcd_fold(parts) == 1 and detect_cases(parts):
            triples.append(parts)
    return triples


class TestSigmaEngine:
    """floor-sum sigma and its inverse against the term-by-term walk."""

    def test_sigma_matches_walk(self):
        rng = random.Random(11)
        for parts in _closed_form_triples(rng, 60, 60):
            for case in detect_cases(parts):
                for s in (0, 1, 2, 3, rng.randint(4, 400)):
                    assert case.sigma(s) == naive_sigma(case.num, case.den, s), (parts, s)

    def test_inverse_matches_walk(self):
        rng = random.Random(12)
        for parts in _closed_form_triples(rng, 30, 40):
            for case in detect_cases(parts):
                top = case.sigma(30)
                for target in list(range(-2, 25)) + [rng.randint(25, top) for _ in range(10)]:
                    s = case.sigma_inverse(target)
                    assert s == naive_sigma_inverse(case.num, case.den, target), (parts, target)
                    hit = case.index_of(target)
                    if naive_sigma(case.num, case.den, s) == target:
                        assert hit == s
                    else:
                        assert hit is None

    def test_inverse_near_the_64_bit_limit(self):
        case = detect_cases((10, 15, 21))[0]
        s = case.sigma_inverse(I64_MAX)
        assert case.sigma(s - 1) < I64_MAX
        with pytest.raises(RangeOverflowError):
            case.sigma(s)  # the first index past the target no longer fits
        assert case.index_of(I64_MAX) is None

    def test_sigma_overflow_raises(self):
        case = detect_cases((10, 15, 21))[0]
        with pytest.raises(RangeOverflowError):
            case.sigma(10**10)


class TestUSet:
    def test_matches_naive_union(self):
        rng = random.Random(13)
        for parts in [tuple(rng.randint(1, 80) for _ in range(3)) for _ in range(40)]:
            for s_max in (0, 1, rng.randint(2, 200)):
                union, bound = naive_u_set(parts, s_max)
                assert list(u_set(parts, s_max)) == union
                assert u_set_prefix(parts, s_max) == (tuple(v for v in union if v <= bound), bound)

    def test_parts_near_2_40_take_the_exact_branch(self):
        parts = (2**40 + 1, 2**40 + 2, 2**40 + 3)
        s_max = 60
        # every product s_max * num leaves int64, so no sequence fits the numpy path
        assert min(parts[0] * parts[1], parts[0] * parts[2], parts[1] * parts[2]) * s_max > I64_MAX
        union, bound = naive_u_set(parts, s_max)
        assert list(u_set(parts, s_max)) == union
        assert u_set_prefix(parts, s_max) == (tuple(v for v in union if v <= bound), bound)

    def test_s_max_beyond_table_capacity_raises(self, monkeypatch):
        monkeypatch.setenv("GENFROB_MAX_TABLE", "100")
        assert u_set((10, 15, 21), 99)
        with pytest.raises(CapacityError):
            u_set((10, 15, 21), 100)

    def test_last_index_beyond_64_bits_raises(self):
        with pytest.raises(RangeOverflowError):
            u_set((2**40 + 1, 2**40 + 2, 2**40 + 3), 10**4)


    def test_flagship_prefix(self):
        values, bound = u_set_prefix((10, 15, 21), 11)
        assert values == (0, 1, 2, 3, 4, 5, 7, 9, 11, 14, 17, 20, 22, 24)
        assert bound == 24
        assert 6 not in u_set((10, 15, 21), 50)

    def test_truncation_at_zero(self):
        assert u_set((10, 15, 21), 0) == (0,)
        values, bound = u_set_prefix((10, 15, 21), 0)
        assert values == (0,) and bound == 0

    def test_prefix_is_stable_under_longer_truncation(self):
        short, bound = u_set_prefix((10, 15, 21), 11)
        longer = u_set((10, 15, 21), 40)
        assert tuple(v for v in longer if v <= bound) == short

    def test_members_appear_as_actual_counts(self):
        # every pinned index at desk scale occurs as some d(n; A)
        counts = set(denumerant_series((10, 15, 21), 3000).counts.tolist())
        values, _ = u_set_prefix((10, 15, 21), 11)
        for v in values:
            assert v in counts

    def test_arity_enforced(self):
        with pytest.raises(InvalidInputError):
            u_set((3, 5), 4)


class TestTriangular:
    def test_values(self):
        assert (triangular(4), triangular(5), triangular(6)) == (10, 15, 21)
        assert triangular(1) == 1
        assert triangular(100) == 5050
        assert triangular(0) == 0

    def test_consecutive_gcd_law(self):
        for n in range(1, 201):
            expected = (n + 2) // 2 if n % 2 == 0 else n + 2
            assert gcd(triangular(n + 1), triangular(n + 2)) == expected


class TestTriangularFrobenius:
    def test_flagship_rows(self):
        assert triangular_frobenius(4, 2, "first") == (11, 299)
        assert triangular_frobenius(4, 0, "second") == (0, 89)
        assert triangular_frobenius(4, 1, "first") == (4, 194)

    def test_matches_detected_cases(self):
        for n in (2, 3, 4, 5, 6, 9):
            coins = (triangular(n), triangular(n + 1), triangular(n + 2))
            by_pivot = {c.pivot: c for c in detect_cases(coins)}
            for s in range(4):
                assert triangular_frobenius(n, s, "first") == (
                    by_pivot[1].sigma(s),
                    by_pivot[1].value(s),
                )
                assert triangular_frobenius(n, s, "second") == (
                    by_pivot[3].sigma(s),
                    by_pivot[3].value(s),
                )

    def test_rewritten_presentations_agree(self):
        # the factored even/odd forms are checked inside the first variant;
        # running the grid exercises that cross-check
        for n in range(1, 51):
            for s in range(11):
                triangular_frobenius(n, s, "first")
                triangular_frobenius(n, s, "second")

    def test_oracle_agreement_small(self):
        for n in (1, 2, 3, 4):
            coins = (triangular(n), triangular(n + 1), triangular(n + 2))
            for s in range(3):
                for variant in ("first", "second"):
                    sigma, value = triangular_frobenius(n, s, variant)
                    assert gen_frobenius_brute(coins, sigma).value == value, (n, s, variant)

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            triangular_frobenius(0, 1, "first")
        with pytest.raises(InvalidInputError):
            triangular_frobenius(4, -1, "first")
        with pytest.raises(InvalidInputError):
            triangular_frobenius(4, 1, "both")


class TestPairwiseCoprime:
    def test_known_values(self):
        assert pairwise_coprime_frobenius(2, 5, 11, 1) == 243
        assert pairwise_coprime_frobenius(2, 5, 11, 100) == 11133
        assert pairwise_coprime_frobenius(2, 5, 11, 0) == 133

    def test_oracle_at_n_zero(self):
        # s = t_0 = 0: the plain Frobenius number of (55, 22, 10)
        assert gen_frobenius_brute((55, 22, 10), 0).value == 133

    def test_oracle_at_small_n(self):
        for n in (1, 2, 3):
            expected = pairwise_coprime_frobenius(2, 3, 5, n)
            assert gen_frobenius_brute((15, 10, 6), triangular(n)).value == expected

    def test_counts_are_triangular(self):
        counts = denumerant_series((55, 22, 10), 2000).counts
        triangulars = {triangular(k) for k in range(70)}
        assert set(counts.tolist()) <= triangulars

    def test_rejects_non_coprime(self):
        with pytest.raises(InvalidInputError):
            pairwise_coprime_frobenius(2, 4, 5, 1)


class TestOneAB:
    def test_known_values(self):
        assert one_a_b_frobenius(4, 9, 2) == (8, 17)
        assert one_a_b_frobenius(9, 4, 0) == (0, -1)
        assert one_a_b_frobenius(4, 9, 100) == (11400, 899)

    def test_oracle_agreement(self):
        for a, b in ((4, 9), (9, 4), (2, 3), (5, 5), (1, 7)):
            for s in range(4):
                sigma, value = one_a_b_frobenius(a, b, s)
                assert gen_frobenius_brute((1, a, b), sigma).value == value, (a, b, s)

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            one_a_b_frobenius(0, 9, 2)
        with pytest.raises(InvalidInputError):
            one_a_b_frobenius(4, 9, -1)


class TestSelfChecks:
    def test_value_rejects_a_non_dividing_d(self):
        case = ClosedFormCase(Coins((10, 15, 21)), pivot=1, d=4, modulus_part=2, num=7, den=2)
        with pytest.raises(InvariantError):
            case.value(1)

    def test_exact_quarter_rejects_a_remainder(self):
        assert _exact_quarter(12) == 3
        with pytest.raises(InvariantError):
            _exact_quarter(6)


class TestOracleEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(
        parts=st.tuples(st.integers(1, 18), st.integers(1, 18), st.integers(1, 18)),
        s=st.integers(0, 2),
    )
    def test_detected_cases_match_brute_force(self, parts, s):
        from genfrob.exactint import gcd_fold

        if gcd_fold(parts) != 1:
            parts = parts + (1,)
            parts = parts[1:]  # keep arity 3, force a unit part
        for case in detect_cases(parts):
            sigma = case.sigma(s)
            assert gen_frobenius_brute(parts, sigma).value == case.value(s), (parts, case.pivot, s)
