"""Exact denumerants and generalized Frobenius numbers.

d(n; A) counts the representations of n as a non-negative integer
combination of the parts of A; g(A; s) is the largest integer with at most
s representations.  This package computes both exactly with overflow
checking, detects the three-part tuples admitting a closed form for
g(A; s) at special index families, and ships a brute-force oracle plus
verification suites for every formula it implements.
"""

from ._kernel import BACKEND as KERNEL_BACKEND
from .closedform import (
    ClosedFormCase,
    Row,
    detect_cases,
    one_a_b_frobenius,
    pairwise_coprime_frobenius,
    table_rows,
    triangular,
    triangular_frobenius,
    u_set,
    u_set_prefix,
)
from .denumerant import (
    Coins,
    DenumerantTable,
    denumerant,
    denumerant_series,
    denumerant_two,
    split_by_part,
    table_capacity,
)
from .errors import CapacityError, GenfrobError, InvalidInputError, InvariantError, RangeOverflowError
from .exactint import (
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
)
from .frobenius import (
    GenFrobResult,
    beck_kifer_reduce,
    gen_frobenius_brute,
    gen_frobenius_brute_many,
    gen_frobenius_two,
)
from .verify import (
    SUITES,
    VerificationReport,
    check_decreasing,
    check_lemma2,
    check_lemma3,
    cross_check_theorem1,
    run_decreasing_suite,
    run_lemma2_suite,
    run_lemma3_suite,
    run_theorem1_suite,
    run_two_var_suite,
)

__version__ = "0.1.0"

__all__ = [
    "KERNEL_BACKEND",
    "ClosedFormCase",
    "Row",
    "detect_cases",
    "one_a_b_frobenius",
    "pairwise_coprime_frobenius",
    "table_rows",
    "triangular",
    "triangular_frobenius",
    "u_set",
    "u_set_prefix",
    "Coins",
    "DenumerantTable",
    "denumerant",
    "denumerant_series",
    "denumerant_two",
    "split_by_part",
    "table_capacity",
    "CapacityError",
    "GenfrobError",
    "InvalidInputError",
    "InvariantError",
    "RangeOverflowError",
    "CheckedInt",
    "ceil_div",
    "checked_add",
    "checked_mul",
    "checked_sub",
    "floor_sum",
    "gcd",
    "gcd_fold",
    "lcm",
    "lcm_fold",
    "GenFrobResult",
    "beck_kifer_reduce",
    "gen_frobenius_brute",
    "gen_frobenius_brute_many",
    "gen_frobenius_two",
    "SUITES",
    "VerificationReport",
    "check_decreasing",
    "check_lemma2",
    "check_lemma3",
    "cross_check_theorem1",
    "run_decreasing_suite",
    "run_lemma2_suite",
    "run_lemma3_suite",
    "run_theorem1_suite",
    "run_two_var_suite",
    "__version__",
]
