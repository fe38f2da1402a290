"""Exact denumerants and generalized Frobenius numbers.

d(n; A) counts the representations of n as a non-negative integer
combination of the parts of A; g(A; s) is the largest integer with at most
s representations.  This package computes both exactly with overflow
checking, detects the three-part tuples admitting a closed form for
g(A; s) at special index families, and ships a brute-force oracle plus
verification suites for every formula it implements.

numpy and the verify suites load on first use: the verify names below
are resolved by the module ``__getattr__``, so closed-form paths never
import them.
"""

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
    table_capacity,
)
from .errors import CapacityError, GenfrobError, InvalidInputError, InvariantError, RangeOverflowError
from .exactint import floor_sum, gcd, gcd_fold
from .frobenius import (
    GenFrobResult,
    beck_kifer_reduce,
    gen_frobenius_brute,
    gen_frobenius_brute_many,
    gen_frobenius_two,
)

# exported from .verify on first read, by __getattr__ below
_VERIFY_NAMES = frozenset({
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
})

__version__ = "0.1.0"

# the one counting kernel is numpy's
KERNEL_BACKEND = "python"

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
    "table_capacity",
    "CapacityError",
    "GenfrobError",
    "InvalidInputError",
    "InvariantError",
    "RangeOverflowError",
    "floor_sum",
    "gcd",
    "gcd_fold",
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


def __getattr__(name):
    if name not in _VERIFY_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import verify

    value = getattr(verify, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
