"""Generalized Frobenius numbers g(A; s).

g(A; s) is the largest integer with at most s representations over A
(defined when the overall gcd is 1; -1 means every non-negative integer
already has more than s representations).  Provided here: the exact
two-part closed form, a self-certifying brute-force search, and the
gcd-reduction that rescales the tail of a tuple.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import _kernel
from .denumerant import DEFAULT_MAX_TABLE, Coins, DenumerantTable, table_capacity
from .errors import CapacityError, InvalidInputError
from .exactint import gcd, gcd_fold, require_i64

METHOD_TWO_VAR = "two_var_closed_form"
METHOD_BRUTE_FORCE = "brute_force"
METHOD_GCD_REDUCTION = "gcd_reduction"
METHOD_CLOSED_FORM = "theorem1"


@dataclass(frozen=True)
class GenFrobResult:
    """A computed g(A; s) plus the method that produced it.

    For brute-force results ``witness_window`` holds min(A) consecutive
    (n, d(n;A)) pairs just above the value, all with counts > s: the
    certificate that the search was allowed to stop.
    """

    value: int
    method: str
    witness_window: tuple[tuple[int, int], ...] | None = None


def gen_frobenius_two(a: int, b: int, s: int) -> int:
    """g(a, b; s) = (s+1)ab - a - b for coprime a, b.

    ``s == -1`` is accepted as the sandwich sentinel and returns -2.
    """
    if a < 1 or b < 1:
        raise InvalidInputError("parts must be positive")
    if gcd(a, b) != 1:
        raise InvalidInputError(f"g(a, b; s) requires coprime parts, got ({a}, {b})")
    if s == -1:
        return -2
    if s < 0:
        raise InvalidInputError("s must be non-negative (or -1 for the sentinel)")
    return require_i64((s + 1) * a * b - a - b, "g(a,b;s)")


def _coprime_pair_bound(parts: tuple[int, ...], s: int) -> int | None:
    # d(n; A) >= d(n; a, b) for any sub-pair, so g(A; s) <= g(a, b; s)
    # whenever some pair is coprime.  Exact Python ints: the bound may
    # exceed 64 bits without harm, it only sizes the search.
    best = None
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            if gcd(parts[i], parts[j]) == 1:
                bound = (s + 1) * parts[i] * parts[j] - parts[i] - parts[j]
                if best is None or bound < best:
                    best = bound
    return best


def gen_frobenius_brute(
    coins,
    s: int,
    *,
    max_table: int | None = None,
    size_hint: int | None = None,
) -> GenFrobResult:
    """Largest n with d(n; A) <= s, by scanning the counting table.

    The batched search of :func:`gen_frobenius_brute_many` for one ``s``;
    the witness window is read from its certifying table.
    """
    coins = Coins.of(coins)
    (value,), table = gen_frobenius_brute_many(
        coins, [s], max_table=max_table, size_hint=size_hint
    )
    witness = tuple(
        (n, int(table.counts[n])) for n in range(value + 1, value + coins.min_part + 1)
    )
    return GenFrobResult(value=value, method=METHOD_BRUTE_FORCE, witness_window=witness)


def gen_frobenius_brute_many(
    coins,
    s_values,
    *,
    max_table: int | None = None,
    size_hint: int | None = None,
) -> tuple[list[int], DenumerantTable]:
    """g(A; s) for every s in ``s_values`` (any order, repeats allowed) from one table.

    The table reaches past the last index n with d(n; A) <= max(s) until
    min(A) in-table integers follow it, whose counts all exceed max(s); by
    the monotone-shift property d(n + a) >= d(n) that window proves no
    larger qualifying integer exists.  A first table of ``size_hint``
    entries (1024 by default) is built in one buffer; when it holds no
    window, the table is streamed from 0 into one array until it does,
    with no rebuild.  Every smaller s has its value below that one, so the
    same window certifies it, and the suffix minimum of the counts up to
    there gives all of them at once.  Returns the values in input order and the certifying table.
    """
    import numpy as np  # a table path: see the denumerant module docstring

    coins = Coins.of(coins)
    if coins.overall_gcd != 1:
        raise InvalidInputError("g(A; s) requires overall gcd 1")
    s_values = list(s_values)
    if not s_values:
        raise InvalidInputError("at least one s value is required")
    if min(s_values) < 0:
        raise InvalidInputError("s must be non-negative")
    s_top = max(s_values)
    parts = coins.parts
    window = coins.min_part
    cap = table_capacity(max_table)
    hard_limit = cap - 1
    pair_bound = _coprime_pair_bound(parts, s_top)
    if pair_bound is not None:
        # reaching this size guarantees the window is in-table
        hard_limit = min(hard_limit, max(pair_bound + window, window))
    n_max = min(hard_limit, max(window, int(size_hint) if size_hint else 1024))
    counts = _kernel.build_counts(parts, n_max)
    top = _last_at_most(counts, s_top)
    if top + window > n_max:
        if n_max >= hard_limit:
            raise _no_window(hard_limit, cap)
        counts, top = _stream_search(parts, s_top, window, hard_limit, cap, 2 * (n_max + 1))
    counts.setflags(write=False)
    table = DenumerantTable(coins, counts)
    if top < 0 or all(s == s_top for s in s_values):
        return [top] * len(s_values), table
    # the suffix minimum is non-decreasing, and it is <= s up to the last
    # count <= s and > s after it
    suffix_min = np.minimum.accumulate(counts[top::-1])[::-1]
    found = np.searchsorted(suffix_min, s_values, side="right") - 1
    return [int(v) for v in found], table


def _last_at_most(counts, s: int) -> int:
    """Index of the last count <= s, or -1.  A reversed argmax on the mask:
    unlike flatnonzero, it allocates no index array."""
    import numpy as np

    last = counts.size - 1 - int(np.argmax(counts[::-1] <= s))
    return last if counts[last] <= s else -1


def _no_window(hard_limit: int, cap: int) -> CapacityError:
    return CapacityError(
        f"no certifying window within {hard_limit + 1} table entries (capacity {cap})"
    )


def _stream_search(parts, s_top: int, window: int, hard_limit: int, cap: int, first: int):
    """The table from 0 up to the end of the certifying window, and the last
    index with a count <= s_top in it.

    The kernel streams chunks, ``first`` entries and doubling, into one
    array of up to ``DEFAULT_MAX_TABLE`` entries.  Its pages are mapped
    only as chunks land in them, so the entries past the window cost
    nothing.  Under a raised capacity a stream that passes the array moves
    into one of twice the size, with one copy of the entries so far.  The
    stream starts again at entry 0, so the first table's entries are
    computed twice.
    """
    import numpy as np

    table = np.empty(min(hard_limit + 1, DEFAULT_MAX_TABLE), dtype=np.int64)
    top = -1
    for lo, chunk in _kernel.stream_counts(parts, hard_limit, first):
        hi = lo + chunk.size
        if hi > table.size:
            grown = np.empty(min(hard_limit + 1, max(hi, 2 * table.size)), dtype=np.int64)
            grown[:lo] = table[:lo]
            table = grown
        table[lo:hi] = chunk
        last = _last_at_most(chunk, s_top)
        if last >= 0:
            top = lo + last
        if top + window < hi:
            return table[:hi], top
    raise _no_window(hard_limit, cap)


def beck_kifer_reduce(coins, s: int, *, max_table: int | None = None) -> GenFrobResult:
    """g(A; s) via the tail-gcd rescaling.

    With l = gcd(a2..ak) and the tail divided by l,
    ``g(A; s) = l * g(a1, a2/l, ..., ak/l; s) + a1*(l - 1)``.
    The reduced instance goes to the two-part closed form when it is an
    actual pair, otherwise to brute force (duplicate parts change counts
    for s > 0, so no deduplication happens here).
    """
    coins = Coins.of(coins)
    if coins.overall_gcd != 1:
        raise InvalidInputError("g(A; s) requires overall gcd 1")
    if s < 0:
        raise InvalidInputError("s must be non-negative")
    a1 = coins.parts[0]
    tail = coins.parts[1:]
    ell = gcd_fold(tail)
    reduced = (a1,) + tuple(p // ell for p in tail)
    if len(reduced) == 2:
        inner = gen_frobenius_two(reduced[0], reduced[1], s)
    else:
        inner = gen_frobenius_brute(Coins(reduced), s, max_table=max_table).value
    value = require_i64(ell * inner + a1 * (ell - 1), "g(A;s)")
    return GenFrobResult(value=value, method=METHOD_GCD_REDUCTION)
