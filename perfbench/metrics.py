"""Metric catalogue: name, unit, direction and what each metric should move.

``END_TO_END`` is what an untraced run reports and ``PER_LAYER`` what a
traced run reports; BENCHMARK.json lists the same names, units and
directions (a test keeps them in step).  ``moves`` records, before any
measurement, which end-to-end metric on which workload a per-layer metric
is expected to move.
"""

from __future__ import annotations

from typing import NamedTuple


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    moves: str = ""


END_TO_END = (
    Metric("setup_s", "s", "lower"),
    Metric("ops_per_s", "1/s", "higher"),
    Metric("op_p50_ms", "ms", "lower"),
    Metric("op_tail_ms", "ms", "lower"),
    Metric("peak_rss_mb", "MB", "lower"),
)

LAYERS = ("cli", "verify", "closedform", "frobenius", "denumerant", "kernel")

_KERNEL_MOVES = "ops_per_s and peak_rss_mb on dense-tables; cases_per_s on verify-grid"
_SEARCH_MOVES = "cases_per_s on verify-grid; op_p50_ms on dense-tables"
_SPLIT_MOVES = "op_tail_ms and ops_per_s on large-index"
_SIGMA_MOVES = "op_p50_ms on large-index"
_VERIFY_MOVES = "cases_per_s on verify-grid"

PER_LAYER = (
    Metric("kernel.calls", "count", "lower", _KERNEL_MOVES),
    Metric("kernel.entries", "count", "lower", _KERNEL_MOVES),
    Metric("kernel.entry_passes", "count", "lower", _KERNEL_MOVES),
    Metric("kernel.entries_per_call", "count", "higher", _KERNEL_MOVES),
    Metric("kernel.busy_s", "s", "lower", _KERNEL_MOVES),
    Metric("kernel.entry_passes_per_s", "1/s", "higher", _KERNEL_MOVES),
    Metric("kernel.bytes_computed", "B", "lower", _KERNEL_MOVES),
    Metric("frobenius.searches", "count", "lower", _SEARCH_MOVES),
    Metric("frobenius.busy_s", "s", "lower", _SEARCH_MOVES),
    Metric("frobenius.self_s", "s", "lower", _SEARCH_MOVES),
    Metric("frobenius.kernel_calls_per_search", "count", "lower", _SEARCH_MOVES),
    Metric("frobenius.useful_entries_ratio", "ratio", "higher", _SEARCH_MOVES),
    Metric("frobenius.distinct_ratio", "ratio", "higher", _SEARCH_MOVES),
    Metric("denumerant.calls", "count", "lower", _SPLIT_MOVES),
    Metric("denumerant.busy_s", "s", "lower", _SPLIT_MOVES),
    Metric("denumerant.self_s", "s", "lower", _SPLIT_MOVES),
    Metric("denumerant.split_terms", "count", "lower", _SPLIT_MOVES),
    Metric("closedform.calls", "count", "lower", _SIGMA_MOVES),
    Metric("closedform.busy_s", "s", "lower", _SIGMA_MOVES),
    Metric("closedform.sigma_steps", "count", "lower", _SIGMA_MOVES),
    Metric("closedform.steps_per_s", "1/s", "higher", _SIGMA_MOVES),
    Metric("verify.checks", "count", "lower", _VERIFY_MOVES),
    Metric("verify.cases_run", "count", "higher", _VERIFY_MOVES),
    Metric("verify.self_s", "s", "lower", _VERIFY_MOVES),
    Metric("verify.cases_per_s", "1/s", "higher", "the untraced cases_per_s of verify-grid itself"),
    Metric("cli.calls", "count", "higher", "ops_per_s on every workload"),
    Metric("cli.self_s", "s", "lower", _SIGMA_MOVES),
    Metric("cli.sigma_steps", "count", "lower", _SIGMA_MOVES),
) + tuple(
    Metric(f"{layer}.errors", "count", "lower", "failed ops (the result's failed count)")
    for layer in LAYERS
) + (
    Metric("trace.overhead", "ratio", "lower", "nothing: traced over untraced time of the same ops"),
    Metric("trace.spans", "count", "lower", "nothing: spans recorded in the traced run"),
)
