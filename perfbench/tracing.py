"""Span tracing at genfrob's module boundaries, installed from outside.

``Tracer.install`` wraps the functions one module imports from another
(``_kernel.build_counts``, the names ``cli`` and ``verify`` import, the
suite runners and per-input checks, the closed-form case methods) and
``uninstall`` restores them; no source file of the package is touched.
Each call records a span ``[parent, layer, name, start, end, note, error,
op]`` in memory; after each op ``end_op`` folds its spans into per-layer
totals and writes them out, and ``summary`` derives the metrics.  ``exactint`` is too fine-grained to wrap,
so its cost shows in its callers' self time, as does ``table_capacity``
and ``Coins`` validation.
"""

from __future__ import annotations

import gzip
import os
from time import perf_counter

from . import reference as ref
from .metrics import LAYERS

PARENT, LAYER, NAME, START, END, NOTE, ERROR, OP = range(8)
DEFAULT_MAX_TABLE = 10**7


def _parts(coins) -> tuple[int, ...]:
    return tuple(coins.parts) if hasattr(coins, "parts") else tuple(coins)


def _kernel_note(args, kwargs, result):
    parts, n_max = args
    return (n_max + 1, sum(1 for a in parts if int(a) <= n_max))


def _search_note(args, kwargs, result):
    return (args[0], args[1])


def _denumerant_note(args, kwargs, result):
    return (args[0], args[1])


def _rows_note(args, kwargs, result):
    return max(args[1])


def _uset_note(args, kwargs, result):
    return 3 * args[1]


def _sigma_note(args, kwargs, result):
    return args[1]


def _cases_note(args, kwargs, result):
    return result.cases_run


class Tracer:
    """Records spans for one op at a time; ``end_op`` folds them into totals
    and streams them to ``path`` (gzip TSV), so memory stays bounded."""

    def __init__(self, path):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._patched: list[tuple] = []
        self._written = 0
        self._totals: dict[str, float] = {}
        self._search_keys: set = set()
        self._out = gzip.open(path, "wt", compresslevel=1)
        self._out.write("id\tparent\top\tlayer\tname\tstart\tend\terror\n")

    def close(self):
        self._out.close()

    def wrap(self, layer: str, name: str, fn, note=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [stack[-1] if stack else -1, layer, name, 0.0, 0.0, None, False, self.op]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[END] = perf_counter()
                rec[ERROR] = True
                stack.pop()
                raise
            rec[END] = perf_counter()
            stack.pop()
            if note is not None:
                rec[NOTE] = note(args, kwargs, result)
            return result

        return traced

    def _patch(self, owner, attr, layer, name=None, note=None):
        original = owner[attr] if isinstance(owner, dict) else getattr(owner, attr)
        traced = self.wrap(layer, name or attr, original, note)
        if isinstance(owner, dict):
            owner[attr] = traced
        else:
            setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def install(self):
        from genfrob import _kernel, cli, closedform, verify

        self._patch(_kernel, "build_counts", "kernel", note=_kernel_note)
        for module in (cli, verify):
            self._patch(module, "gen_frobenius_brute", "frobenius", note=_search_note)
            self._patch(module, "gen_frobenius_two", "frobenius")
            self._patch(module, "denumerant", "denumerant", note=_denumerant_note)
            self._patch(module, "detect_cases", "closedform")
        self._patch(verify, "denumerant_series", "denumerant")
        self._patch(cli, "table_rows", "closedform", note=_rows_note)
        self._patch(cli, "u_set_prefix", "closedform", note=_uset_note)
        self._patch(closedform.ClosedFormCase, "sigma", "closedform", note=_sigma_note)
        self._patch(closedform.ClosedFormCase, "value", "closedform")
        for suite in list(verify.SUITES):  # the dict cli dispatches through
            self._patch(verify.SUITES, suite, "verify", name="suite", note=_cases_note)
        for check in ("check_lemma2", "check_lemma3", "check_decreasing"):
            self._patch(verify, check, "verify", name="check")

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    def _add(self, key: str, amount) -> None:
        self._totals[key] = self._totals.get(key, 0) + amount

    def end_op(self) -> None:
        """Fold the finished op's spans into the totals and write them out."""
        spans, add, base = self.spans, self._add, self._written
        child_time = [0.0] * len(spans)
        for s in spans:
            if s[PARENT] >= 0:
                child_time[s[PARENT]] += s[END] - s[START]
        finals: dict[int, int] = {}  # search span -> entries of its last table
        for i, s in enumerate(spans):
            layer, name, parent = s[LAYER], s[NAME], s[PARENT]
            duration = s[END] - s[START]
            add(f"{layer}.calls", 1)
            add(f"{layer}.self_s", duration - child_time[i])
            if parent < 0 or spans[parent][LAYER] != layer:  # the span enters its layer
                add(f"{layer}.busy_s", duration)
                add(f"{layer}.errors", s[ERROR])
            note = s[NOTE]
            if layer == "kernel":
                add("kernel.entries", note[0])
                add("kernel.entry_passes", note[0] * note[1])
                if parent >= 0 and spans[parent][NAME] == "gen_frobenius_brute":
                    add("search.tables", 1)
                    add("search.entries", note[0])
                    finals[parent] = note[0]
            elif name == "gen_frobenius_brute":
                add("frobenius.searches", 1)
                self._search_keys.add((_parts(note[0]), note[1]))
                if parent >= 0 and spans[parent][NAME] == "suite":
                    add("verify.checks", 1)  # theorem1 and twovar check inline
            elif name == "check":
                add("verify.checks", 1)
            elif name == "suite":
                add("verify.cases_run", note)
            elif name == "denumerant":
                add("denumerant.split_terms", _split_terms(*note))
            elif layer == "closedform" and note:
                add("closedform.sigma_steps", note)
            self._out.write(
                f"{base + i}\t{base + parent if parent >= 0 else -1}\t{s[OP]}\t{layer}\t{name}"
                f"\t{s[START]!r}\t{s[END]!r}\t{int(s[ERROR])}\n"
            )
        add("search.final_entries", sum(finals.values()))
        self._written += len(spans)
        spans.clear()

    def summary(self) -> dict[str, float]:
        """Per-layer metrics from every op folded in so far."""
        t = self._totals.get
        entries, passes = t("kernel.entries", 0), t("kernel.entry_passes", 0)
        searches, sigma_steps = t("frobenius.searches", 0), t("closedform.sigma_steps", 0)
        metrics = {
            "kernel.calls": t("kernel.calls", 0),
            "kernel.entries": entries,
            "kernel.entry_passes": passes,
            "kernel.entries_per_call": _ratio(entries, t("kernel.calls", 0)),
            "kernel.busy_s": t("kernel.busy_s", 0.0),
            "kernel.entry_passes_per_s": _ratio(passes, t("kernel.busy_s", 0.0)),
            # each coin pass reads and writes every int64 entry once
            "kernel.bytes_computed": 16 * passes,
            "frobenius.searches": searches,
            "frobenius.busy_s": t("frobenius.busy_s", 0.0),
            "frobenius.self_s": t("frobenius.self_s", 0.0),
            "frobenius.kernel_calls_per_search": _ratio(t("search.tables", 0), searches),
            "frobenius.useful_entries_ratio": _ratio(t("search.final_entries", 0), t("search.entries", 0)),
            "frobenius.distinct_ratio": _ratio(len(self._search_keys), searches),
            "denumerant.calls": t("denumerant.calls", 0),
            "denumerant.busy_s": t("denumerant.busy_s", 0.0),
            "denumerant.self_s": t("denumerant.self_s", 0.0),
            "denumerant.split_terms": t("denumerant.split_terms", 0),
            "closedform.calls": t("closedform.calls", 0),
            "closedform.busy_s": t("closedform.busy_s", 0.0),
            "closedform.sigma_steps": sigma_steps,
            "closedform.steps_per_s": _ratio(sigma_steps, t("closedform.busy_s", 0.0)),
            "verify.checks": t("verify.checks", 0),
            "verify.cases_run": t("verify.cases_run", 0),
            "verify.self_s": t("verify.self_s", 0.0),
            "cli.calls": t("cli.calls", 0),
            "cli.self_s": t("cli.self_s", 0.0),
        }
        metrics.update({f"{layer}.errors": t(f"{layer}.errors", 0) for layer in LAYERS})
        metrics["trace.spans"] = self._written
        return metrics


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _split_terms(n: int, coins) -> int:
    """Terms ``denumerant`` sums when (n, coins) takes the 3-part split path."""
    parts = _parts(coins)
    common = ref.gcd_all(parts)
    if n < 0 or len(parts) != 3 or n % common:
        return 0
    n //= common
    parts = tuple(p // common for p in parts)
    raw = os.environ.get("GENFROB_MAX_TABLE")
    cap = int(raw) if raw else DEFAULT_MAX_TABLE
    return ref.split_terms(n, parts) if n + 1 > cap else 0
