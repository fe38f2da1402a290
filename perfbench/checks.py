"""Output checks: parse an op's stdout and test it against ``reference``.

``Checker().check(op, stdout)`` returns ``(problem, cases_run)``: ``problem`` is None
when the output is right and a one-line reason otherwise; ``cases_run`` is
the verification report's case count (0 for other ops).  A ``g`` value
passes only if its certificate holds under counts the benchmark computes
itself: d(g) <= s and the next min(A) counts all exceed s.
"""

from __future__ import annotations

import json
import re

from . import reference as ref

_VERIFY_TEXT = re.compile(r"suite (\w+): (\d+) cases, (\d+) failures \((pass|FAIL)\)")
_MARKDOWN_HEAD = re.compile(r"### tuple=[\d,]+ pivot=(\d+) d=(\d+)")
_CSV_HEAD = re.compile(r"# pivot=(\d+) d=(\d+)")
_USET_TAIL = re.compile(r"# complete through (-?\d+) \(s_max=(\d+)\)")
_BRUTE_SIZE_LIMIT = 1 << 24  # a wildly wrong g must not make the checker build a huge table


class Checker:
    """Checks ops; remembers the expected case count of each suite config."""

    def __init__(self):
        self._expected: dict = {}

    def check(self, op, stdout: str) -> tuple[str | None, int]:
        try:
            if op.kind == "verify":
                return _check_verify(op.spec, stdout, self._expected_cases)
            return _CHECKERS[op.kind](op.spec, stdout)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return f"unparseable output ({type(exc).__name__}: {exc})", 0

    def _expected_cases(self, suite: str, bounds: dict) -> int:
        key = (suite, tuple(sorted(bounds.items())))
        if key not in self._expected:
            self._expected[key] = ref.expected_cases(suite, bounds)
        return self._expected[key]


def _check_verify(spec, stdout, expected_cases):
    first = stdout.splitlines()[0]
    if first.startswith("{"):
        head = json.loads(first)
        suite, cases, failures, passed = head["suite"], head["cases_run"], head["failures"], head["passed"]
    else:
        match = _VERIFY_TEXT.fullmatch(first)
        if match is None:
            return f"unexpected report line {first!r}", 0
        suite, cases, failures = match[1], int(match[2]), int(match[3])
        passed = match[4] == "pass"
    if suite != spec["suite"] or failures or not passed:
        return f"suite {suite}: {failures} failures, passed={passed}", cases
    if "samples" in spec:
        # sampled runs draw their own inputs; they must pass and do work
        return (None if cases > 0 else "sampled run checked no cases"), cases
    expected = expected_cases(spec["suite"], spec["bounds"])
    if cases != expected:
        return f"cases_run {cases} != {expected}", cases
    return None, cases


def _parse_theorem1(stdout: str, fmt: str):
    """[(pivot, d, [(s, sigma, g), ...]), ...] from any theorem1 format."""
    if fmt == "json":
        payload = json.loads(stdout)
        return [
            (c["pivot"], c["d"], [(r["s"], r["sigma"], r["g"]) for r in c["rows"]])
            for c in payload["cases"]
        ]
    head = _MARKDOWN_HEAD if fmt == "markdown" else _CSV_HEAD
    cases = []
    for line in stdout.splitlines():
        match = head.fullmatch(line)
        if match:
            cases.append((int(match[1]), int(match[2]), []))
        elif fmt == "markdown" and line.startswith("| ") and line[2].isdigit():
            cases[-1][2].append(tuple(int(v) for v in line.strip("| ").split(" | ")))
        elif fmt == "csv" and line and line[0].isdigit():
            cases[-1][2].append(tuple(int(v) for v in line.split(",")))
    return cases


def _check_theorem1(spec, stdout):
    parts = spec["parts"]
    expected = ref.closed_form_cases(parts)
    got = _parse_theorem1(stdout, spec["format"])
    if [(p, d) for p, d, _ in got] != [(p, d) for p, d, _, _ in expected]:
        return f"cases {[(p, d) for p, d, _ in got]} != {[(p, d) for p, d, _, _ in expected]}", 0
    window = min(parts)
    count = lambda n: ref.count3(n, *parts)  # noqa: E731
    for (pivot, _, rows), (_, _, num, den) in zip(got, expected):
        if [r[0] for r in rows] != spec["s_values"]:
            return f"pivot {pivot}: rows for s={[r[0] for r in rows]}", 0
        for s, sigma, g in rows:
            if sigma != ref.sigma(num, den, s):
                return f"pivot {pivot} s={s}: sigma {sigma} != {ref.sigma(num, den, s)}", 0
            if not ref.certify_g(count, g, sigma, window):
                return f"pivot {pivot} s={s}: g={g} fails its certificate at sigma={sigma}", 0
    return None, 0


def _check_uset(spec, stdout):
    lines = stdout.splitlines()
    values = [int(v) for v in lines[0].split(",")] if lines[0] else []
    match = _USET_TAIL.fullmatch(lines[1])
    if match is None:
        return f"unexpected uset tail {lines[1]!r}", 0
    want, bound = ref.uset_prefix(spec["parts"], spec["s_max"])
    if int(match[1]) != bound or int(match[2]) != spec["s_max"]:
        return f"bound {match[1]} != {bound}", 0
    if values != want:
        return f"uset prefix differs from the reference ({len(values)} vs {len(want)} values)", 0
    return None, 0


def _parse_frobenius(stdout: str, fmt: str):
    if fmt == "json":
        payload = json.loads(stdout)
        window = payload["witness_window"]
        return payload["value"], payload["method"], [tuple(p) for p in window] if window else None
    lines = stdout.splitlines()
    window = None
    if len(lines) > 2:
        window = [tuple(int(v) for v in pair.split(":")) for pair in lines[2].removeprefix("window: ").split()]
    return int(lines[0]), lines[1].removeprefix("method: "), window


def _check_frobenius(spec, stdout):
    parts, s = spec["parts"], spec["s"]
    g, method, window = _parse_frobenius(stdout, spec["format"])
    width = min(parts)
    if spec.get("brute"):
        if method != "brute_force" or window is None:
            return f"method {method} without a witness window", 0
        if not -1 <= g < _BRUTE_SIZE_LIMIT:
            return f"g={g} outside the searched range", 0
        table = ref.count_table(parts, g + width)
        count = lambda n: int(table[n]) if n >= 0 else 0  # noqa: E731
        want = [(n, count(n)) for n in range(g + 1, g + width + 1)]
        if window != want:
            return "witness window differs from the reference counts", 0
    else:
        count = lambda n: ref.count3(n, *parts)  # noqa: E731
    if not ref.certify_g(count, g, s, width):
        return f"g={g} fails its certificate at s={s}", 0
    return None, 0


def _check_denumerant(spec, stdout):
    parts, n = spec["parts"], spec["n"]
    if spec["split"]:
        # peel a part the package's split does not: the larger of the other two
        largest = max(range(3), key=lambda i: parts[i])
        peel = max((i for i in range(3) if i != largest), key=lambda i: parts[i])
        want = ref.peel_count(n, parts, peel)
    else:
        want = int(ref.count_table(parts, n)[n])
    got = int(stdout)
    return (None if got == want else f"d({n}) = {got}, reference {want}"), 0


_CHECKERS = {
    "theorem1": _check_theorem1,
    "uset": _check_uset,
    "frobenius": _check_frobenius,
    "denumerant": _check_denumerant,
}
