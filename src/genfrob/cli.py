"""Command-line front end.

Subcommands: ``denumerant`` (one count), ``frobenius`` (one g(A;s)),
``theorem1`` (closed-form (s, sigma, g) tables for 3-part tuples),
``uset`` (the set of pinned indices), ``verify`` (property suites).
Exit codes: 0 success, 1 verification failure, 2 invalid input,
3 capacity/overflow.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys

from .closedform import detect_cases, table_rows, u_set_prefix
from .denumerant import Coins, denumerant
from .errors import CapacityError, InvalidInputError, RangeOverflowError
from .exactint import require_i64
from .frobenius import (
    METHOD_CLOSED_FORM,
    METHOD_TWO_VAR,
    gen_frobenius_brute,
    gen_frobenius_brute_many,
    gen_frobenius_two,
)
from .verify import SUITES

EXIT_OK = 0
EXIT_FAILURES = 1
EXIT_INVALID = 2
EXIT_CAPACITY = 3

DEFAULT_S_RANGE = "0..5,100,10000"
# Each row costs O(log s), so the number of rows, not the size of s,
# bounds the run time of a theorem1 table.
MAX_S_ROWS = 100_000


def _parse_s_values(text: str) -> list[int]:
    """``a..b,extra,...`` into a strictly increasing list of at most MAX_S_ROWS s values."""
    ranges = []
    try:
        for piece in text.split(","):
            lo, dots, hi = piece.strip().partition("..")
            ranges.append((int(lo), int(hi) if dots else int(lo)))
    except ValueError as exc:
        raise InvalidInputError(f"cannot parse s range {text!r}: {exc}") from None
    if sum(max(hi - lo + 1, 0) for lo, hi in ranges) > MAX_S_ROWS:
        raise InvalidInputError(f"s range {text!r} expands to more than {MAX_S_ROWS} values")
    values = [s for lo, hi in ranges for s in range(lo, hi + 1)]
    if not values or values[0] < 0:
        raise InvalidInputError("s values must be non-empty and non-negative")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise InvalidInputError("s values must be strictly increasing")
    return values


def _cmd_denumerant(args) -> int:
    coins = Coins.parse(args.tuple)
    print(denumerant(args.n, coins))
    return EXIT_OK


def _sigma_match(coins: Coins, s: int):
    """(case, s') with case.sigma(s') == s, or None.  Cases tried in pivot order."""
    for case in detect_cases(coins):
        inner_s = case.index_of(s)
        if inner_s is not None:
            return case, inner_s
    return None


def _cmd_frobenius(args) -> int:
    coins = Coins.parse(args.tuple)
    if coins.overall_gcd != 1:
        raise InvalidInputError("g(A; s) requires overall gcd 1")
    if args.s < 0:
        raise InvalidInputError("s must be non-negative")
    require_i64(args.s, "s")  # a sigma index, like every count, is a 64-bit value
    value, method, window = None, None, None
    if args.method in ("auto", "closed"):
        if len(coins) == 2:
            value = gen_frobenius_two(coins.parts[0], coins.parts[1], args.s)
            method = METHOD_TWO_VAR
        elif len(coins) == 3:
            match = _sigma_match(coins, args.s)
            if match is not None:
                case, inner_s = match
                value = case.value(inner_s)
                method = METHOD_CLOSED_FORM
        if value is None and args.method == "closed":
            raise InvalidInputError("no closed form applies to this tuple and s")
    if value is None:
        result = gen_frobenius_brute(coins, args.s)
        value, method, window = result.value, result.method, result.witness_window
    if args.format == "json":
        payload = {
            "tuple": list(coins.parts),
            "s": args.s,
            "value": value,
            "method": method,
            "witness_window": [list(pair) for pair in window] if window else None,
        }
        print(json.dumps(payload, indent=2))
    else:
        print(value)
        print(f"method: {method}")
        if window:
            print("window: " + " ".join(f"{n}:{d}" for n, d in window))
    return EXIT_OK


def _emit_markdown(coins, per_case) -> None:
    for case, rows in per_case:
        print(f"### tuple={','.join(map(str, coins.parts))} pivot={case.pivot} d={case.d}")
        print("| s | sigma | g |")
        print("| ---: | ---: | ---: |")
        for row in rows:
            print(f"| {row.s} | {row.sigma} | {row.g} |")
        print()


def _emit_csv(per_case) -> None:
    for case, rows in per_case:
        print(f"# pivot={case.pivot} d={case.d}")
        print("s,sigma,g")
        for row in rows:
            print(f"{row.s},{row.sigma},{row.g}")
        print()


def _emit_json(coins, per_case) -> None:
    payload = {
        "tuple": list(coins.parts),
        "cases": [
            {
                "pivot": case.pivot,
                "d": case.d,
                "rows": [{"s": r.s, "sigma": r.sigma, "g": r.g} for r in rows],
            }
            for case, rows in per_case
        ],
    }
    print(json.dumps(payload, indent=2))


def _cmd_theorem1(args) -> int:
    coins = Coins.parse(args.tuple)
    s_values = _parse_s_values(args.s)
    cases = detect_cases(coins)
    if not cases:
        raise InvalidInputError("no applicable case: no divisibility condition holds")
    per_case = [(case, table_rows(case, s_values)) for case in cases]
    if args.cross_check:
        checked = [
            (case, row) for case, rows in per_case for row in rows
            if row.g <= args.cross_check_limit
        ]
        if checked:
            # one table answers every row of every case
            oracles, _ = gen_frobenius_brute_many(
                coins, [row.sigma for _, row in checked],
                size_hint=max(row.g for _, row in checked) + coins.min_part + 2,
            )
            for (case, row), oracle in zip(checked, oracles):
                if oracle != row.g:
                    print(
                        f"cross-check mismatch: pivot={case.pivot} s={row.s} "
                        f"sigma={row.sigma} closed={row.g} oracle={oracle}",
                        file=sys.stderr,
                    )
                    return EXIT_FAILURES
        print(f"cross-check: {len(checked)} rows verified", file=sys.stderr)
    if args.format == "csv":
        _emit_csv(per_case)
    elif args.format == "json":
        _emit_json(coins, per_case)
    else:
        _emit_markdown(coins, per_case)
    return EXIT_OK


def _cmd_uset(args) -> int:
    coins = Coins.parse(args.tuple)
    values, bound = u_set_prefix(coins, args.s_max)
    print(",".join(map(str, values)))
    print(f"# complete through {bound} (s_max={args.s_max})")
    return EXIT_OK


def _cmd_verify(args) -> int:
    runner = SUITES.get(args.suite)
    if runner is None:
        raise InvalidInputError(f"unknown suite {args.suite!r} (choose from {sorted(SUITES)})")
    kwargs = {}
    if args.max_part is not None:
        kwargs["max_part"] = args.max_part
    if args.max_ab is not None:
        kwargs["max_ab"] = args.max_ab
    if args.max_s is not None:
        kwargs["max_s"] = args.max_s
    if args.max_c is not None:
        kwargs["max_c"] = args.max_c
    if args.samples is not None:
        kwargs["samples"] = args.samples
        kwargs["seed"] = args.seed
    try:
        inspect.signature(runner).bind(**kwargs)
    except TypeError as exc:
        raise InvalidInputError(f"bounds not applicable to suite {args.suite!r}: {exc}") from None
    report = runner(**kwargs)
    if args.format == "jsonl":
        text = "\n".join(report.to_json_lines()) + "\n"
    else:
        lines = [
            f"suite {report.suite}: {report.cases_run} cases, "
            f"{len(report.failures)} failures ({'pass' if report.passed else 'FAIL'})"
        ]
        lines += [
            f"  inputs={f.inputs} expected={f.expected} actual={f.actual}"
            for f in report.failures[:50]
        ]
        text = "\n".join(lines) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    print(f"elapsed: {report.elapsed:.3f}s", file=sys.stderr)
    return EXIT_OK if report.passed else EXIT_FAILURES


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="genfrob",
        description="Exact denumerants and generalized Frobenius numbers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("denumerant", help="count representations of n over a tuple")
    p.add_argument("--tuple", required=True, help="comma-separated positive parts, e.g. 10,15,21")
    p.add_argument("--n", required=True, type=int)
    p.set_defaults(handler=_cmd_denumerant)

    p = sub.add_parser("frobenius", help="largest n with at most s representations")
    p.add_argument("--tuple", required=True)
    p.add_argument("--s", required=True, type=int)
    p.add_argument("--method", choices=("auto", "brute", "closed"), default="auto")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(handler=_cmd_frobenius)

    p = sub.add_parser("theorem1", help="closed-form (s, sigma, g) tables for 3-part tuples")
    p.add_argument("--tuple", required=True)
    p.add_argument("--s", default=DEFAULT_S_RANGE, help="e.g. 0..5,100,10000")
    p.add_argument("--format", choices=("markdown", "csv", "json"), default="markdown")
    p.add_argument("--cross-check", action="store_true",
                   help="verify small rows against the brute-force oracle")
    p.add_argument("--cross-check-limit", type=int, default=100_000,
                   help="only rows with g at most this are oracle-checked")
    p.set_defaults(handler=_cmd_theorem1)

    p = sub.add_parser("uset", help="pinned-index set of a 3-part tuple")
    p.add_argument("--tuple", required=True)
    p.add_argument("--s-max", required=True, type=int)
    p.set_defaults(handler=_cmd_uset)

    p = sub.add_parser("verify", help="run a property suite")
    p.add_argument("--suite", required=True)
    p.add_argument("--max-part", type=int, default=None)
    p.add_argument("--max-ab", type=int, default=None)
    p.add_argument("--max-s", type=int, default=None)
    p.add_argument("--max-c", type=int, default=None)
    p.add_argument("--samples", type=int, default=None,
                   help="random mode: number of sampled inputs")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--format", choices=("text", "jsonl"), default="text")
    p.add_argument("--output", default=None, help="write the report here instead of stdout")
    p.set_defaults(handler=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (CapacityError, RangeOverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY


if __name__ == "__main__":
    sys.exit(main())
