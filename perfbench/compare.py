#!/usr/bin/env python3
"""Compare two sets of benchmark results, metric by metric.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds ``result-*.json`` files written by ``run.py`` (its
``.perfbench_out``).  For every workload and metric it prints the median of
each side, the change, and whether the new median is worse than the base
by more than the bound in BENCHMARK.json.  Results measured on different
kernel backends are not comparable: the script refuses them (exit 2).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(directory: Path) -> list[dict]:
    results = [json.loads(p.read_text()) for p in sorted(directory.glob("result-*.json"))]
    if not results:
        raise SystemExit(f"no result-*.json files in {directory}")
    return results


def medians(results: list[dict]) -> dict[tuple[str, str], float]:
    values: dict[tuple[str, str], list[float]] = {}
    for result in results:
        for name, metric in result["metrics"].items():
            values.setdefault((result["workload"], name), []).append(metric["value"])
    return {key: statistics.median(v) for key, v in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    base, new = load(args.base), load(args.new)
    backends = {r["env"]["kernel_backend"] for r in base + new}
    if len(backends) > 1:
        print(f"refusing to compare results from different kernel backends: {sorted(backends)}", file=sys.stderr)
        return 2
    envs = {json.dumps(r["env"], sort_keys=True) for r in base + new}
    if len(envs) > 1:
        print("warning: results come from different environments:", *sorted(envs), sep="\n  ", file=sys.stderr)

    spec = json.loads(BENCHMARK.read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    before, after = medians(base), medians(new)
    regressed = False
    for key in sorted(before.keys() & after.keys()):
        workload, name = key
        m = metrics.get(name, {"unit": "", "better": "lower"})
        old, cur = before[key], after[key]
        change = (cur - old) / old if old else 0.0
        worse = change if m["better"] == "lower" else -change
        verdict = ""
        if "bound" in m:
            verdict = "REGRESSED" if worse > m["bound"] else "ok"
            regressed |= worse > m["bound"]
        print(f"{workload:13s} {name:36s} {old:14.6g} -> {cur:14.6g} {m['unit']:6s} {change:+8.1%} {verdict}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
