#!/usr/bin/env python3
"""Benchmark the compiled counting kernel against the numpy fallback.

Usage, from the root of a checkout:
    PYTHONPATH=src python benchmarks/bench_kernels.py
    PYTHONPATH=src python benchmarks/bench_kernels.py --n-max 5000000 --repeat 5

Both backends fill the same representation-count tables; results are
asserted bitwise equal before timings are reported.  Large tables report
the best of ``--repeat`` calls in ms; tiny tables, the size the verify
suites build by the hundred thousand, report µs per call.
"""

import argparse
import time
import timeit

import numpy as np

from genfrob._kernel import available_backends

# (label, parts, n_max); None means the --n-max option
WORKLOADS = [
    ("triple, small parts", (10, 15, 21), None),
    ("pair, coprime", (101, 103), None),
    ("quad, mixed", (6, 10, 15, 77), None),
    # the shapes of perfbench's dense-tables counts: 4-6 parts, 4-6M entries
    ("dense quad", (61, 97, 131, 200), 6_000_000),
    ("dense quint", (73, 151, 233, 307, 389), 5_000_000),
    ("dense sextet", (401, 613, 827, 1009, 1231, 1499), 4_000_000),
]
TINY = [
    ("tiny triple", (10, 15, 21), 175),
    ("tiny quad", (6, 10, 15, 77), 1023),
]
TINY_CALLS = 2000


def time_backend(impl, parts, n_max, repeat):
    best = float("inf")
    table = None
    for _ in range(repeat):
        start = time.perf_counter()
        table = impl.build_counts(parts, n_max)
        best = min(best, time.perf_counter() - start)
    return best, table


def time_tiny(impl, parts, n_max, repeat):
    runs = timeit.repeat(lambda: impl.build_counts(parts, n_max), number=TINY_CALLS, repeat=repeat)
    return min(runs) / TINY_CALLS, impl.build_counts(parts, n_max)


def report(label, parts, n_max, backends, timer, scale, unit, repeat):
    times, tables = {}, {}
    for name in sorted(backends):
        times[name], tables[name] = timer(backends[name], parts, n_max, repeat)
    produced = list(tables.values())
    for other in produced[1:]:
        assert np.array_equal(produced[0], other), "backends disagree"
    row = f"{label:<22}{n_max:>10}" + "".join(f"{times[name] * scale:>12.1f}{unit}" for name in sorted(times))
    if len(times) > 1:
        row += f"{times['python'] / times['compiled']:>9.1f}x"
    print(row)


def run(n_max, repeat):
    backends = available_backends()
    print(f"backends: {', '.join(sorted(backends))}   repeat={repeat}")
    if "compiled" not in backends:
        print("note: compiled kernel not built; timing the fallback alone")
    header = f"{'workload':<22}{'n_max':>10}" + "".join(f"{name:>14}" for name in sorted(backends))
    if len(backends) > 1:
        header += f"{'speedup':>10}"
    print(header)
    for label, parts, size in WORKLOADS:
        report(label, parts, size or n_max, backends, time_backend, 1e3, "ms", repeat)
    for label, parts, size in TINY:
        report(label, parts, size, backends, time_tiny, 1e6, "µs", repeat)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n-max", type=int, default=2_000_000)
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()
    run(args.n_max, args.repeat)


if __name__ == "__main__":
    main()
