#!/usr/bin/env python3
"""Benchmark the counting kernel.

Usage, from the root of a checkout:
    PYTHONPATH=src python benchmarks/bench_kernels.py
    PYTHONPATH=src python benchmarks/bench_kernels.py --n-max 5000000 --repeat 5

Large tables report the best of ``--repeat`` calls in ms; tiny tables, the
size the verify suites build by the hundred thousand, report µs per call.
"""

import argparse
import time
import timeit

from genfrob._kernel import build_counts

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


def time_table(parts, n_max, repeat):
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        build_counts(parts, n_max)
        best = min(best, time.perf_counter() - start)
    return best


def time_tiny(parts, n_max, repeat):
    runs = timeit.repeat(lambda: build_counts(parts, n_max), number=TINY_CALLS, repeat=repeat)
    return min(runs) / TINY_CALLS


def run(n_max, repeat):
    print(f"repeat={repeat}")
    print(f"{'workload':<22}{'n_max':>10}{'time':>14}")
    for label, parts, size in WORKLOADS:
        size = size or n_max
        print(f"{label:<22}{size:>10}{time_table(parts, size, repeat) * 1e3:>12.1f}ms")
    for label, parts, size in TINY:
        print(f"{label:<22}{size:>10}{time_tiny(parts, size, repeat) * 1e6:>12.1f}µs")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n-max", type=int, default=2_000_000)
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()
    run(args.n_max, args.repeat)


if __name__ == "__main__":
    main()
