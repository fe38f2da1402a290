#!/usr/bin/env python3
"""Benchmark the counting kernel.

Usage, from the root of a checkout:
    PYTHONPATH=src python benchmarks/bench_kernels.py
    PYTHONPATH=src python benchmarks/bench_kernels.py --n-max 5000000 --repeat 5

Large tables report the best of ``--repeat`` calls in ms; tiny tables, the
size the verify suites build by the hundred thousand, report µs per call.
The streamed paths report the best of ``--repeat`` calls too: a 4-part
count, which sums the streamed table of the other three parts and also
reports its tracemalloc peak, and a brute-force search whose first
1024-entry table holds no window, so it streams about 2.5M entries.  The
search's peak is not reported: tracemalloc counts its reserved array of up to
10^7 entries in full, though only the pages the stream writes are ever mapped.
"""

import argparse
import time
import timeit
import tracemalloc

from genfrob import denumerant, gen_frobenius_brute
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
# (label, function, arguments)
STREAMED = [
    ("4-part count", denumerant, (6_927_665, (147, 149, 48, 72))),
    # g = 2,500,000 exactly: s is d(2.5e6; A)
    ("brute-force g search", gen_frobenius_brute, ((61, 97, 131, 200), 16_803_251_575)),
]


def best_of(repeat, fn, *args):
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - start)
    return best


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def time_tiny(parts, n_max, repeat):
    runs = timeit.repeat(lambda: build_counts(parts, n_max), number=TINY_CALLS, repeat=repeat)
    return min(runs) / TINY_CALLS


def run(n_max, repeat):
    print(f"repeat={repeat}")
    print(f"{'workload':<22}{'n_max':>10}{'time':>14}")
    for label, parts, size in WORKLOADS:
        size = size or n_max
        print(f"{label:<22}{size:>10}{best_of(repeat, build_counts, parts, size) * 1e3:>12.1f}ms")
    for label, parts, size in TINY:
        print(f"{label:<22}{size:>10}{time_tiny(parts, size, repeat) * 1e6:>12.1f}µs")
    print(f"\n{'streamed path':<22}{'time':>10}{'peak':>14}")
    for label, fn, args in STREAMED:
        line = f"{label:<22}{best_of(repeat, fn, *args) * 1e3:>8.1f}ms"
        if fn is denumerant:
            line += f"{traced_peak(fn, *args) / 2**20:>11.1f}MiB"
        print(line)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n-max", type=int, default=2_000_000)
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()
    run(args.n_max, args.repeat)


if __name__ == "__main__":
    main()
