"""Speed probes: scale op latencies to a fixed machine speed.

On a shared machine the speed at which this process runs drifts, by up to
~1.8x over tens of seconds, when other tenants load the host.  Wall and CPU
time move together, so neither is steady across runs.  A probe is a small
fixed task that shares no code with genfrob.  Run just before and just after
an op, it measures how fast the machine ran meanwhile, and with the mean of
the two probe times

    scaled time = measured time * nominal / probe time

reads the op's time on a machine where the probe takes ``nominal`` (about
its median on the 2-vCPU Xeon VM the benchmark was tuned on).  A change to
genfrob moves the scaled time as much as the measured one; a drift of the
machine's speed moves it far less.

A probe only tracks the drift of the kind of work it does, so there are two:

- ``INTERPRETER`` is pure Python (integer arithmetic, dict updates, calls),
  for ops that spend their time in the interpreter.  It does not track
  large numpy passes at all.
- ``TABLES`` builds a fresh 5.1e6-entry int64 table and runs one in-place
  residue-class running sum over it, in numpy: the page faults, memory
  traffic and strided pass of the package's large tables, at a fixed size.
  At 40.7 MB the table is past glibc's largest mmap threshold (32 MB), so
  every run maps fresh pages, as the package's largest tables do, whatever
  the heap holds.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Probe:
    name: str
    task: Callable[[], object]
    repeats: int
    nominal_s: float

    def seconds(self) -> float:
        """Fastest of ``repeats`` runs of the task."""
        best = float("inf")
        for _ in range(self.repeats):
            start = time.perf_counter()
            self.task()
            best = min(best, time.perf_counter() - start)
        return best


def _interpreter_task() -> int:
    total = 0
    seen: dict[int, int] = {}
    for i in range(2500):
        q, r = divmod(i * 7919 + total, 1013)
        seen[r] = seen.get(r, 0) + q
        total = (total + q * r) % 1_000_003
    return total


TABLE_STEP = 77
TABLE_SIZE = TABLE_STEP * 66_000  # a multiple of the step, so the pass is one reshaped view


def _table_task() -> int:
    table = np.zeros(TABLE_SIZE, dtype=np.int64)
    table[0] = 1
    view = table.reshape(-1, TABLE_STEP)
    np.add.accumulate(view, axis=0, out=view)
    return int(table[-1])


INTERPRETER = Probe("interpreter", _interpreter_task, repeats=3, nominal_s=1.0e-3)
TABLES = Probe("tables", _table_task, repeats=1, nominal_s=32e-3)
