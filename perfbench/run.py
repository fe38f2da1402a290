#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the genfrob CLI.

    python3 perfbench/run.py --workload verify-grid --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload, one process each

Run from a checkout: the package is imported from ``src/`` next to this
directory, and the run fails (exit 2, no result) when it is not there.

One client in one process drives ``genfrob.cli.main(argv)`` in a closed
loop: the next op starts when the previous one returns.  An op is one CLI
invocation; its latency covers ``main`` alone, with stdout captured.  The
untraced run makes three passes over one list of ops.  The first pass draws
ops until their scaled latencies (below) add up to a third of ``--seconds``;
the other two replay the same ops in seeded shuffled orders.  An op's latency is the
fastest of its three, and its stdout must match byte for byte.  The
latencies are scaled to a fixed machine speed by the workload's probe
(``workloads.PROBES``, ``perfbench.speed``); the measured ones are printed
and recorded too.  Every output is checked against ``perfbench.reference``
outside the timed region.

``--trace 0`` reports the end-to-end metrics of ``perfbench.metrics``;
``--trace 1`` wraps the package's module boundaries (``perfbench.tracing``),
runs ops traced for half of ``--seconds``, reports the per-layer metrics,
then reruns the same ops untraced to give the tracing overhead.  The last
stdout line is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it print each metric by name
with its unit.  The full result, and in a traced run the spans, go to
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

if __package__ in (None, ""):
    sys.path.insert(0, str(ROOT))

from perfbench import checks, metrics, speed, tracing, workloads  # noqa: E402

PASSES = 3
SETUP_RUNS_PER_PASS = 5
MEASURED_CAP = 1.5
CHILD_TIMEOUT_S = 900

SETUP_CODE = """
import time
start = time.perf_counter()
import genfrob
if genfrob.denumerant(120, (10, 15, 21)) != 6:
    raise SystemExit("wrong d(120; 10, 15, 21)")
print(time.perf_counter() - start, genfrob.__file__)
"""


class BenchError(Exception):
    """The benchmark cannot produce a result (package missing or broken set-up)."""


@dataclass
class Record:
    op: workloads.Op
    digest: str
    problem: str | None
    cases: int
    passes: list[tuple[float, float]]  # (scaled, measured) latency of each run of the op

    @property
    def seconds(self) -> float:
        """Fastest latency, scaled by the workload's speed probe."""
        return min(scaled for scaled, _ in self.passes)

    @property
    def measured_seconds(self) -> float:
        return min(measured for _, measured in self.passes)


def _src_env() -> dict[str, str]:
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, PYTHONPATH=path)


def import_package():
    if not (SRC / "genfrob" / "__init__.py").is_file():
        raise BenchError(f"no genfrob package under {SRC}")
    sys.path.insert(0, str(SRC))
    import genfrob
    import genfrob.cli

    if Path(genfrob.__file__).resolve().parent != SRC / "genfrob":
        raise BenchError(f"imported genfrob from {genfrob.__file__}, not from {SRC}")
    return genfrob


def environment(genfrob) -> dict:
    """The values that change what is measured; results are comparable only if they match."""
    import numpy

    return {
        "kernel_backend": genfrob.KERNEL_BACKEND,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "GENFROB_NO_EXT": os.environ.get("GENFROB_NO_EXT", "unset"),
        "GENFROB_MAX_TABLE": os.environ.get("GENFROB_MAX_TABLE", "unset"),
    }


def setup_times(runs: int) -> list[tuple[float, float]]:
    """(scaled, measured) times, in fresh processes, to import genfrob and
    finish one trivial call.  The import runs in the interpreter, so the
    interpreter probe, run just before and after, scales each time."""
    probe = speed.INTERPRETER
    times = []
    for _ in range(runs):
        before = probe.seconds()
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=_src_env(),
            capture_output=True, text=True, timeout=120,
        )
        after = probe.seconds()
        if done.returncode:
            raise BenchError(f"set-up process failed: {done.stderr.strip()[-500:]}")
        seconds, origin = done.stdout.split()
        if Path(origin).resolve().parent != SRC / "genfrob":
            raise BenchError(f"set-up process imported genfrob from {origin}")
        measured = float(seconds)
        times.append((measured * 2 * probe.nominal_s / (before + after), measured))
    return times


def pin_to_one_cpu() -> int | None:
    """Keep this process, and the set-up processes it starts, on one CPU, so
    that a speed probe measures the CPU that runs the work it scales.  Two
    vCPUs of a shared host can run at different speeds at the same time."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def call(main, argv) -> tuple[float, str, str | None]:
    """Run one op; returns (latency, stdout, problem or None)."""
    out = io.StringIO()
    problem = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a raising op is a failed op; the run goes on
            code, problem = None, f"uncaught {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
    if problem is None and code != 0:
        problem = f"exit code {code}"
    return elapsed, out.getvalue(), problem


def timed_call(main, argv, probe: speed.Probe | None, before: float | None = None):
    """call(), returning (scaled latency, measured latency, stdout, problem,
    probe time after the op).  With a ``probe``, it runs just before the op
    (unless ``before`` is a probe time taken just before it) and just after,
    and the latency is scaled by the mean of the two."""
    if probe is None:
        elapsed, out, problem = call(main, argv)
        return elapsed, elapsed, out, problem, None
    if before is None:
        before = probe.seconds()
    elapsed, out, problem = call(main, argv)
    after = probe.seconds()
    return elapsed * 2 * probe.nominal_s / (before + after), elapsed, out, problem, after


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_ops(main, stream, seconds: float, probe=None, tracer=None) -> list[Record]:
    """Closed loop until op latencies add up to ``seconds``; checks each output.
    With a ``probe``, each latency is also scaled by it (``timed_call``), and
    the scaled latencies count, so that the number of ops, and with it the
    rank of the tail latency, does not follow the machine's speed; the
    measured ones stop the loop at ``MEASURED_CAP`` times ``seconds``, which
    bounds the run's length on a slow machine."""
    checker = checks.Checker()
    seen: dict[tuple, Record] = {}
    records: list[Record] = []
    busy = measured = 0.0
    before = None  # the last probe time, if nothing ran since
    while busy < seconds and measured < MEASURED_CAP * seconds:
        op = next(stream)
        if tracer is not None:
            tracer.op = len(records)
        latency, elapsed, out, problem, before = timed_call(main, op.argv, probe, before)
        if tracer is not None:
            tracer.end_op()
        busy += latency
        measured += elapsed
        digest = _digest(out)
        earlier = seen.get(op.argv)
        cases = 0
        if problem is None and earlier is not None:
            problem, cases = earlier.problem, earlier.cases
            if digest != earlier.digest:
                problem = "output differs from an earlier run of the same op"
        elif problem is None:
            problem, cases = checker.check(op, out)
            before = None
        record = Record(op, digest, problem, cases, [(latency, elapsed)])
        seen.setdefault(op.argv, record)
        records.append(record)
    return records


def replay(main, records: list[Record], rng: random.Random, probe=None) -> None:
    """Run every op once more, in a shuffled order; any stdout byte
    difference fails the op."""
    before = None
    for record in rng.sample(records, len(records)):
        latency, elapsed, out, problem, before = timed_call(main, record.op.argv, probe, before)
        record.passes.append((latency, elapsed))
        if (problem or _digest(out) != record.digest) and record.problem is None:
            record.problem = problem or "replayed stdout differs"


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(latency, percentile, samples): the highest percentile with ten samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def timings(latencies: list[float]) -> dict:
    busy = sum(latencies)
    tail_s, percentile, samples = tail(latencies)
    return {
        "ops_per_s": len(latencies) / busy,
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_tail_ms": tail_s * 1e3,
        "op_tail_percentile": percentile,
        "op_tail_samples": samples,
        "busy_s": busy,
    }


def end_to_end(records: list[Record], setup_s: float, peak_rss_mb: float) -> tuple[dict, dict]:
    """Op metrics from scaled times; the measured ones go to ``extra["measured"]``."""
    values = timings([r.seconds for r in records])
    values["setup_s"] = setup_s
    values["peak_rss_mb"] = peak_rss_mb
    measured = timings([r.measured_seconds for r in records])
    extra = {
        "op_tail_percentile": values["op_tail_percentile"],
        "op_tail_samples": values["op_tail_samples"],
        "measured": measured,
        "failed_frac": sum(r.problem is not None for r in records) / len(records),
    }
    cases = sum(r.cases for r in records)
    if cases:
        extra["cases_per_s"] = cases / values["busy_s"]
    return values, extra


def run_workload(args) -> int:
    cpu = pin_to_one_cpu()
    genfrob = import_package()
    from genfrob import cli

    env = {**environment(genfrob), "pinned_cpu": cpu}
    stream = workloads.ops(args.workload, args.seed)
    order = random.Random(f"replay/{args.workload}/{args.seed}")
    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT.mkdir(exist_ok=True)
    extra: dict = {}

    if args.trace:
        spans_path = OUT / f"spans-{label}.tsv.gz"
        tracer = tracing.Tracer(spans_path)
        tracer.install()
        try:
            # half the op time traced; the untraced rerun below takes about the other half
            records = run_ops(tracer.wrap("cli", "main", cli.main), stream, args.seconds / 2, tracer=tracer)
        finally:
            tracer.uninstall()
            tracer.close()
        replay(cli.main, records, order)  # the same ops untraced
        traced_s = sum(r.passes[0][1] for r in records)
        untraced_s = sum(r.passes[1][1] for r in records)
        values = tracer.summary()
        values["verify.cases_per_s"] = sum(r.cases for r in records) / untraced_s
        values["cli.sigma_steps"] = sum(r.op.spec.get("sigma_steps", 0) for r in records)
        values["trace.overhead"] = traced_s / untraced_s
        wanted = metrics.PER_LAYER
        extra["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        # set-up samples are spread over the passes, so a burst of load on
        # the machine skews few of them
        probe = workloads.PROBES[args.workload]
        setups = setup_times(SETUP_RUNS_PER_PASS)
        records = run_ops(cli.main, stream, args.seconds / PASSES, probe)
        for _ in range(PASSES - 1):
            setups += setup_times(SETUP_RUNS_PER_PASS)
            replay(cli.main, records, order, probe)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        values, extra = end_to_end(records, statistics.median(t for t, _ in setups), peak_rss_mb)
        extra["setup_s_measured"] = statistics.median(m for _, m in setups)
        extra["speed_probe"] = probe.name
        wanted = metrics.END_TO_END

    failures = [
        {"index": i, "argv": " ".join(r.op.argv), "problem": r.problem}
        for i, r in enumerate(records) if r.problem is not None
    ]
    result = {
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {m.name: {"value": values[m.name], "unit": m.unit} for m in wanted},
    }
    extra["op_latencies_ms"] = [[r.op.kind, [[a * 1e3, b * 1e3] for a, b in r.passes]] for r in records]
    (OUT / f"result-{label}.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
         "env": env, **result, "extra": extra, "failures": failures[:50]},
        indent=1,
    ) + "\n")

    for f in failures[:10]:
        print(f"failed op {f['index']}: {f['problem']} [{f['argv'][:200]}]", file=sys.stderr)
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} ops {len(records)}")
    for name, metric in result["metrics"].items():
        note = ""
        if name == "op_tail_ms":
            samples = extra["op_tail_samples"]
            note = f" (p{extra['op_tail_percentile']:.2f} of {samples} ops, {10 if samples > 10 else 0} beyond)"
        print(f"{name} {metric['value']:.6g} {metric['unit']}{note}")
    if not args.trace:
        print(f"failed_frac {extra['failed_frac']:.6g} ratio")
        if "cases_per_s" in extra:
            print(f"cases_per_s {extra['cases_per_s']:.6g} 1/s")
        measured = extra["measured"]
        print("measured, unscaled: " + " ".join(
            f"{k} {measured[k]:.6g}" for k in ("ops_per_s", "op_p50_ms", "op_tail_ms"))
            + f" setup_s {extra['setup_s_measured']:.6g}")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process, one after the other; prints every metric."""
    correct = True
    for name in workloads.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        sys.stderr.write(done.stderr)
        lines = done.stdout.splitlines()
        if done.returncode or not lines:
            print(f"{name}: exit code {done.returncode}")
            correct = False
            continue
        for line in lines[:-1]:
            print(f"{name} {line}")
        result = json.loads(lines[-1])
        correct &= result["correct"]
        print(f"{name} correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
    return 0 if correct else 1


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="op time to measure (sum of measured op latencies)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        return run_all(args) if args.workload == "all" else run_workload(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
