"""Benchmark of the mzsloppy command line, driven in-process.

Usage, from the repository root:

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is a closed loop with one client: the next `cli.main` call
starts when the previous one has returned and its output has been checked.
Set-up (config generation, imports, a warm-up call, and the `setup_s`
interpreter spawns) happens before the timed region. The last stdout line
is one JSON object with `correct`, `attempted`, `failed` and `metrics`.

--trace 0 reports the end-to-end metrics from an untraced run.
--trace 1 runs a fixed number of operations twice, untraced and then with
every layer function wrapped (see tracing.py), and reports the per-layer
metrics plus the traced/untraced time ratio as tracing overhead.

The host's speed drifts by tens of percent within seconds. So between
operations, outside the timed region, the run also times a fixed reference
computation that the benchmark owns. Each operation's time is scaled by
REFERENCE_NOMINAL_S over the median of the reference samples taken around
it. This gives times at a nominal machine speed. `setup_s` is scaled the
same way by spawns of a reference interpreter (see measure_setup_s). The
raw figures are printed too.
"""

from __future__ import annotations

import os

# Pin BLAS threads before numpy loads: the only extra threads a workload
# may have are the scan's own workers.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("MZSLOPPY_THREADS", None)

import argparse
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_SPAWNS = 7
SETUP_REFERENCE = "import numpy"  # a fresh interpreter's import that src/ does not change
SETUP_REFERENCE_NOMINAL_S = 0.2  # reference spawn time at the nominal machine speed
REFERENCE_NOMINAL_S = 1.5e-3  # reference time at the nominal machine speed
REFERENCE_EVERY_S = 0.05  # busy time between two reference samples
REFERENCE_WINDOW = 3  # samples on each side that set an operation's speed
TAIL_PERCENTILES = (50, 75, 90, 95, 99, 99.5, 99.9)
# operations per traced run: a few seconds each on a 2-core machine today
TRACE_OPS = {"scan_numeric": 4, "scan_closed_form": 12, "eval": 400, "compare": 20, "optimize": 6}

END_TO_END = {
    "setup_s": "s",
    "p50_ms": "ms",
    "points_per_s": "points/s",
    "peak_rss_mb": "MB",
}


def _import_program():
    """Import the package from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    try:
        import mzsloppy.cli
    except ImportError as exc:
        raise SystemExit(f"benchmark: cannot import mzsloppy from {SRC}: {exc}")
    if Path(mzsloppy.cli.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"benchmark: mzsloppy was imported from {mzsloppy.cli.__file__}")
    return mzsloppy.cli


def reference_s() -> float:
    """Time a fixed piece of benchmark-owned work: a Python loop around 4x4
    numpy products and a JSON dump, the mix the engine spends its time on."""
    a = np.eye(4)
    total = 0.0
    start = time.perf_counter()
    for i in range(100):
        total += float(np.trace(a @ a.T + i))
        json.dumps({"i": i, "total": total})
    return time.perf_counter() - start


class Calibration:
    """Reference samples taken between timed operations.

    `scaled` takes a time measured after sample `position` to the nominal
    machine speed, using the samples within REFERENCE_WINDOW of it.
    """

    def __init__(self):
        self.samples = []

    def sample(self) -> int:
        self.samples.append(reference_s())
        return len(self.samples) - 1

    def scaled(self, seconds: float, position: int) -> float:
        near = self.samples[max(0, position - REFERENCE_WINDOW) : position + REFERENCE_WINDOW + 1]
        return seconds * REFERENCE_NOMINAL_S / statistics.median(near)


def spawn_s(code: str, env: dict) -> float:
    """Wall time of a fresh interpreter running `code`."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True)
    return time.perf_counter() - start


def measure_setup_s() -> tuple[float, float]:
    """Median wall time for a fresh interpreter to import mzsloppy.cli, raw
    and at the nominal speed.

    Each import spawn is scaled by the mean of the two SETUP_REFERENCE
    spawns on either side of it. The reference does the same kind of work
    (interpreter start, module loading, shared libraries) but does not see
    src/, so the machine's speed cancels and the program's import cost does
    not.
    """
    program_env = dict(os.environ, PYTHONPATH=str(SRC))
    references = [spawn_s(SETUP_REFERENCE, os.environ)]
    times = []
    for _ in range(SETUP_SPAWNS):
        times.append(spawn_s("import mzsloppy.cli", program_env))
        references.append(spawn_s(SETUP_REFERENCE, os.environ))
    scaled = [
        t * SETUP_REFERENCE_NOMINAL_S * 2 / (references[i] + references[i + 1])
        for i, t in enumerate(times)
    ]
    return statistics.median(times), statistics.median(scaled)


class Loop:
    """Closed-loop runner: latencies, points and failures of the ops it ran."""

    def __init__(self, cli, pause=None):
        self.cli = cli  # cli.main is looked up per call, so a tracer sees it
        self.pause = pause  # context for the checks while a tracer is on
        self.attempted = 0
        self.busy_s = 0.0
        self.latencies = []
        self.points = 0
        self.problems = []
        self.calibration = Calibration()
        self.positions = []  # latest reference sample before each timed op
        self._since_reference = math.inf

    def scaled_latencies(self) -> list:
        """Latencies at the nominal machine speed."""
        return [self.calibration.scaled(t, pos) for t, pos in zip(self.latencies, self.positions)]

    def run_one(self, op, timed: bool = True) -> None:
        if self._since_reference >= REFERENCE_EVERY_S:
            self.calibration.sample()
            self._since_reference = 0.0
        self.attempted += 1
        op.out.unlink(missing_ok=True)  # a failed call must not leave a stale output
        start = time.perf_counter()
        try:
            exit_code = self.cli.main(op.argv)
            problem = None
        except Exception:  # an exception escaping cli.main is a failed op
            exit_code = None
            problem = "exception: " + traceback.format_exc(limit=3)
        elapsed = time.perf_counter() - start
        self._since_reference += elapsed
        if problem is None:
            if self.pause is None:
                problem = op.verify(exit_code)
            else:
                with self.pause():
                    problem = op.verify(exit_code)
        if timed:
            self.busy_s += elapsed
            self.latencies.append(elapsed)
            self.positions.append(len(self.calibration.samples) - 1)
            self.points += op.points
        if problem is not None:
            self.problems.append(f"{op.argv[0]} {op.argv[2]}: {problem}")

    def run_for(self, ops, seconds: float) -> None:
        i = 0
        while self.busy_s < seconds:
            self.run_one(ops[i % len(ops)])
            i += 1

    def run_count(self, ops, count: int) -> None:
        for i in range(count):
            self.run_one(ops[i % len(ops)])

    def finish(self) -> None:
        """Take the reference samples that follow the last operations."""
        for _ in range(REFERENCE_WINDOW):
            self.calibration.sample()


def tail(latencies) -> tuple[float, float, int]:
    """Highest listed percentile with at least ten samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    best = (50, statistics.median(ordered), n - n // 2)
    for p in TAIL_PERCENTILES:
        rank = min(n - 1, int(p / 100 * n))
        beyond = n - rank - 1
        if beyond >= 10:
            best = (p, ordered[rank], beyond)
    return best


def run_untraced(cli, ops, seconds: float) -> tuple[dict, int, list, list]:
    loop = Loop(cli)
    loop.run_one(ops[0], timed=False)  # warm-up
    setup_raw, setup_s = measure_setup_s()
    loop.run_for(ops, seconds)
    loop.finish()
    scaled = loop.scaled_latencies()
    raw = {
        "setup_s": setup_raw,
        "p50_ms": 1e3 * statistics.median(loop.latencies),
        "points_per_s": loop.points / loop.busy_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    values = {
        "setup_s": setup_s,
        "p50_ms": 1e3 * statistics.median(scaled),
        "points_per_s": loop.points / sum(scaled),
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    p, value, beyond = tail(scaled)
    n = len(loop.latencies)
    print(f"  ops {n} in {loop.busy_s:.3f} s busy, failed_fraction {len(loop.problems) / max(n, 1):g} ratio")
    print(f"  {len(loop.calibration.samples)} reference samples")
    for name, entry in metrics.items():
        print(f"  {name:<14} {entry['value']:.6g} {entry['unit']} (raw {raw[name]:.6g})")
    print(f"  tail p{p} {1e3 * value:.6g} ms ({n} samples, {beyond} beyond)")
    return metrics, loop.attempted, loop.problems, []


def run_traced(cli, ops, count: int) -> tuple[dict, int, list, list]:
    import tracing

    plain = Loop(cli)
    plain.run_one(ops[0], timed=False)  # warm-up
    plain.run_count(ops, count)
    plain.finish()
    tracer = tracing.Tracer()
    traced = Loop(cli, pause=tracer.paused)
    tracer.install()
    try:
        traced.run_count(ops, count)
    finally:
        tracer.uninstall()
    traced.finish()
    harness = [f"tracing wrapper left at {where}" for where in tracer.leftover_wrappers()]
    if tracer.orphan_spans:
        harness.append(f"{tracer.orphan_spans} worker-thread spans without a grid_scan parent")
    ratio = sum(traced.scaled_latencies()) / sum(plain.scaled_latencies())
    metrics = tracer.metrics(overhead_ratio=ratio)
    print(f"  ops {count}: untraced {plain.busy_s:.3f} s, traced {traced.busy_s:.3f} s, overhead ratio {ratio:.4f}")
    print(f"  worker-thread spans under grid_scan: {tracer.worker_spans}")
    for name, entry in metrics.items():
        if entry["value"]:
            print(f"  {name:<52} {entry['value']:.6g} {entry['unit']}")
    return metrics, plain.attempted + traced.attempted, plain.problems + traced.problems, harness


def main(argv=None) -> int:
    cli = _import_program()
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    work = Path(tempfile.mkdtemp(prefix=".bench_work-", dir=ROOT))
    try:
        ops = workloads.build(args.workload, args.seed, work)
        print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
        if args.trace:
            run = run_traced(cli, ops, TRACE_OPS[args.workload])
        else:
            run = run_untraced(cli, ops, args.seconds)
        metrics, attempted, op_problems, harness_problems = run
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in op_problems + harness_problems:
        print(f"  FAILED {problem}", file=sys.stderr)
    result = {
        "correct": not (op_problems or harness_problems),
        "attempted": attempted,
        "failed": len(op_problems),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
