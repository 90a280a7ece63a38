"""Record the benchmark's baseline and check that it repeats.

Usage, from the repository root:

    python3 benchmarks/baseline.py [--out benchmarks/baseline.json]

For each workload in BENCHMARK.json it runs `run.py` once per seed, in a
fresh process, in SETS sets of RUNS seeds each (set k uses seeds
k*RUNS+1 ...). Per set and end-to-end metric it records every value, the
median and the spread (interquartile distance over the median, as
`statistics.quantiles(values, n=4)` gives the quartiles). It then checks
each spread against the metric's bound in BENCHMARK.json, and each later
set's median against the first set's. One traced run per workload records
the per-layer metrics. The record also names the machine: nproc, Python,
numpy and scipy versions and the git commit of the measured tree. It exits
1 when a check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10  # seeds per set
SETS = 2


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed}: incorrect run\n{proc.stderr}")
    return result


def spread(values: list) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(metric: dict, first: float, later: float) -> float:
    """Relative amount by which `later` is worse than `first`."""
    change = (later - first) / first
    return change if metric["better"] == "lower" else -change


def git_commit() -> str:
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def machine() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "commit": git_commit(),
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=None, help="write the record here as JSON")
    args = parser.parse_args(argv)

    metrics = {m["name"]: m for m in spec["end_to_end"]}
    record = {"machine": machine(), "run_seconds": spec["run_seconds"], "workloads": {}}
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        sets = []
        for k in range(SETS):
            seeds = range(k * RUNS + 1, (k + 1) * RUNS + 1)
            runs = [run_once(spec, workload, seed, 0) for seed in seeds]
            values = {name: [r["metrics"][name]["value"] for r in runs] for name in metrics}
            sets.append({
                "seeds": [seeds.start, seeds.stop - 1],
                "metrics": {
                    name: {"median": statistics.median(v), "spread": spread(v), "values": v}
                    for name, v in values.items()
                },
            })
        entry = {"sets": sets, "checks": []}
        for name, metric in metrics.items():
            first = sets[0]["metrics"][name]
            for k, s in enumerate(sets):
                if s["metrics"][name]["spread"] > metric["bound"]:
                    entry["checks"].append(f"set {k} {name} spread {s['metrics'][name]['spread']:.4f} > bound")
                if k and worse_by(metric, first["median"], s["metrics"][name]["median"]) > metric["bound"]:
                    entry["checks"].append(f"set {k} {name} median worse than set 0 by more than bound")
        traced = run_once(spec, workload, 1, 1)
        entry["per_layer_seed1"] = {k: v["value"] for k, v in traced["metrics"].items()}
        record["workloads"][workload] = entry
        ok = ok and not entry["checks"]
        for name in metrics:
            cells = "  ".join(
                f"median {s['metrics'][name]['median']:.6g} spread {s['metrics'][name]['spread']:.4f}"
                for s in sets
            )
            print(f"{workload:<17} {name:<13} {cells}", flush=True)
        for check in entry["checks"]:
            print(f"{workload:<17} CHECK FAILED: {check}", flush=True)

    text = json.dumps(record, indent=1, sort_keys=True) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
