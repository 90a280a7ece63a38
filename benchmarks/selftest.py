"""Self-test of the benchmark's tracing wrappers and metric lists.

Usage, from the repository root:

    python3 benchmarks/selftest.py

On a small traced run of every workload it checks that:
- while the tracer is installed, every binding of a traced function in the
  package (module attributes and dict entries) holds the wrapper;
- after uninstalling, every one of those bindings is the original
  function object again and no wrapper is left anywhere in the package;
- per-layer call counts follow tracing.LAYERS: zero on each workload in
  `zero_on`, nonzero on each workload named in `moves`;
- spans on scan worker threads are parented to a grid_scan span;
- BENCHMARK.json lists exactly the metrics run.py and tracing.py report.
It exits 0 when all of these hold and 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run  # pins the BLAS threads before numpy loads

cli = run._import_program()

import tracing  # noqa: E402
import workloads  # noqa: E402

# operations per workload for the small traced run
SMALL_RUN = {"scan_numeric": 1, "scan_closed_form": 2, "eval": 3, "compare": 1, "optimize": 1}


def all_bindings() -> list:
    """(container, key, original) for every binding of a traced function."""
    return [
        (container, key, original)
        for _, original in tracing.Tracer.traced_functions()
        for container, key in tracing.Tracer.bindings(original)
    ]


def check_bindings(found: list, installed: bool) -> list:
    problems = []
    for container, key, original in found:
        if isinstance(container, dict):
            value, where = container[key], f"dict[{key!r}]"
        else:
            value, where = getattr(container, key), f"{container.__name__}.{key}"
        if installed and not getattr(value, "_bench_traced", False):
            problems.append(f"{where} is not wrapped while tracing")
        if not installed and value is not original:
            problems.append(f"{where} is not the original function after uninstall")
    return problems


def small_run(name: str, work: Path) -> tuple[tracing.Tracer, list]:
    ops = workloads.build(name, 1, work)
    before = all_bindings()
    tracer = tracing.Tracer()
    loop = run.Loop(cli, pause=tracer.paused)
    tracer.install()
    try:
        problems = check_bindings(before, installed=True)
        loop.run_count(ops, SMALL_RUN[name])
    finally:
        tracer.uninstall()
    problems += check_bindings(before, installed=False)
    problems += [f"wrapper left at {where}" for where in tracer.leftover_wrappers()]
    problems += loop.problems
    if tracer.orphan_spans:
        problems.append(f"{tracer.orphan_spans} worker-thread spans without a parent")
    if name == "scan_closed_form" and not tracer.worker_spans:
        problems.append("no worker-thread spans recorded under grid_scan")
    for layer, spec in tracing.LAYERS.items():
        calls = sum(tracer.calls[f"{layer}.{fn}"] for fn in spec["functions"])
        if name in spec["zero_on"] and calls:
            problems.append(f"{layer} has {calls} calls, predicted 0")
        if any(w == name for _, w in spec["moves"]) and not calls:
            problems.append(f"{layer} has no calls, predicted some")
    return tracer, problems


def check_metric_lists() -> list:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    if [m["name"] for m in spec["end_to_end"]] != list(run.END_TO_END):
        problems.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    listed = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    if listed != list(tracing.metric_specs()):
        problems.append("BENCHMARK.json per_layer differs from tracing.metric_specs()")
    if [w["name"] for w in spec["workloads"]] != list(workloads.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    return problems


def main() -> int:
    failures = check_metric_lists()
    work = Path(tempfile.mkdtemp(prefix=".bench_work-", dir=run.ROOT))
    try:
        for name in workloads.WORKLOADS:
            tracer, problems = small_run(name, work)
            print(f"{name:<17} {sum(tracer.calls.values()):>7} spans  {'ok' if not problems else 'FAILED'}")
            failures += [f"{name}: {p}" for p in problems]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for failure in failures:
        print(f"  {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
