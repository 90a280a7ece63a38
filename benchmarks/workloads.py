"""Seeded inputs and output checks for the benchmark workloads.

Each workload is a list of CLI operations. An operation is one
``mzsloppy.cli.main`` call on a JSON config written here in set-up, and
a check of its exit code and output file. Inputs depend only on the seed.
The checks use invariants of the engine, not golden outputs, so they keep
holding when the numeric coefficients change.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import random
from pathlib import Path

import numpy as np

from mzsloppy import optimize
from mzsloppy.exceptions import SloppyModelError
from mzsloppy.model import ModelConfig

WORKLOADS = ("scan_numeric", "scan_closed_form", "eval", "compare", "optimize")

# scan grid: theta x phi x alpha x x x q = 4 * 4 * 4 * 4 * 2 = 512 points
SCAN_SHAPE = (("theta", 4), ("phi", 4), ("alpha", 4), ("x", 4), ("q", 2))
SCAN_POOL = 8  # distinct scan configs per run, used in turn
SCAN_SAMPLE = 4  # rows per scan recomputed through optimize.objective_value
EVAL_POOL = 256
OPTIMIZE_POOL = 64
OPTIMIZE_BLOCK = 8

TWO_PI = 2.0 * math.pi


@dataclasses.dataclass
class Op:
    """One CLI call and the check of what it wrote."""

    argv: list
    out: Path
    points: int  # model configurations the call answers for
    check: object  # (exit_code, payload) -> problem string or None

    def verify(self, exit_code) -> str | None:
        try:
            payload = json.loads(self.out.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            return f"unreadable output {self.out.name}: {exc}"
        try:
            return self.check(exit_code, payload)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            return f"malformed output {self.out.name}: {exc!r}"


def _op(command: str, work: Path, tag: str, config, points: int, check) -> Op:
    cfg = work / f"{tag}.json"
    cfg.write_text(json.dumps(config), encoding="utf-8")
    out = work / f"{tag}.out.json"
    argv = [command, "--config", str(cfg), "--out", str(out)]
    return Op(argv=argv, out=out, points=points, check=check)


def build(name: str, seed: int, work: Path) -> list[Op]:
    """Write the seeded configs of a workload into `work`; return its ops."""
    rng = random.Random(f"{name}:{seed}")
    if name == "scan_numeric":
        return [_scan_op(rng, work, i, "numeric", None) for i in range(SCAN_POOL)]
    if name == "scan_closed_form":
        return [_scan_op(rng, work, i, "closed_form", 2) for i in range(SCAN_POOL)]
    if name == "eval":
        return [_eval_op(rng, work, i) for i in range(EVAL_POOL)]
    if name == "compare":
        return [_op("compare", work, "compare", {}, 27, _check_compare)]
    if name == "optimize":
        return _optimize_ops(rng, work)
    raise ValueError(f"unknown workload {name!r}")


# -- scan ----------------------------------------------------------------


def _sorted_draws(rng, n: int, lo: float, hi: float) -> list:
    return sorted(rng.uniform(lo, hi) for _ in range(n))


def _scan_op(rng, work: Path, index: int, layer: str, workers) -> Op:
    # every gate active: nonzero squeezing, displacement and both phases
    model = {
        "r": rng.uniform(0.3, 0.8),
        "q": rng.uniform(0.2, 0.8),
        "beta": rng.uniform(0.1, 1.5),
        "theta": 0.0,
        "phi": 0.0,
        "x": 0.5,
        "alpha": 0.0,
        "lam1": rng.uniform(0.05, 0.5),
        "lam2": rng.uniform(0.05, 0.5),
    }
    ranges = {
        "theta": (0.0, math.pi),
        "phi": (0.0, math.pi / 2),
        "alpha": (0.0, TWO_PI),
        "x": (0.1, 1.0),
        "q": (0.1, 1.0),
    }
    axes = []
    for axis, n in SCAN_SHAPE:
        if axis == "x":
            # x = 0 makes Q singular: that slice is the scan's error rows
            values = [0.0] + _sorted_draws(rng, n - 1, *ranges[axis])
        else:
            values = _sorted_draws(rng, n, *ranges[axis])
        axes.append({"name": axis, "values": values})
    config = {"model": model, "objective": {"kind": "minus_R", "layer": layer}, "axes": axes}
    if workers is not None:
        config["workers"] = workers
    points = math.prod(n for _, n in SCAN_SHAPE)
    sample = random.Random(rng.random()).sample(range(points), SCAN_SAMPLE)
    return _op("scan", work, f"scan{index}", config, points, _scan_check(config, sample))


def _scan_check(config: dict, sample: list):
    names = [axis["name"] for axis in config["axes"]]
    expected_points = list(itertools.product(*(axis["values"] for axis in config["axes"])))
    base = ModelConfig(**config["model"])
    objective = optimize.Objective(**config["objective"])

    def check(exit_code, payload):
        if exit_code != 0:
            return f"scan exit code {exit_code}"
        rows = payload["rows"]
        if len(rows) != len(expected_points):
            return f"scan has {len(rows)} rows, grid has {len(expected_points)}"
        points = [tuple(row["point"][n] for n in names) for row in rows]
        if points != expected_points:
            return "scan rows are not the grid product in lexicographic order"
        for point, row in zip(points, rows):
            on_slice = point[names.index("x")] == 0.0
            if (row["error"] is not None) != on_slice or (row["value"] is None) != on_slice:
                return f"error rows differ from the x = 0 slice at {point}"
        finite = [row["value"] for row in rows if row["value"] is not None]
        best = payload["best"]
        if best is None or best["value"] != max(finite):
            return "scan best is not the maximum of the finite rows"
        for index in sample:
            config_at = dataclasses.replace(base, **rows[index]["point"])
            try:
                value = optimize.objective_value(config_at, objective)
            except SloppyModelError:
                value = None
            got = rows[index]["value"]
            if (value is None) != (got is None) or (
                value is not None and not math.isclose(got, value, rel_tol=1e-9)
            ):
                return f"scan row {index} is {got}, objective_value gives {value}"
        return None

    return check


# -- eval ----------------------------------------------------------------


def _eval_op(rng, work: Path, index: int) -> Op:
    model = {
        "r": rng.uniform(0.1, 1.0),
        "q": rng.uniform(0.0, 1.0),
        "beta": rng.uniform(0.0, TWO_PI),
        "theta": rng.uniform(0.0, math.pi),
        "phi": rng.uniform(0.0, math.pi / 2),
        "x": rng.uniform(0.1, 1.0),
        "alpha": rng.uniform(0.0, TWO_PI),
        "lam1": rng.uniform(0.0, math.pi),
        "lam2": rng.uniform(0.0, math.pi),
    }
    a, c = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
    b = rng.uniform(-0.5, 0.5) * math.sqrt(a * c)
    config = {"model": model, "weight": [[a, b], [b, c]], "repetitions": rng.randint(1, 100)}
    return _op("eval", work, f"eval{index}", config, 1, _check_eval)


def _check_eval(exit_code, payload):
    sloppy = payload["sloppiness"]["sloppy"]
    if exit_code != (2 if sloppy else 0):
        return f"eval exit code {exit_code} with sloppy={sloppy}"
    if payload["physicality"]["classification"] != "pure":
        return f"eval state is {payload['physicality']['classification']}"
    q = np.array(payload["information_matrix"])
    if not np.array_equal(q, q.T):
        return "eval information matrix is not symmetric"
    if np.min(np.linalg.eigvalsh(q)) < -1e-9 * max(1.0, float(np.max(np.abs(q)))):
        return "eval information matrix is not positive semidefinite"
    if "scalar_bounds" not in payload:
        return "eval has no scalar bounds for its weight"
    return None


# -- compare -------------------------------------------------------------


def _check_compare(exit_code, payload):
    if exit_code != 0:
        return f"compare exit code {exit_code}"
    summary = payload["summary"]
    if summary["record_count"] != 108 or len(payload["records"]) != 108:
        return f"compare has {summary['record_count']} records, expected 108"
    residual = summary["calibration_max_residual"]
    if residual is None or not residual < 1e-8:
        return f"compare calibration residual {residual}"
    return None


# -- optimize ------------------------------------------------------------


def _optimize_ops(rng, work: Path) -> list[Op]:
    # Consecutive blocks of Latin-hypercube draws of (r, x): any run covers
    # [0.1, 1]^2 evenly, so the latency mix, which depends on (r, x), is
    # alike across seeds however many ops the run gets through.
    n = OPTIMIZE_BLOCK
    ops = []
    for block in range(OPTIMIZE_POOL // n):
        r_strata, x_strata = rng.sample(range(n), n), rng.sample(range(n), n)
        for i in range(n):
            r = 0.1 + 0.9 * (r_strata[i] + rng.random()) / n
            x = 0.1 + 0.9 * (x_strata[i] + rng.random()) / n
            q = 0.0 if i % 2 == 0 else 0.5
            config = {"r": r, "x": x, "q": q}
            tag = f"opt{block * n + i}"
            ops.append(_op("optimize", work, tag, config, 1, _check_optimize(q)))
    return ops


def _check_optimize(q: float):
    def check(exit_code, payload):
        if exit_code != 0:
            return f"optimize exit code {exit_code}"
        if payload["optimal"]["label"] != "optimal":
            return f"optimize optimal label {payload['optimal']['label']!r}"
        if q == 0.0 and payload["maximum"]["label"] != "maximum":
            return f"optimize maximum label {payload['maximum']['label']!r} at q = 0"
        return None

    return check
