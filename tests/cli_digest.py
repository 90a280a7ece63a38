"""Digest of the CLI's output on fixed configs: the byte gate of a refactor.

Runs every golden case (golden/cases.json), the first --ops operations of
each benchmark workload (benchmarks/workloads.py) at each --seeds seed and
each failing input of ERRORS, all in-process through mzsloppy.cli.main,
from the src/ of the checkout this file sits in. For each run it prints one
line: the case, then the sha256 of its exit code, stdout, stderr and --out
file; an exception that escapes main is recorded, as its type and message,
in place of the exit code. The temporary
directory that holds the configs is written as <work> before hashing, so
the lines do not depend on where it was made. Two checkouts give the same
CLI output on these configs exactly when

    python tests/cli_digest.py > a.txt     (in each checkout)
    diff a.txt b.txt

shows no line. Where a change is meant to move round-off, the drift
report says where and by how much:

    python tests/cli_digest.py --dump DIR_A    (in each checkout)
    python tests/cli_digest.py --compare DIR_A DIR_B

--dump also writes each run's exit code, stdout, stderr and --out file
as text under DIR/<case>/. --compare parses both sides (JSON by path, any
other text as CSV fields) and prints, per case, each path whose floats
differ, with the count and the largest relative move |a - b| / max(|a|, |b|)
(the records of a list, such as a scan's rows, share one path). It exits 1 on any difference that is not a float
moving, on a flip of a zero's sign, and on a move beyond TOLERANCE
(1e-12 relative). pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import re
import sys
import tempfile
import unittest.mock
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]
os.environ.pop("MZSLOPPY_THREADS", None)  # a scan's workers come from its config

import workloads  # noqa: E402
from mzsloppy import closed_forms  # noqa: E402
from mzsloppy.cli import main  # noqa: E402


# what --dump writes per run, in the order of run()'s record
PARTS = ("exit", "stdout", "stderr", "out")

# the largest relative move --compare allows: round-off in the last digits
TOLERANCE = 1e-12


def run(argv: list, work: Path, out: Path | None = None, context=None) -> str:
    """One main(argv) call's exit code, stdout, stderr and out file, as the
    JSON text of that list, with `work` written as <work>; the call runs
    inside `context` where one is given."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        with warnings.catch_warnings(), context or contextlib.nullcontext():
            warnings.simplefilter("always")  # every warning shows, not only a location's first
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a traceback, from the command line
                code = f"uncaught {type(exc).__name__}: {exc}"
    written = out.read_text(encoding="utf-8") if out is not None and out.exists() else ""
    return json.dumps([code, stdout.getvalue(), stderr.getvalue(), written]).replace(str(work), "<work>")


def digest(record: str) -> str:
    return hashlib.sha256(record.encode()).hexdigest()


def dump(record: str, where: Path) -> None:
    """Write each part of a run's record as text: where/exit, where/stdout, ..."""
    where.mkdir(parents=True)
    for part, text in zip(PARTS, json.loads(record)):
        (where / part).write_text(str(text), encoding="utf-8")


# -- the failing inputs --------------------------------------------------------

_MODEL = dict.fromkeys(("r", "q", "beta", "theta", "phi", "x", "alpha", "lam1", "lam2"), 0.3)
_AXIS = {"name": "theta", "values": [0.0, 1.0]}
_SCAN = {"model": _MODEL, "objective": {"kind": "Q22"}, "axes": [_AXIS]}
_EYE = [[1.0, 0.0], [0.0, 1.0]]
_WEIGHTED = {"kind": "weighted_CQ_inverse", "weight": _EYE}


def _model(**fields) -> dict:
    return {**_MODEL, **fields}


def _scan(**fields) -> dict:
    return {**_SCAN, **fields}


NO_FILE = object()  # --config names a file that does not exist
NO_ARG = object()  # no --config at all

# (case, command line with {work} for the temporary directory, config):
# the config file holds the JSON of the config, or the config itself where
# it is text. One case per error text the CLI can print, the environment
# variable's aside (this script unsets it).
ERRORS = [
    ("usage/no_command", "", NO_ARG),
    ("usage/unknown_command", "transmogrify", {}),
    ("usage/no_config", "eval", NO_ARG),
    ("usage/bad_format", "eval --format xml", {"model": _MODEL}),
    ("usage/unknown_argument", "eval --bogus", {"model": _MODEL}),
    ("usage/csv_eval", "eval --format csv", {"model": _MODEL}),
    ("usage/csv_optimize", "optimize --format csv", {"r": 0.5, "x": 0.5}),
    ("usage/csv_compare", "compare --format csv", {}),
    ("file/missing", "eval", NO_FILE),
    ("file/invalid", "eval", "{not json"),
    ("file/empty", "eval", ""),
    ("file/deep_arrays", "eval", "[" * 100_000 + "]" * 100_000),
    ("file/deep_objects", "compare", '{"r": ' * 100_000 + "0" + "}" * 100_000),
    ("file/array", "eval", [1, 2]),
    ("file/number", "scan", 1),
    ("file/null", "compare", None),
    ("file/out_into_missing_directory", "eval --out {work}/absent/out.json", {"model": _MODEL}),
    ("eval/unknown_field", "eval", {"model": _MODEL, "seed": 1}),
    ("eval/missing_model", "eval", {}),
    ("eval/model_not_object", "eval", {"model": [0.3]}),
    ("eval/model_unknown_field", "eval", {"model": _model(waist=1.0)}),
    ("eval/model_missing_field", "eval", {"model": {"r": 0.3}}),
    ("eval/model_field_bool", "eval", {"model": _model(r=True)}),
    ("eval/model_field_string", "eval", {"model": _model(phi="0.3")}),
    ("eval/model_field_huge_integer", "eval", {"model": _model(r=10**400)}),
    ("eval/model_field_nan", "eval", {"model": _model(x=math.nan)}),
    ("eval/model_field_infinite", "eval", {"model": _model(q=math.inf)}),
    ("eval/model_field_negative", "eval", {"model": _model(x=-0.5)}),
    ("eval/moments_overflow", "eval", {"model": _model(r=400.0)}),
    ("eval/weight_not_2x2", "eval", {"model": _MODEL, "weight": [[1.0, 0.0]]}),
    ("eval/weight_entry_string", "eval", {"model": _MODEL, "weight": [[1.0, "0"], [0.0, 1.0]]}),
    ("eval/weight_not_symmetric", "eval", {"model": _MODEL, "weight": [[1.0, 0.5], [0.0, 1.0]]}),
    ("eval/weight_not_psd", "eval", {"model": _MODEL, "weight": [[1.0, 0.0], [0.0, -1.0]]}),
    ("eval/weight_nan", "eval", {"model": _MODEL, "weight": [[math.nan, 0.0], [0.0, 1.0]]}),
    ("eval/repetitions_zero", "eval", {"model": _MODEL, "weight": _EYE, "repetitions": 0}),
    ("eval/repetitions_fraction", "eval", {"model": _MODEL, "weight": _EYE, "repetitions": 2.5}),
    ("eval/repetitions_bool", "eval", {"model": _MODEL, "weight": _EYE, "repetitions": True}),
    ("eval/repetitions_without_weight", "eval", {"model": _MODEL, "repetitions": 2}),
    ("eval/threshold_string", "eval", {"model": _MODEL, "threshold": "1e-3"}),
    ("eval/threshold_zero", "eval", {"model": _MODEL, "threshold": 0}),
    ("eval/sloppy", "eval", {"model": _model(x=0.0)}),
    ("scan/unknown_field", "scan", _scan(seed=1)),
    ("scan/missing_model", "scan", {"objective": {"kind": "Q22"}, "axes": [_AXIS]}),
    ("scan/missing_objective", "scan", {"model": _MODEL, "axes": [_AXIS]}),
    ("scan/missing_axes", "scan", {"model": _MODEL, "objective": {"kind": "Q22"}}),
    ("scan/model_not_object", "scan", _scan(model="r=0.3")),
    ("scan/objective_not_object", "scan", _scan(objective="Q22")),
    ("scan/objective_unknown_field", "scan", _scan(objective={"kind": "Q22", "seed": 1})),
    ("scan/objective_no_kind", "scan", _scan(objective={"layer": "numeric"})),
    ("scan/objective_kind_not_string", "scan", _scan(objective={"kind": 22})),
    ("scan/objective_unknown_kind", "scan", _scan(objective={"kind": "Q33"})),
    ("scan/objective_layer_not_string", "scan", _scan(objective={"kind": "Q22", "layer": 1})),
    ("scan/objective_unknown_layer", "scan", _scan(objective={"kind": "Q22", "layer": "Numeric"})),
    ("scan/objective_weight_unread", "scan", _scan(objective={"kind": "Q22", "weight": _EYE})),
    ("scan/objective_weight_missing", "scan", _scan(objective={"kind": "weighted_CQ_inverse"})),
    ("scan/objective_weight_not_2x2", "scan", _scan(objective={**_WEIGHTED, "weight": [1.0]})),
    ("scan/objective_repetitions_unread", "scan", _scan(objective={"kind": "Q22", "repetitions": 5})),
    ("scan/objective_repetitions_zero", "scan", _scan(objective={**_WEIGHTED, "repetitions": 0})),
    ("scan/axes_empty", "scan", _scan(axes=[])),
    ("scan/axes_not_array", "scan", _scan(axes={"name": "theta"})),
    ("scan/axis_not_object", "scan", _scan(axes=["theta"])),
    ("scan/axis_unknown_field", "scan", _scan(axes=[{**_AXIS, "step": 1}])),
    ("scan/axis_no_name", "scan", _scan(axes=[{"values": [0.0]}])),
    ("scan/axis_name_not_string", "scan", _scan(axes=[{"name": 1, "values": [0.0]}])),
    ("scan/axis_no_values", "scan", _scan(axes=[{"name": "theta"}])),
    ("scan/axis_values_not_array", "scan", _scan(axes=[{"name": "theta", "values": 0.5}])),
    ("scan/axis_value_not_number", "scan", _scan(axes=[{"name": "theta", "values": [None]}])),
    ("scan/axis_values_empty", "scan", _scan(axes=[{"name": "theta", "values": []}])),
    ("scan/axis_value_infinite", "scan", _scan(axes=[{"name": "theta", "values": [math.inf]}])),
    ("scan/axis_unknown_name", "scan", _scan(axes=[{"name": "waist", "values": [0.0]}])),
    ("scan/axes_repeated", "scan", _scan(axes=[_AXIS, _AXIS])),
    ("scan/workers_zero", "scan", _scan(workers=0)),
    ("scan/workers_fraction", "scan", _scan(workers=1.5)),
    ("scan/workers_bool", "scan", _scan(workers=True)),
    ("scan/workers_string", "scan", _scan(workers="2")),
    ("optimize/custom_unknown_field", "optimize", _scan(seed=1)),
    ("optimize/custom_missing_axes", "optimize", {"model": _MODEL, "objective": {"kind": "Q22"}}),
    ("optimize/custom_all_rows_fail", "optimize",
     _scan(axes=[{"name": "r", "values": [-1.0, 400.0]}])),
    ("optimize/custom_all_rows_sloppy", "optimize",
     _scan(model=_model(x=0.0), objective={"kind": "minus_R", "layer": "numeric"})),
    ("optimize/find_known_unknown_field", "optimize", {"r": 0.5, "x": 0.5, "seed": 1}),
    ("optimize/find_known_missing_r", "optimize", {"x": 0.5}),
    ("optimize/find_known_missing_x", "optimize", {"r": 0.5}),
    ("optimize/find_known_r_not_number", "optimize", {"r": "0.5", "x": 0.5}),
    ("optimize/find_known_x_not_number", "optimize", {"r": 0.5, "x": None}),
    ("optimize/find_known_q_not_number", "optimize", {"r": 0.5, "x": 0.5, "q": [0.0]}),
    ("optimize/find_known_negative_r", "optimize", {"r": -0.5, "x": 0.5}),
    ("optimize/find_known_negative_x", "optimize", {"r": 0.5, "x": -0.5}),
    ("optimize/find_known_negative_q", "optimize", {"r": 0.5, "x": 0.5, "q": -1.0}),
    ("optimize/find_known_overflow", "optimize", {"r": 0.5, "x": 0.5, "q": 1e154}),
    ("compare/unknown_field", "compare", {"r_values": [0.5]}),
    ("compare/r_not_number", "compare", {"r": "0.5"}),
    ("compare/r_negative", "compare", {"r": -0.5}),
    ("compare/q_values_empty", "compare", {"q_values": []}),
    ("compare/phi_values_empty", "compare", {"phi_values": []}),
    ("compare/x_values_not_array", "compare", {"x_values": 0.5}),
    ("compare/value_not_number", "compare", {"q_values": [0.0, "1"]}),
    ("compare/moments_overflow", "compare", {"r": 0.5, "x_values": [0.0, 400.0]}),
    # the first failing grid row in (q, phi, x) order names the error
    ("compare/overflow_before_negative_x", "compare", {"x_values": [400.0, -1.0]}),
    ("compare/q_nan_after_good_row", "compare", {"q_values": [0.0, math.nan]}),
    ("compare/negative_x_in_first_phi_block", "compare",
     {"phi_values": [0.0, 0.3], "x_values": [0.5, -1.0]}),
    ("compare/q_huge_integer", "compare", {"q_values": [0.0, 10**400]}),
]


def error_cases(work: Path):
    """(case, argv, out file, context) of each ERRORS run, then of a scan
    whose grid is too large to allocate. That failure is raised by a
    stand-in for closed_forms.layer_matrices, as numpy words it, so that it
    does not depend on how the machine overcommits memory."""
    for k, (case, line, config) in enumerate(ERRORS):
        path = work / f"error_{k}.json"
        if isinstance(config, str):
            path.write_text(config, encoding="utf-8")
        elif config is not NO_FILE and config is not NO_ARG:
            path.write_text(json.dumps(config), encoding="utf-8")
        argv = line.format(work=work).split() + ([] if config is NO_ARG else ["--config", str(path)])
        yield f"error/{case}", argv, None, None
    path = work / "error_allocation.json"
    huge = [{"name": name, "values": [0.0] * 10_000} for name in ("theta", "phi", "alpha")]
    path.write_text(json.dumps(_scan(axes=huge)), encoding="utf-8")
    failure = MemoryError("Unable to allocate 7.28 TiB for an array with shape "
                          "(10000, 10000, 10000) and data type float64")
    yield ("error/scan/allocation_failure", ["scan", "--config", str(path)], None,
           unittest.mock.patch.object(closed_forms, "layer_matrices", side_effect=failure))


def cases(work: Path, ops: int, seeds: list):
    """(case, argv, out file, context) of each run, in order: see run()."""
    golden = json.loads((ROOT / "tests" / "golden" / "cases.json").read_text())
    for name, case in golden.items():
        config = work / f"golden_{name}.json"
        config.write_text(json.dumps(case["config"]), encoding="utf-8")
        yield f"golden/{name}", [case["command"], "--config", str(config),
                                 "--format", case["format"]], None, None
    for seed in seeds:
        for name in workloads.WORKLOADS:
            where = work / f"{name}_{seed}"
            where.mkdir()
            for k, op in enumerate(workloads.build(name, seed, where)[:ops]):
                yield f"{name}/seed{seed}/op{k}", op.argv, op.out, None
    yield from error_cases(work)


# -- the drift report ---------------------------------------------------------

def _leaves(text: str):
    """(path, value) of each leaf of one output text: a JSON document's
    values by path, else each CSV field as [*].<header field>, a field that
    reads as a number as a float."""
    try:
        doc = json.loads(text)
    except ValueError:
        rows = list(csv.reader(io.StringIO(text)))
        header = rows[0] if rows else []
        yield from ((f"$.header[{k}]", field) for k, field in enumerate(header))
        for row in rows[1:]:
            for k, field in enumerate(row):
                name = f"$[*].{header[k] if k < len(header) else k}"
                try:
                    yield name, float(field)
                except ValueError:
                    yield name, field
        return
    yield from _json_leaves(doc, "$")


def _json_leaves(node, path: str):
    """Records (a list's dicts) read as [*], so a scan's rows share a path;
    a matrix's entries keep their indices."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _json_leaves(value, f"{path}.{key}")
    elif isinstance(node, list):
        for k, value in enumerate(node):
            yield from _json_leaves(value, f"{path}[{'*' if isinstance(value, dict) else k}]")
    else:
        yield path, node


def _relative_move(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    return abs(a - b) / max(abs(a), abs(b))  # inf or NaN where either is not finite


def drift(a: str, b: str):
    """({path: (floats moved, largest relative move)}, [failures]) between
    two output texts."""
    moved, failures = {}, []
    left, right = list(_leaves(a)), list(_leaves(b))
    if [path for path, _ in left] != [path for path, _ in right]:
        return moved, ["the outputs differ in shape"]
    for (path, x), (_, y) in zip(left, right):
        if type(x) is not float or type(y) is not float:
            if type(x) is not type(y) or x != y:
                failures.append(f"{path}: {x!r} -> {y!r}")
            continue
        if x == 0.0 == y and math.copysign(1, x) != math.copysign(1, y):
            failures.append(f"{path}: the sign of zero flips, {x!r} -> {y!r}")
        move = _relative_move(x, y)
        if move != 0.0:
            count, largest = moved.get(path, (0, 0.0))
            moved[path] = count + 1, max(largest, move)
    return moved, failures


def _natural(name: str) -> list:
    return [int(part) if part.isdigit() else part for part in re.split(r"(\d+)", name)]


def compare(a: Path, b: Path) -> int:
    """Print the drift report of two --dump directories; 1 on a failure."""
    runs = [sorted(str(p.parent.relative_to(d)) for p in d.rglob("exit")) for d in (a, b)]
    failed, moved_cases, largest = False, 0, 0.0
    for case in sorted(set(runs[0]) | set(runs[1]), key=_natural):
        if case not in runs[0] or case not in runs[1]:
            print(f"{case}: FAIL: only in {a if case in runs[0] else b}")
            failed = True
            continue
        moved, failures = {}, []
        for part in PARTS:
            texts = [(d / case / part).read_text(encoding="utf-8") for d in (a, b)]
            if texts[0] != texts[1]:
                part_moved, part_failures = drift(*texts)
                moved.update((f"{part}:{path}", v) for path, v in part_moved.items())
                failures += [f"{part}:{failure}" for failure in part_failures]
        if not moved and not failures:
            continue
        moved_cases += bool(moved)
        case_largest = max((move for _, move in moved.values()), default=0.0)
        largest = max(largest, case_largest)
        print(f"{case}: {sum(count for count, _ in moved.values())} floats moved, "
              f"largest {case_largest:.3g} relative")
        for path, (count, move) in moved.items():
            flag = "  FAIL: beyond the tolerance" if not move <= TOLERANCE else ""
            print(f"  {path}  {count} moved, largest {move:.3g}{flag}")
            failed |= bool(flag)
        for failure in failures:
            print(f"  FAIL: {failure}")
        failed |= bool(failures)
    total = len(set(runs[0]) | set(runs[1]))
    print(f"{total} runs, {moved_cases} with moved floats, largest move {largest:.3g} relative, "
          f"{'FAILED' if failed else 'within'} tolerance {TOLERANCE:g}")
    return int(failed)


def main_digest(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ops", type=int, default=24, help="operations per workload and seed")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--dump", type=Path, metavar="DIR",
                        help="also write each run's output text under DIR/<case>/")
    parser.add_argument("--compare", type=Path, nargs=2, metavar=("DIR_A", "DIR_B"),
                        help="run nothing: print the drift report of two --dump directories")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for case, argv_, out, context in cases(work, args.ops, args.seeds):
            record = run(argv_, work, out, context)
            if args.dump:
                dump(record, args.dump / case)
            print(case, digest(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main_digest())
