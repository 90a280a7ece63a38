"""Digest of the CLI's output on fixed configs: the byte gate of a refactor.

Runs every golden case (golden/cases.json) and the first --ops operations
of each benchmark workload (benchmarks/workloads.py) at each --seeds seed,
all in-process through mzsloppy.cli.main, from the src/ of the checkout
this file sits in. For each run it prints one line: the case, then the
sha256 of its exit code, stdout, stderr and --out file. The temporary
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
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]
os.environ.pop("MZSLOPPY_THREADS", None)  # a scan's workers come from its config

import workloads  # noqa: E402
from mzsloppy.cli import main  # noqa: E402


# what --dump writes per run, in the order of run()'s record
PARTS = ("exit", "stdout", "stderr", "out")

# the largest relative move --compare allows: round-off in the last digits
TOLERANCE = 1e-12


def run(argv: list, work: Path, out: Path | None = None) -> str:
    """One main(argv) call's exit code, stdout, stderr and out file, as the
    JSON text of that list, with `work` written as <work>."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        with warnings.catch_warnings():
            warnings.simplefilter("always")  # every warning shows, not only a location's first
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    written = out.read_text(encoding="utf-8") if out is not None and out.exists() else ""
    return json.dumps([code, stdout.getvalue(), stderr.getvalue(), written]).replace(str(work), "<work>")


def digest(record: str) -> str:
    return hashlib.sha256(record.encode()).hexdigest()


def dump(record: str, where: Path) -> None:
    """Write each part of a run's record as text: where/exit, where/stdout, ..."""
    where.mkdir(parents=True)
    for part, text in zip(PARTS, json.loads(record)):
        (where / part).write_text(str(text), encoding="utf-8")


def cases(work: Path, ops: int, seeds: list):
    """(case, argv, out file) of each run, in order."""
    golden = json.loads((ROOT / "tests" / "golden" / "cases.json").read_text())
    for name, case in golden.items():
        config = work / f"golden_{name}.json"
        config.write_text(json.dumps(case["config"]), encoding="utf-8")
        yield f"golden/{name}", [case["command"], "--config", str(config),
                                 "--format", case["format"]], None
    for seed in seeds:
        for name in workloads.WORKLOADS:
            where = work / f"{name}_{seed}"
            where.mkdir()
            for k, op in enumerate(workloads.build(name, seed, where)[:ops]):
                yield f"{name}/seed{seed}/op{k}", op.argv, op.out


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
        for case, argv_, out in cases(work, args.ops, args.seeds):
            record = run(argv_, work, out)
            if args.dump:
                dump(record, args.dump / case)
            print(case, digest(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main_digest())
