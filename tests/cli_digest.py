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

shows no line. pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]
os.environ.pop("MZSLOPPY_THREADS", None)  # a scan's workers come from its config

import workloads  # noqa: E402
from mzsloppy.cli import main  # noqa: E402


def digest(argv: list, work: Path, out: Path | None = None) -> str:
    """The sha256 of one main(argv) call's exit code, stdout, stderr and
    out file, with `work` written as <work>."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        with warnings.catch_warnings():
            warnings.simplefilter("always")  # every warning shows, not only a location's first
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    written = out.read_text(encoding="utf-8") if out is not None and out.exists() else ""
    record = json.dumps([code, stdout.getvalue(), stderr.getvalue(), written])
    return hashlib.sha256(record.replace(str(work), "<work>").encode()).hexdigest()


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


def main_digest(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ops", type=int, default=24, help="operations per workload and seed")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for case, run, out in cases(work, args.ops, args.seeds):
            print(case, digest(run, work, out), flush=True)


if __name__ == "__main__":
    main_digest()
