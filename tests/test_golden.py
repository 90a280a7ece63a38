"""Golden CLI outputs: fixed configs whose output must not change.

Each case in golden/cases.json names a subcommand, an output format and a
config; golden/<case>.<format> holds the output the case gave when it was
frozen, and the case's exit code is stored beside its config. Both outputs
are parsed before they are compared: keys, strings, ints, bools and nulls
must be equal, floats equal to a relative 1e-12 (csv cells that read as
numbers count as floats). A float within 1e-13 of its golden value also
matches: several outputs are round-off around zero (a worst-case
quantumness of 3e-17, the determinant of a singular matrix), whose digits
change with the BLAS build. The bytes of each JSON output are also pinned:
they must be the json.dumps of their own parsed values, and the CLI's JSON
writer must give the json.dumps of each JSON case's payload with its table
(scan rows, compare records) listed as dicts. To refreeze after a
deliberate output change, run

    PYTHONPATH=src python tests/test_golden.py

It rewrites only the files whose case no longer matches them.
"""

import contextlib
import copy
import csv
import functools
import io
import json
import math
import operator
import os
import sys
import tempfile
from pathlib import Path

import pytest

from listing import listed_payload
from mzsloppy.cli import _RUNNERS, THREADS_ENV_VAR, _json_text, main

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())
FLOAT_RTOL = 1e-12
FLOAT_ATOL = 1e-13


def run_case(case: dict, work: Path, *extra: str) -> tuple[int, str]:
    config = work / "config.json"
    config.write_text(json.dumps(case["config"]))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([case["command"], "--config", str(config), "--format", case["format"],
                     *extra])
    return code, out.getvalue()


def parse(text: str, fmt: str):
    if fmt == "json":
        return json.loads(text)
    return [[_cell(c) for c in row] for row in csv.reader(io.StringIO(text))]


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def mismatches(got, want, where="$") -> list[str]:
    """Paths at which two parsed outputs differ."""
    if isinstance(want, float) and isinstance(got, float):
        if got == want or math.isclose(got, want, rel_tol=FLOAT_RTOL, abs_tol=FLOAT_ATOL):
            return []
        return [f"{where}: {got!r} != {want!r}"]
    if type(got) is not type(want):
        return [f"{where}: {got!r} != {want!r}"]
    if isinstance(want, dict):
        if got.keys() != want.keys():
            return [f"{where}: keys {sorted(got)} != {sorted(want)}"]
        return [m for k in want for m in mismatches(got[k], want[k], f"{where}.{k}")]
    if isinstance(want, list):
        if len(got) != len(want):
            return [f"{where}: length {len(got)} != {len(want)}"]
        return [
            m for i, (g, w) in enumerate(zip(got, want)) for m in mismatches(g, w, f"{where}[{i}]")
        ]
    return [] if got == want else [f"{where}: {got!r} != {want!r}"]


def test_mismatches_catches_each_kind_of_difference():
    same = {"a": [1.0 + 1e-15, "s", None, True, 2]}
    assert mismatches({"a": [1.0, "s", None, True, 2]}, same) == []
    assert mismatches(3e-17, 0.0) == []
    assert mismatches(1.0, 1.0 + 1e-9)
    assert mismatches(1e-10, 0.0)
    assert mismatches(1, 1.0)
    assert mismatches(True, 1)
    assert mismatches(None, 0.0)
    assert mismatches("a", "b")
    assert mismatches({"a": 1}, {"b": 1})
    assert mismatches([1], [1, 2])
    assert mismatches(float("nan"), 0.0)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, tmp_path, monkeypatch):
    monkeypatch.delenv(THREADS_ENV_VAR, raising=False)
    case = CASES[name]
    code, text = run_case(case, tmp_path)
    assert code == case["exit_code"]
    want = (GOLDEN / f"{name}.{case['format']}").read_text()
    assert mismatches(parse(text, case["format"]), parse(want, case["format"])) == []


@pytest.mark.parametrize(
    "name", sorted(n for n, case in CASES.items() if case["format"] == "json")
)
def test_golden_json_bytes_are_the_json_dumps_of_their_values(name, tmp_path, monkeypatch):
    # the comparison above parses; this pins whitespace and key order too
    monkeypatch.delenv(THREADS_ENV_VAR, raising=False)
    _, text = run_case(CASES[name], tmp_path)
    assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize(
    "name", sorted(n for n, case in CASES.items() if case["format"] == "json")
)
def test_json_writer_is_json_dumps_of_the_listed_payload(name, monkeypatch):
    # the tables _json_text writes itself (scan rows, compare records) against
    # json.dumps of the same payload with them listed as dicts
    monkeypatch.delenv(THREADS_ENV_VAR, raising=False)
    case = CASES[name]
    payload, _ = _RUNNERS[case["command"]](copy.deepcopy(case["config"]))
    listed = listed_payload(payload)
    assert _json_text(payload) == json.dumps(listed, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize(
    "name", sorted(n for n, case in CASES.items() if case["command"] == "scan")
)
def test_scan_out_file_bytes_are_its_stdout(name, tmp_path, monkeypatch):
    monkeypatch.delenv(THREADS_ENV_VAR, raising=False)
    out_path = tmp_path / "out"
    _, text = run_case(CASES[name], tmp_path)
    code, quiet = run_case(CASES[name], tmp_path, "--out", str(out_path))
    assert (code, quiet) == (CASES[name]["exit_code"], "")
    assert out_path.read_bytes() == text.encode()


def refreeze() -> None:
    """Write each case's output as its golden file, except where the file
    still matches it (the same exit code, no mismatches): round-off within
    the tolerances leaves a file as it is."""
    os.environ.pop(THREADS_ENV_VAR, None)
    with tempfile.TemporaryDirectory() as work:
        for name, case in CASES.items():
            code, text = run_case(case, Path(work))
            path = GOLDEN / f"{name}.{case['format']}"
            if code == case.get("exit_code") and path.exists() and not mismatches(
                parse(text, case["format"]), parse(path.read_text(), case["format"])
            ):
                continue
            case["exit_code"] = code
            path.write_text(text)
    (GOLDEN / "cases.json").write_text(json.dumps(CASES, indent=2) + "\n")


def _scaled(text: str, path: tuple, factor: float) -> str:
    """A JSON output with the float at path scaled by factor."""
    values = json.loads(text)
    *keys, last = path
    inner = functools.reduce(operator.getitem, keys, values)
    inner[last] *= factor
    return json.dumps(values, sort_keys=True, indent=2) + "\n"


def test_refreeze_rewrites_only_the_cases_that_no_longer_match(tmp_path, monkeypatch):
    names = ("eval_balanced", "eval_sloppy_weighted", "optimize_r0.5_x0.5_q0.0")
    cases = {name: copy.deepcopy(CASES[name]) for name in names}
    frozen = {name: (GOLDEN / f"{name}.json").read_text() for name in names}
    edits = {
        "eval_balanced": (("information_determinant",), 1 + 1e-14),
        "eval_sloppy_weighted": (("information_matrix", 0, 0), 1 + 1e-14),
        "optimize_r0.5_x0.5_q0.0": (("landmarks", "q22_max"), 1 + 1e-6),
    }
    for name, (path, factor) in edits.items():
        (tmp_path / f"{name}.json").write_text(_scaled(frozen[name], path, factor))
    edited = {name: (tmp_path / f"{name}.json").read_text() for name in names}
    assert all(edited[name] != frozen[name] for name in names)
    cases["eval_sloppy_weighted"]["exit_code"] = 0  # it exits 2
    monkeypatch.setitem(globals(), "GOLDEN", tmp_path)
    monkeypatch.setitem(globals(), "CASES", cases)
    refreeze()
    # round-off within the tolerance stays; a changed value or exit code is rewritten
    assert (tmp_path / "eval_balanced.json").read_text() == edited["eval_balanced"]
    for name in ("eval_sloppy_weighted", "optimize_r0.5_x0.5_q0.0"):
        assert (tmp_path / f"{name}.json").read_text() == run_case(CASES[name], tmp_path)[1]
    assert json.loads((tmp_path / "cases.json").read_text()) == {
        name: CASES[name] for name in names}


if __name__ == "__main__":
    sys.exit(refreeze())
