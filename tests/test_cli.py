"""Command-line driver: config handling, output formats, exit codes."""

import contextlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import mzsloppy
from mzsloppy.cli import THREADS_ENV_VAR, main
from mzsloppy.model import ModelConfig
from mzsloppy.optimize import Objective, objective_value

PI = math.pi


def model_dict(**overrides):
    fields = {k: 0.0 for k in ("r", "q", "beta", "theta", "phi", "x", "alpha",
                               "lam1", "lam2")}
    fields.update(overrides)
    return fields


def write_config(tmp_path, obj, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_python(args):
    """Run python with `args` in a subprocess that imports the same package
    as this test."""
    package_root = str(Path(mzsloppy.__file__).resolve().parents[1])
    path = [package_root] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        timeout=60,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
    )


class TestEval:
    def test_degenerate_model_exits_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"model": model_dict(r=0.5)})
        code, out, err = run_cli(capsys, ["eval", "--config", cfg])
        assert code == 2
        payload = json.loads(out)
        assert payload["schema"] == "mzsloppy.eval/1"
        assert payload["sloppiness"]["sloppy"] is True
        direction = payload["sloppiness"]["null_directions"][0]
        target = [1 / math.sqrt(2), -1 / math.sqrt(2)]
        dist = min(
            max(abs(a - b) for a, b in zip(direction, target)),
            max(abs(a + b) for a, b in zip(direction, target)),
        )
        assert dist < 1e-6
        assert "quantumness" in payload and "error" in payload["quantumness"]

    def test_balanced_configuration_exits_zero(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {"model": model_dict(r=0.5, x=0.5, theta=PI / 2, phi=PI / 4)},
        )
        code, out, _ = run_cli(capsys, ["eval", "--config", cfg])
        assert code == 0
        payload = json.loads(out)
        assert payload["physicality"]["classification"] == "pure"
        assert abs(payload["quantumness"]["general"]) < 1e-9
        assert payload["sloppiness"]["sloppy"] is False
        assert payload["information_determinant"] > 1.0

    def test_scalar_bounds_section(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "model": model_dict(r=0.5, x=0.5, theta=PI / 2, phi=PI / 4),
                "weight": [[1.0, 0.0], [0.0, 1.0]],
                "repetitions": 50,
            },
        )
        code, out, _ = run_cli(capsys, ["eval", "--config", cfg])
        assert code == 0
        bounds = json.loads(out)["scalar_bounds"]
        assert bounds["repetitions"] == 50
        assert bounds["c_q"] > 0
        assert bounds["bracket_upper"] >= bounds["c_q"] - 1e-15

    def test_repetitions_without_weight_rejected(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, {"model": model_dict(r=0.5), "repetitions": 3}
        )
        code, _, err = run_cli(capsys, ["eval", "--config", cfg])
        assert code == 1
        assert "repetitions" in err

    def test_missing_model_field_named(self, tmp_path, capsys):
        incomplete = model_dict(r=0.5)
        del incomplete["phi"]
        cfg = write_config(tmp_path, {"model": incomplete})
        code, _, err = run_cli(capsys, ["eval", "--config", cfg])
        assert code == 1
        assert "'phi'" in err

    def test_unknown_model_field_named(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"model": model_dict(waist=1.0)})
        code, _, err = run_cli(capsys, ["eval", "--config", cfg])
        assert code == 1
        assert "'waist'" in err

    def test_boolean_is_not_a_number(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"model": model_dict(r=True)})
        code, _, err = run_cli(capsys, ["eval", "--config", cfg])
        assert code == 1
        assert "model.r" in err


SCAN_CFG = {
    "model": model_dict(r=0.5, x=0.5),
    "objective": {"kind": "Q22"},
    "axes": [
        {"name": "theta", "values": [0.0, PI / 4, PI / 2, 3 * PI / 4, PI]},
        {"name": "phi", "values": [0.0, PI / 4]},
    ],
}


class TestScan:
    def test_best_row_and_shape(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SCAN_CFG)
        code, out, _ = run_cli(capsys, ["scan", "--config", cfg])
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == "mzsloppy.scan/1"
        assert len(payload["rows"]) == 10
        best = payload["best"]
        assert best["point"] == {"theta": 0.0, "phi": 0.0}
        assert best["value"] == pytest.approx(2 * math.cosh(2.0) ** 2, rel=1e-12)
        assert payload["objective"]["layer"] == "closed_form"

    def test_csv_format(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SCAN_CFG)
        code, out, _ = run_cli(capsys, ["scan", "--config", cfg, "--format", "csv"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "theta,phi,value,error"
        assert len(lines) == 11
        assert "28.308232836016487" in lines[1]

    def test_error_rows_survive_in_output(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "model": model_dict(r=0.5, theta=PI / 2, phi=PI / 4),
                "objective": {"kind": "minus_R"},
                "axes": [{"name": "x", "values": [0.0, 0.5]}],
            },
        )
        code, out, _ = run_cli(capsys, ["scan", "--config", cfg])
        assert code == 0
        payload = json.loads(out)
        assert payload["rows"][0]["value"] is None
        assert payload["rows"][0]["error"]
        assert payload["best"]["point"] == {"x": 0.5}

    def test_reruns_byte_identical(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SCAN_CFG)
        _, first, _ = run_cli(capsys, ["scan", "--config", cfg])
        _, second, _ = run_cli(capsys, ["scan", "--config", cfg])
        assert first == second

    def test_workers_config_does_not_change_output(self, tmp_path, capsys):
        serial = dict(SCAN_CFG)
        parallel = dict(SCAN_CFG, workers=3)
        _, out_serial, _ = run_cli(
            capsys, ["scan", "--config", write_config(tmp_path, serial, "s.json")]
        )
        _, out_parallel, _ = run_cli(
            capsys, ["scan", "--config", write_config(tmp_path, parallel, "p.json")]
        )
        # payloads echo the worker count; rows and best must agree
        a, b = json.loads(out_serial), json.loads(out_parallel)
        assert a["rows"] == b["rows"]
        assert a["best"] == b["best"]
        assert b["workers"] == 3

    def test_huge_worker_count_starts_no_more_threads_than_points(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.delenv(THREADS_ENV_VAR, raising=False)
        started = []
        start = threading.Thread.start

        def counting_start(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counting_start)
        four = dict(SCAN_CFG, axes=[{"name": "theta", "values": [0.0, 0.5, 1.0, 1.5]}])
        payloads = []
        for workers in (1, 10**9):
            cfg = write_config(tmp_path, dict(four, workers=workers), f"w{workers}.json")
            code, out, _ = run_cli(capsys, ["scan", "--config", cfg])
            assert code == 0
            payloads.append(json.loads(out))
        assert 1 <= len(started) <= 4
        serial, huge = payloads
        assert len(huge["rows"]) == 4
        assert huge["rows"] == serial["rows"] and huge["best"] == serial["best"]
        assert huge["workers"] == 1000000000

    def test_threads_env_var_wins(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv(THREADS_ENV_VAR, "2")
        cfg = write_config(tmp_path, dict(SCAN_CFG, workers=7))
        code, out, _ = run_cli(capsys, ["scan", "--config", cfg])
        assert code == 0
        assert json.loads(out)["workers"] == 2

    def test_threads_env_var_invalid(self, tmp_path, capsys, monkeypatch):
        cfg = write_config(tmp_path, SCAN_CFG)
        for bad in ("soup", "0", "-3"):
            monkeypatch.setenv(THREADS_ENV_VAR, bad)
            code, _, err = run_cli(capsys, ["scan", "--config", cfg])
            assert code == 1
            assert THREADS_ENV_VAR in err

    def test_unknown_objective_kind(self, tmp_path, capsys):
        cfg = write_config(tmp_path, dict(SCAN_CFG, objective={"kind": "Q33"}))
        code, _, err = run_cli(capsys, ["scan", "--config", cfg])
        assert code == 1
        assert "Q33" in err

    def test_unknown_axis_field(self, tmp_path, capsys):
        broken = dict(SCAN_CFG, axes=[{"name": "waist", "values": [0.0]}])
        cfg = write_config(tmp_path, broken)
        code, _, err = run_cli(capsys, ["scan", "--config", cfg])
        assert code == 1
        assert "waist" in err

    def test_overflowing_phase_sum_is_a_closed_form_row_error(self, tmp_path, capsys):
        # alpha + 2 lam1 overflows: only the closed-form layer reads that
        # sum, so only its rows fail; the numeric layer keeps its values
        model = model_dict(r=0.5, alpha=1e308, lam1=1e308)
        rows = {}
        for layer in ("closed_form", "numeric"):
            cfg = write_config(tmp_path, {
                "model": model,
                "objective": {"kind": "Q22", "layer": layer},
                "axes": [{"name": "x", "values": [0.5, 1.0]},
                         {"name": "r", "values": [0.5, 400.0]}],
            })
            code, out, err = run_cli(capsys, ["scan", "--config", cfg])
            assert (code, err) == (0, "")
            rows[layer] = json.loads(out)["rows"]
        # the gamma error wins over the overflow at r = 400
        for row in rows["closed_form"]:
            assert row["value"] is None
            assert row["error"] == "closed-form input gamma must be finite"
        for row in rows["numeric"]:
            if row["point"]["r"] == 400.0:
                assert row["error"] == "state moments must be finite"
                continue
            config = ModelConfig(**dict(model, **row["point"]))
            assert row["error"] is None
            assert row["value"] == objective_value(config, Objective("Q22", "numeric"))


class TestOptimize:
    def test_find_known_mode(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"r": 0.5, "x": 0.5})
        code, out, _ = run_cli(capsys, ["optimize", "--config", cfg])
        assert code == 0
        payload = json.loads(out)
        assert payload["mode"] == "find_known"
        assert payload["maximum"]["label"] == "maximum"
        assert payload["optimal"]["label"] == "optimal"
        assert payload["landmarks"]["q22_max"] == pytest.approx(
            2 * math.cosh(2.0) ** 2, rel=1e-12
        )

    def test_custom_mode_polishes_scan_best(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "model": model_dict(r=0.5, x=0.5),
                "objective": {"kind": "Q22"},
                "axes": [
                    {"name": "theta", "values": [0.1, 0.8]},
                    {"name": "phi", "values": [0.1]},
                    {"name": "alpha", "values": [0.1]},
                ],
            },
        )
        code, out, _ = run_cli(capsys, ["optimize", "--config", cfg])
        assert code == 0
        payload = json.loads(out)
        assert payload["mode"] == "custom"
        assert payload["value"] >= payload["scan_best_value"] - 1e-12
        assert payload["value"] == pytest.approx(2 * math.cosh(2.0) ** 2, rel=1e-6)
        for key in ("theta", "phi", "alpha"):
            assert abs(payload["point"][key]) < 1e-3

    def test_missing_inputs_named(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"r": 0.5})
        code, _, err = run_cli(capsys, ["optimize", "--config", cfg])
        assert code == 1
        assert "'x'" in err

    def test_negative_input_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"r": 0.5, "x": -0.5})
        code, _, err = run_cli(capsys, ["optimize", "--config", cfg])
        assert code == 1


class TestCompare:
    def test_default_grid(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {})
        code, out, _ = run_cli(capsys, ["compare", "--config", cfg])
        assert code == 0
        payload = json.loads(out)
        summary = payload["summary"]
        assert summary["record_count"] == 108
        assert len(payload["records"]) == 108
        assert summary["calibration_max_residual"] <= 1e-8
        assert len(summary["notes"]) == 5
        # the standing gaps are visible, not smoothed over
        assert summary["max_abs_difference"] > 1.0

    def test_custom_grid(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {"r": 0.3, "q_values": [0.0], "phi_values": [0.0], "x_values": [0.0, 0.5]},
        )
        code, out, _ = run_cli(capsys, ["compare", "--config", cfg])
        assert code == 0
        payload = json.loads(out)
        assert payload["summary"]["record_count"] == 2 * 4
        assert payload["grid"]["r"] == 0.3

    def test_unknown_field_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"r_values": [0.5]})
        code, _, err = run_cli(capsys, ["compare", "--config", cfg])
        assert code == 1
        assert "r_values" in err


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_example(command: str) -> dict:
    """The JSON config shown under README's `### <command>` heading."""
    section = README.read_text(encoding="utf-8").split(f"\n### {command}\n", 1)[1]
    section = section.split("\n##", 1)[0]
    return json.loads(section.split("```json\n", 1)[1].split("```", 1)[0])


@pytest.mark.parametrize("command", ["eval", "scan", "optimize", "compare"])
def test_readme_example_runs(tmp_path, capsys, command):
    cfg = write_config(tmp_path, readme_example(command))
    code, out, err = run_cli(capsys, [command, "--config", cfg])
    assert code == 0, err
    assert json.loads(out)["schema"] == f"mzsloppy.{command}/1"


class TestDriver:
    def test_csv_only_for_scan(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"model": model_dict(r=0.5)})
        code, _, err = run_cli(capsys, ["eval", "--config", cfg, "--format", "csv"])
        assert code == 1
        assert "csv" in err

    def test_invalid_json_config(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, ["eval", "--config", str(path)])
        assert code == 1
        assert "JSON" in err

    def test_missing_config_file(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, ["eval", "--config", str(tmp_path / "absent.json")]
        )
        assert code == 1

    def test_non_object_config(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        code, _, err = run_cli(capsys, ["eval", "--config", str(path)])
        assert code == 1
        assert "object" in err

    def test_usage_error_exits_one(self, capsys):
        code, _, err = run_cli(capsys, ["transmogrify"])
        assert code == 1

    def test_out_file_keeps_stdout_quiet(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"model": model_dict(r=0.5)})
        out_path = tmp_path / "result.json"
        code, out, _ = run_cli(
            capsys, ["eval", "--config", cfg, "--out", str(out_path)]
        )
        assert code == 2  # exit code still reflects the sloppy verdict
        assert out == ""
        payload = json.loads(out_path.read_text())
        assert payload["schema"] == "mzsloppy.eval/1"

    @pytest.mark.skipif(
        shutil.which("mzsloppy") is None,
        reason="console script 'mzsloppy' not on PATH (package not pip-installed)",
    )
    def test_installed_entry_point(self, tmp_path):
        exe = shutil.which("mzsloppy")
        assert exe is not None, "console script not on PATH"
        cfg = write_config(
            tmp_path,
            {"model": model_dict(r=0.5, x=0.5, theta=PI / 2, phi=PI / 4)},
        )
        proc = subprocess.run(
            [exe, "eval", "--config", cfg],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["schema"] == "mzsloppy.eval/1"

    def test_declared_entry_point(self, tmp_path):
        """The [project.scripts] target runs as the installed wrapper would:
        sys.exit(main()) with the arguments from the command line."""
        tomllib = pytest.importorskip("tomllib")  # standard library from 3.11
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with pyproject.open("rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["mzsloppy"]
        module, _, func = target.partition(":")
        wrapper = (
            f"import sys\nfrom {module} import {func}\n"
            f"sys.argv[0] = 'mzsloppy'\nsys.exit({func}())\n"
        )
        cfg = write_config(
            tmp_path,
            {"model": model_dict(r=0.5, x=0.5, theta=PI / 2, phi=PI / 4)},
        )
        proc = run_python(["-c", wrapper, "eval", "--config", cfg])
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["schema"] == "mzsloppy.eval/1"


class TestSinglePropagation:
    def test_eval_propagates_the_circuit_once(self, tmp_path, capsys, monkeypatch):
        from mzsloppy import model

        calls = []
        original = model._propagate

        def counting(configs):
            calls.append(len(configs))
            return original(configs)

        monkeypatch.setattr(model, "_propagate", counting)
        cfg = write_config(tmp_path, {"model": model_dict(r=0.5, x=0.5, theta=PI / 2)})
        code, out, _ = run_cli(capsys, ["eval", "--config", cfg])
        assert code in (0, 2)
        assert json.loads(out)["physicality"]["classification"] == "pure"
        assert calls == [1]

    def test_overflowing_scan_point_is_a_row(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "model": model_dict(r=0.5, x=0.5),
                "objective": {"kind": "Q22"},
                "axes": [{"name": "r", "values": [0.5, 400.0]}],
            },
        )
        code, out, _ = run_cli(capsys, ["scan", "--config", cfg])
        assert code == 0
        rows = json.loads(out)["rows"]
        assert rows[0]["error"] is None
        assert rows[1] == {"point": {"r": 400.0}, "value": None,
                           "error": "OverflowError: math range error"}


class TestEngineErrors:
    """A config the engine cannot evaluate ends in one error line and exit
    code 1, not in a traceback."""

    @pytest.mark.parametrize(
        "command, config, reason",
        [
            ("optimize", {"r": 400, "x": 1}, "OverflowError: math range error"),
            ("eval", {"model": model_dict(r=400.0, x=0.5)}, "state moments must be finite"),
            # a pure state misclassified at large squeezing
            (
                "eval",
                {"model": model_dict(r=4.0, x=2.0, theta=1.0, phi=0.7, alpha=0.3)},
                "requires a pure model state",
            ),
            # a malformed weight is the objective's error, not every row's
            (
                "scan",
                dict(SCAN_CFG, objective={"kind": "weighted_CQ_inverse",
                                          "weight": [[1.0, 0.2], [0.0, 1.0]]}),
                "weight must be a symmetric matrix matching Q",
            ),
            (
                "optimize",
                dict(SCAN_CFG, objective={"kind": "weighted_CQ_inverse", "layer": "numeric",
                                          "weight": [[1.0, 0.0], [0.0, -0.5]]}),
                "weight must be positive semidefinite",
            ),
            # NaN passes every comparison, so finiteness is checked by itself
            (
                "eval",
                {"model": model_dict(r=0.5, x=0.5, theta=PI / 2),
                 "weight": [[math.nan, 0.0], [0.0, 1.0]]},
                "weight must have finite entries",
            ),
            (
                "eval",
                {"model": model_dict(r=0.5, x=0.5, theta=PI / 2), "threshold": math.nan},
                "threshold must be a finite positive number",
            ),
            (
                "scan",
                dict(SCAN_CFG, objective={"kind": "weighted_CQ_inverse",
                                          "weight": [[math.nan, 0.0], [0.0, 1.0]]}),
                "weight must have finite entries",
            ),
            (
                "optimize",
                dict(SCAN_CFG, objective={"kind": "weighted_CQ_inverse",
                                          "weight": [[1.0, 0.0], [0.0, math.inf]]}),
                "weight must have finite entries",
            ),
            # a finite state whose information overflows: no warnings either
            (
                "eval",
                {"model": model_dict(r=0.5, q=1e300, beta=0.3, theta=1.1, phi=0.4, x=0.72,
                                     alpha=0.7, lam1=0.2, lam2=0.9)},
                "OverflowError: math range error",
            ),
        ],
        ids=["optimize_r400", "eval_r400", "eval_r4_x2", "scan_asymmetric_weight",
             "optimize_indefinite_weight", "eval_nan_weight", "eval_nan_threshold",
             "scan_nan_weight", "optimize_inf_weight", "eval_information_overflow"],
    )
    def test_error_line_and_exit_one(self, tmp_path, command, config, reason):
        cfg = write_config(tmp_path, config)
        proc = run_python(["-m", "mzsloppy.cli", command, "--config", cfg])
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("mzsloppy: error: ")
        assert reason in proc.stderr
        assert proc.stderr.count("\n") == 1


# -- property: every finite config ends in a documented exit code -------------

# moderate values, magnitudes up to 1e300, and values at which the moments
# or the information overflow
EDGES = st.sampled_from((0.0, 20.0, 400.0, 1e160, 1e300))
FINITE = st.one_of(st.floats(-3.0, 3.0), st.floats(-1e300, 1e300), EDGES, EDGES.map(lambda v: -v))
# r, x and q are mostly non-negative, so that most configs get past ModelConfig
NON_NEGATIVE = st.one_of(st.floats(0.0, 3.0), st.floats(0.0, 1e300), EDGES, FINITE)
MODELS = st.fixed_dictionaries({
    name: NON_NEGATIVE if name in ("r", "x", "q") else FINITE for name in model_dict()
})
WEIGHTS = st.sampled_from([
    [[1.0, 0.3], [0.3, 2.0]], [[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]],
    [[1.0, 2.0], [2.0, 1.0]], [[1.0, 0.5], [0.0, 1.0]],
])
EVALS = st.fixed_dictionaries({"model": MODELS}, optional={
    "weight": WEIGHTS, "threshold": FINITE, "repetitions": st.integers(-1, 3),
})
SCANS = st.fixed_dictionaries({
    "model": MODELS,
    "objective": st.fixed_dictionaries(
        {"kind": st.sampled_from(["Q11", "Q22", "detQ", "minus_R"]),
         "layer": st.sampled_from(["closed_form", "numeric"])},
    ) | st.fixed_dictionaries(
        {"kind": st.just("weighted_CQ_inverse"), "weight": WEIGHTS,
         "layer": st.sampled_from(["closed_form", "numeric"])},
        optional={"repetitions": st.integers(1, 3)},
    ),
    "axes": st.lists(
        st.fixed_dictionaries({"name": st.sampled_from(list(model_dict())),
                               "values": st.lists(FINITE, min_size=1, max_size=3)}),
        min_size=1, max_size=3, unique_by=lambda axis: axis["name"],
    ),
}, optional={"workers": st.integers(1, 3)})


@settings(deadline=None, max_examples=100)
@given(command_config=st.tuples(st.just("eval"), EVALS) | st.tuples(st.just("scan"), SCANS),
       fmt=st.sampled_from(["json", "csv"]))
def test_every_finite_config_exits_zero_one_or_two(command_config, fmt):
    command, config = command_config
    if command == "eval":
        fmt = "json"
    with tempfile.TemporaryDirectory() as work:
        cfg = os.path.join(work, "cfg.json")
        with open(cfg, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, "--config", cfg, "--format", fmt])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    assert (out.getvalue() == "") == (code == 1)
