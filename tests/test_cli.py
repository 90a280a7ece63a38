"""Command-line driver: config handling, output formats, exit codes."""

import contextlib
import dataclasses
import io
import itertools
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import threading
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import mzsloppy
from listing import listed_payload, listed_records
from mzsloppy import cli, closed_forms
from mzsloppy.cli import THREADS_ENV_VAR, main
from mzsloppy.closed_forms import DiscrepancyRecord, DiscrepancyReport
from mzsloppy.model import MODEL_FIELDS, ModelConfig
from mzsloppy.optimize import Axis, Objective, ScanResult, objective_value

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

    def test_vacuum_model_exits_two(self, tmp_path, capsys):
        # r = x = q = 0 with non-zero angles: Q is round-off, which the
        # quantumness block calls singular, and the sloppiness verdict agrees
        model = model_dict(beta=0.3, theta=0.7, phi=0.4, alpha=1.1, lam1=0.5, lam2=-0.9)
        cfg = write_config(tmp_path, {"model": model})
        code, out, _ = run_cli(capsys, ["eval", "--config", cfg])
        assert code == 2
        payload = json.loads(out)
        assert "error" in payload["quantumness"]
        assert payload["sloppiness"]["sloppy"] is True
        assert payload["sloppiness"]["threshold"] == 1e-8

    def test_large_squeezing_is_evaluated(self, tmp_path, capsys):
        # cond(cov) is about e^24 here: Q and U need no solve with cov, and
        # the spectrum, 1/2 only to about eps cond(cov), still reads pure
        model = model_dict(r=4.0, x=2.0, theta=1.0, phi=0.7, alpha=0.3)
        cfg = write_config(tmp_path, {"model": model, "weight": [[1.0, 0.0], [0.0, 1.0]]})
        code, out, err = run_cli(capsys, ["eval", "--config", cfg])
        assert code in (0, 2) and err == ""
        payload = json.loads(out)
        assert code == (2 if payload["sloppiness"]["sloppy"] else 0)
        assert all(math.isfinite(v) for row in payload["information_matrix"] for v in row)
        assert all(math.isfinite(v) for row in payload["curvature_matrix"] for v in row)
        assert 0.0 <= payload["quantumness"]["general"] <= 1.0 + 1e-9
        assert payload["physicality"]["classification"] == "pure"

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

    def test_missing_model_object_is_an_eval_field(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {})
        code, out, err = run_cli(capsys, ["eval", "--config", cfg])
        assert code == 1 and out == ""
        assert err == "mzsloppy: error: missing eval field 'model'\n"

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

    @pytest.mark.parametrize("config", [
        # Q is finite, its determinant and largest eigenvalue are not
        {"model": model_dict(q=1e154, phi=1e308), "threshold": 1},
        # Q is finite, the weighted bounds are not: c_q = 1e308 Tr Q^-1 = 7.4e308
        {"model": model_dict(r=0.25, x=0.25, theta=PI / 2, phi=PI / 4),
         "weight": [[1e308, 0], [0, 1e308]]},
    ], ids=["determinant", "scalar_bounds"])
    def test_number_that_overflows_is_an_error(self, tmp_path, capsys, config):
        code, out, err = run_cli(capsys, ["eval", "--config", write_config(tmp_path, config)])
        assert code == 1
        assert out == ""
        assert err == "mzsloppy: error: OverflowError: math range error\n"


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

    @pytest.mark.parametrize("names", [["theta"], ["theta", "phi"]])
    def test_custom_mode_at_huge_angles_prints_no_warning(self, tmp_path, names):
        # the simplex around 1e308 overflows in Nelder-Mead's own arithmetic
        cfg = write_config(tmp_path, {
            "model": model_dict(r=0.5, x=0.5),
            "objective": {"kind": "Q22", "layer": "numeric"},
            "axes": [{"name": name, "values": [1e308]} for name in names],
        })
        proc = run_python(["-m", "mzsloppy.cli", "optimize", "--config", cfg])
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert json.loads(proc.stdout)["mode"] == "custom"

    def test_all_failed_grid_reports_row_zero_error(self, tmp_path, capsys):
        # rows: a negative field, then an overflow; scan names both, and
        # optimize fails as row 0 does, with its config error
        cfg = write_config(tmp_path, {
            "model": model_dict(r=0.5, x=0.5),
            "objective": {"kind": "Q22"},
            "axes": [{"name": "r", "values": [-1.0, 400.0]}],
        })
        code, out, err = run_cli(capsys, ["optimize", "--config", cfg])
        assert code == 1 and out == ""
        assert err == "mzsloppy: error: model field r must be non-negative\n"

    def test_all_sloppy_grid_exits_two(self, tmp_path, capsys):
        # x = 0: Q is singular at every grid point, so R is undefined there
        cfg = write_config(tmp_path, {
            "model": model_dict(r=0.5, x=0.0),
            "objective": {"kind": "minus_R", "layer": "numeric"},
            "axes": [{"name": "theta", "values": [0.0, 1.0]}],
        })
        code, out, err = run_cli(capsys, ["optimize", "--config", cfg])
        assert code == 2 and out == ""
        assert err.startswith("mzsloppy: degenerate model: information matrix is singular")

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

    @pytest.mark.parametrize("name", ["q_values", "phi_values", "x_values"])
    def test_library_call_with_an_empty_value_list_names_it(self, monkeypatch, name):
        # the CLI refuses [] in _parse_value_list; a library call is refused
        # before any configuration is built or compared
        def no_work(configs):
            raise AssertionError("compared an empty grid")

        monkeypatch.setattr(closed_forms, "compare", no_work)
        with pytest.raises(ValueError, match=f"^compare grid '{name}' is empty"):
            cli.run_compare(0.5, **{name: ()})


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

    def test_one_parser_serves_every_call(self, tmp_path, capsys):
        # the parser is built once per process, so no call may leave
        # anything behind for the next: each gets its own exit code and message
        assert cli._build_parser() is cli._build_parser()
        cmp_cfg = write_config(tmp_path, {"x_values": [0.5]}, name="cmp.json")
        eval_cfg = write_config(tmp_path, {"model": model_dict(r=0.5)}, name="eval.json")
        calls = [
            (["compare", "--config", cmp_cfg], 0, "", "mzsloppy.compare/1"),
            (["eval", "--config", eval_cfg, "--format", "xml"], 1,
             "mzsloppy: error: argument --format: invalid choice: 'xml'", ""),
            (["scan"], 1,
             "mzsloppy: error: the following arguments are required: --config", ""),
            (["eval", "--config", eval_cfg], 2, "", "mzsloppy.eval/1"),
            (["compare", "--config", cmp_cfg, "--format", "csv"], 1,
             "mzsloppy: error: format 'csv' is only available for scan, not 'compare'", ""),
            (["compare", "--config", cmp_cfg, "--bogus"], 1,
             "mzsloppy: error: unrecognized arguments: --bogus", ""),
            (["compare", "--config", cmp_cfg], 0, "", "mzsloppy.compare/1"),
        ]
        for argv, want_code, want_err, want_schema in calls:
            code, out, err = run_cli(capsys, argv)
            assert code == want_code, argv
            assert err.startswith(want_err) and err.count("\n") == int(bool(want_err)), argv
            assert (json.loads(out)["schema"] if out else "") == want_schema, argv

    @pytest.mark.parametrize(
        "command, config, message",
        [
            ("eval", {"model": [0.5]}, "config field 'model' must be an object"),
            ("eval", {"model": model_dict(r=0.5), "weight": [[1.0, 0.0]]},
             "config field 'weight' must be a 2x2 array of numbers"),
            ("eval", {"model": model_dict(r=0.5), "weight": [[1.0, 0.0], [0.0, 1.0]],
                      "repetitions": 0},
             "config field 'repetitions' must be a positive integer"),
            ("scan", dict(SCAN_CFG, objective="Q22"),
             "config field 'objective' must be an object"),
            ("scan", dict(SCAN_CFG, objective={"kind": "Q22", "layer": 1}),
             "config field 'objective.layer' must be a string"),
            ("scan", dict(SCAN_CFG, axes=[]), "config field 'axes' must be a non-empty array"),
            ("optimize", dict(SCAN_CFG, axes={"name": "theta"}),
             "config field 'axes' must be a non-empty array"),
            ("scan", dict(SCAN_CFG, axes=["theta"]), "each axis must be an object"),
            ("scan", dict(SCAN_CFG, workers=1.5),
             "config field 'workers' must be a positive integer"),
            ("scan", dict(SCAN_CFG, objective={"kind": "Q22", "repetitions": 5}),
             "objective Q22 takes no repetitions"),
            ("compare", {"phi_values": []}, "config field 'phi_values' must be a non-empty array"),
        ],
        ids=["model_not_object", "weight_not_2x2", "repetitions_zero", "objective_not_object",
             "layer_not_string", "axes_empty", "axes_not_array", "axis_not_object",
             "workers_not_integer", "repetitions_unread", "compare_values_empty"],
    )
    def test_config_error_line(self, tmp_path, capsys, command, config, message):
        cfg = write_config(tmp_path, config)
        code, out, err = run_cli(capsys, [command, "--config", cfg])
        assert code == 1 and out == ""
        assert err == f"mzsloppy: error: {message}\n"

    def test_out_into_missing_directory(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"model": model_dict(r=0.5)})
        out_path = tmp_path / "absent" / "result.json"
        code, out, err = run_cli(capsys, ["eval", "--config", cfg, "--out", str(out_path)])
        assert code == 1 and out == ""
        assert err.startswith("mzsloppy: error: cannot write output file: ")
        assert err.count("\n") == 1 and not out_path.exists()

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


# Runs in a fresh interpreter, since other test modules load scipy and the
# thread pool into this one: the (name, command, config path) steps in
# argv[1] one after another; prints each step's payload and the lazily
# loaded modules (scipy, and concurrent.futures with logging and queue) in
# the interpreter after it.
COLD_START = """
import json, sys
from mzsloppy import cli

LAZY = ("scipy", "concurrent", "logging", "queue")

report = {}
for name, command, path in json.loads(sys.argv[1]):
    assert cli.main([command, "--config", path, "--out", path + ".out"]) == 0
    with open(path + ".out") as fh:
        payload = json.load(fh)
    report[name] = {"payload": payload,
                    "loaded": sorted(m for m in sys.modules if m.split(".")[0] in LAZY)}
print(json.dumps(report))
"""


@pytest.fixture(scope="class")
def cold_start(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("cold_start")
    model = model_dict(r=0.5, x=0.5, theta=PI / 2, phi=PI / 4)
    scan = {
        "model": model,
        "objective": {"kind": "minus_R", "layer": "numeric"},
        "axes": [{"name": "theta", "values": [0.0, PI / 4, PI / 2]}],
    }
    cases = json.loads((Path(__file__).parent / "golden" / "cases.json").read_text())
    steps = [
        ("eval", "eval", {"model": model}),
        ("scan", "scan", scan),
        ("compare", "compare", {}),
        # both find-known polishes start at their bounds here: no simplex
        ("find_known", "optimize", {"r": 0.5, "x": 0.5, "q": 0.0}),
        ("pool_scan", "scan", {**scan, "workers": 2}),
        ("custom", "optimize", cases["optimize_custom_Q11"]["config"]),
    ]
    paths = [
        (name, command, write_config(tmp_path, config, f"{name}.json"))
        for name, command, config in steps
    ]
    proc = run_python(["-c", COLD_START, json.dumps(paths)])
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


class TestColdStart:
    def test_scipy_is_loaded_only_by_a_simplex_that_runs(self, cold_start):
        # after eval, a one-worker scan, compare and find-known
        assert cold_start["find_known"]["loaded"] == []
        assert not any(m.startswith("scipy") for m in cold_start["pool_scan"]["loaded"])
        assert cold_start["custom"]["payload"]["refine_iterations"] > 0
        assert "scipy.optimize" in cold_start["custom"]["loaded"]

    def test_thread_pool_is_loaded_only_by_a_scan_with_workers(self, cold_start):
        assert cold_start["find_known"]["loaded"] == []
        assert cold_start["pool_scan"]["payload"]["workers"] == 2
        assert {"concurrent.futures.thread", "logging", "queue"} <= set(
            cold_start["pool_scan"]["loaded"]
        )


class TestSinglePropagation:
    def test_eval_propagates_the_circuit_once(self, tmp_path, capsys, monkeypatch):
        from mzsloppy import model

        calls = []
        original = model._propagate

        def counting(columns):
            calls.append(columns.shape)
            return original(columns)

        monkeypatch.setattr(model, "_propagate", counting)
        cfg = write_config(tmp_path, {"model": model_dict(r=0.5, x=0.5, theta=PI / 2)})
        code, out, _ = run_cli(capsys, ["eval", "--config", cfg])
        assert code in (0, 2)
        assert json.loads(out)["physicality"]["classification"] == "pure"
        assert calls == [(1,)]

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
            # 2 q^2 overflows Q22 at every point of the maximum's grid: the
            # command fails as row 0 does, not as a degenerate model
            ("optimize", {"r": 0.5, "x": 0.5, "q": 1e154}, "OverflowError: math range error"),
            ("eval", {"model": model_dict(r=400.0, x=0.5)}, "state moments must be finite"),
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
            ("compare", {"r": 0.5, "q_values": [1e200]}, "OverflowError: math range error"),
            # the closed forms are finite, the engine's information is not
            ("compare", {"r": 0.5, "q_values": [1e154]}, "OverflowError: math range error"),
            # the first config is fine, the second one's moments overflow
            ("compare", {"r": 0.5, "x_values": [0.0, 400.0]}, "state moments must be finite"),
            # a config that fails comes before a later one that ModelConfig rejects
            ("compare", {"r": 0.5, "q_values": [1e200], "x_values": [0.0, -1.0]},
             "OverflowError: math range error"),
            # an angle whose closed forms leave math's domain is worded as in a scan row
            ("compare", {"phi_values": [1e308]}, "OverflowError: math range error"),
        ],
        ids=["optimize_r400", "optimize_q1e154", "eval_r400", "scan_asymmetric_weight",
             "optimize_indefinite_weight", "eval_nan_weight", "eval_nan_threshold",
             "scan_nan_weight", "optimize_inf_weight", "eval_information_overflow",
             "compare_information_overflow", "compare_engine_overflow", "compare_x400", "compare_overflow_before_negative_x",
             "compare_phi_overflow"],
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
COMPARES = st.fixed_dictionaries({
    "r": NON_NEGATIVE,
    **{name: st.lists(FINITE, min_size=1, max_size=3)
       for name in ("q_values", "phi_values", "x_values")},
})


@settings(deadline=None, max_examples=100)
@given(command_config=st.tuples(st.just("eval"), EVALS) | st.tuples(st.just("scan"), SCANS)
       | st.tuples(st.just("optimize"), SCANS) | st.tuples(st.just("compare"), COMPARES),
       fmt=st.sampled_from(["json", "csv"]))
def test_every_finite_config_exits_zero_one_or_two(command_config, fmt):
    command, config = command_config
    if command != "scan":
        fmt = "json"
    with tempfile.TemporaryDirectory() as work:
        cfg = os.path.join(work, "cfg.json")
        with open(cfg, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([command, "--config", cfg, "--format", fmt])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    # exit 2 is eval's sloppy verdict, with its payload, or a degenerate
    # model without one (optimize: every grid point failed, row 0 as sloppy)
    assert (out.getvalue() == "") == (code == 1 or (code == 2 and command == "optimize"))
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert "Infinity" not in out.getvalue() and "NaN" not in out.getvalue()


# Scan results for the row writers: json.dumps is the byte oracle of the JSON
# writer, applied to the rows as dicts built from the grid product.
EDGE_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 0.1, 1e16])
FINITE_FLOATS = EDGE_FLOATS | st.floats(allow_nan=False, allow_infinity=False)
ANY_FLOAT = EDGE_FLOATS | st.floats()
ROW_ERRORS = st.text() | st.sampled_from(
    ['"quoted"', "back\\slash", "\x00\x1f\n\t\r\x7f", "café ☃ \U0001d11e",
     "\ud800 lone surrogate", "%s %d %%", "{} {0} {1} {name} {{", ""]
)


@st.composite
def scan_results(draw):
    names = draw(st.permutations(list(model_dict())))[: draw(st.integers(1, 9))]
    axes, size = [], 1
    for k, name in enumerate(names):
        values = draw(st.lists(FINITE_FLOATS, min_size=1, max_size=3 if size <= 16 else 1))
        if k == 0:  # both zeros, so that a value-keyed text cache mixes them up
            values = [0.0, -0.0] + values
        axes.append(Axis(name, tuple(values)))
        size *= len(values)
    values = draw(st.lists(st.none() | FINITE_FLOATS, min_size=size, max_size=size))
    errors = {i: draw(ROW_ERRORS) for i, value in enumerate(values) if value is None}
    scored = [i for i, value in enumerate(values) if value is not None]
    best = draw(st.sampled_from(scored)) if scored and draw(st.booleans()) else None
    return ScanResult(axes=tuple(axes), values=tuple(values), errors=errors, best=best)


@st.composite
def scan_payloads(draw):
    scan = draw(scan_results())
    weight = draw(st.none() | st.lists(st.lists(ANY_FLOAT, min_size=2, max_size=2),
                                       min_size=2, max_size=2))
    return {
        "schema": "mzsloppy.scan/1",
        "model": model_dict(r=draw(ANY_FLOAT)),
        "objective": {"kind": draw(st.text()), "layer": "numeric",
                      "repetitions": draw(st.integers(1, 10**6)), "weight": weight},
        "axes": [{"name": a.name, "values": list(a.values)} for a in scan.axes],
        "workers": draw(st.integers(1, 10**9)),
        "rows": scan,
        "best": None if scan.best is None else {
            "point": scan.point(scan.best), "value": scan.values[scan.best], "error": None,
        },
    }


@settings(deadline=None, max_examples=500)
@given(payload=scan_payloads())
def test_scan_json_writer_matches_json_dumps(payload):
    # outside "rows", only the model's r and the weight can be non-finite
    weight = payload["objective"]["weight"] or []
    if not all(map(math.isfinite, [payload["model"]["r"], *itertools.chain(*weight)])):
        with pytest.raises(OverflowError, match="^math range error$"):
            cli._json_text(payload)
        return
    listed = listed_payload(payload)
    assert cli._json_text(payload) == json.dumps(listed, sort_keys=True, indent=2) + "\n"


def test_json_writer_passes_other_value_errors_through():
    looped = {"schema": "mzsloppy.eval/1"}
    looped["model"] = looped
    with pytest.raises(ValueError, match="^Circular reference detected$"):
        cli._json_text(looped)


# -- property: compare's payload is read off closed_forms.compare -------------

# small pools, so that grids repeat values, both signed zeros among them
GRID_POOLS = {
    "q_values": st.sampled_from([0.0, -0.0, 0.5, 1.0]),
    "phi_values": st.sampled_from([0.0, -0.0, 0.3, PI / 4]),
    "x_values": st.sampled_from([0.0, -0.0, 0.5]),
}


COMPARE_R = st.sampled_from([0.0, 0.5, 1.0])
COMPARE_GRIDS = st.fixed_dictionaries({name: st.lists(pool, min_size=1, max_size=4)
                                       for name, pool in GRID_POOLS.items()})


@settings(deadline=None, max_examples=60)
@given(r=COMPARE_R, grid=COMPARE_GRIDS)
def test_compare_payload_matches_its_reports(r, grid):
    grid = {name: tuple(values) for name, values in grid.items()}
    payload = cli.run_compare(r, **grid)
    configs = [ModelConfig(r=r, q=q, phi=phi, x=x) for q, phi, x in itertools.product(
        grid["q_values"], grid["phi_values"], grid["x_values"])]
    reports = closed_forms.compare(configs)
    records = [
        {"model": model_dict(r=c.r, q=c.q, phi=c.phi, x=c.x), **dataclasses.asdict(rec)}
        for c, report in zip(configs, reports) for rec in report.records
    ]
    # each q > 0 config on the phi = 0 slice against the last q = 0 config
    # with its phi and x, compared with ==, so 0.0 and -0.0 match
    offset = [report.records[0].closed_form - report.records[0].numeric for report in reports]
    calibration = []
    for i, c in enumerate(configs):
        zeros = [j for j, z in enumerate(configs) if z.q == 0 and (z.phi, z.x) == (c.phi, c.x)]
        if c.q > 0 and c.phi == 0 and zeros:
            calibration.append({"q": c.q, "x": c.x, "entry": "Q11",
                                "residual": abs(offset[i] - offset[zeros[-1]])})
    # the JSON text tells 0.0 from -0.0, which == does not
    assert json.dumps(listed_records(payload["records"])) == json.dumps(records)
    assert payload["grid"] == {"r": r, **grid}  # the grid goes out as given
    summary = payload["summary"]
    assert summary["record_count"] == 4 * len(configs) == len(records)
    assert summary["max_abs_difference"] == max(rec["abs_difference"] for rec in records)
    assert json.dumps(summary["calibration"]) == json.dumps(calibration)
    assert summary["calibration_max_residual"] == max(
        (c["residual"] for c in calibration), default=None)


# -- property: compare's records writer is json.dumps of the records as dicts --


@settings(deadline=None, max_examples=60)
@given(r=COMPARE_R, grid=COMPARE_GRIDS)
def test_compare_json_writer_matches_json_dumps(r, grid):
    payload = cli.run_compare(r, **{name: tuple(values) for name, values in grid.items()})
    listed = listed_payload(payload)
    assert cli._json_text(payload) == json.dumps(listed, sort_keys=True, indent=2) + "\n"


NON_NEGATIVE_FLOATS = FINITE_FLOATS.filter(lambda v: not v < 0)  # -0.0 stays


@st.composite
def compare_records(draw):
    """(config, report) pairs as closed_forms.compare returns them, holding
    any finite values and any entry text."""
    pairs = []
    for _ in range(draw(st.integers(1, 3))):
        config = ModelConfig(**{
            name: draw(NON_NEGATIVE_FLOATS if name in ("r", "q", "x") else FINITE_FLOATS)
            for name in MODEL_FIELDS
        })
        records = tuple(
            DiscrepancyRecord(draw(ROW_ERRORS), *draw(st.tuples(*[FINITE_FLOATS] * 4)))
            for _ in range(draw(st.integers(1, 4)))
        )
        pairs.append((config, DiscrepancyReport(records=records, flags={})))
    return pairs


@settings(deadline=None, max_examples=300)
@given(records=compare_records())
def test_compare_json_writer_matches_json_dumps_on_any_finite_record(records):
    payload = {"schema": "mzsloppy.compare/1", "records": records,
               "summary": {"record_count": sum(len(rep.records) for _, rep in records)}}
    listed = listed_payload(payload)
    assert cli._json_text(payload) == json.dumps(listed, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("value", [math.inf, math.nan])
@pytest.mark.parametrize(
    "field", ["closed_form", "numeric", "abs_difference", "rel_difference", "alpha"])
def test_compare_json_writer_refuses_a_non_finite_record(field, value):
    # the value is in the records alone, so the writer, not the dump of the
    # rest of the payload, must refuse it
    payload = cli.run_compare(0.5, (0.0, 0.5), (0.3,), (0.5,))
    first, (config, report) = payload["records"]
    cli._json_text(payload)  # finite as built
    if field in MODEL_FIELDS:
        config = dataclasses.replace(config)
        object.__setattr__(config, field, value)  # past ModelConfig's own check
    else:
        last = dataclasses.replace(report.records[-1], **{field: value})
        report = DiscrepancyReport(records=(*report.records[:-1], last), flags=report.flags)
    payload["records"] = [first, (config, report)]
    with pytest.raises(OverflowError, match="^math range error$"):
        cli._json_text(payload)
