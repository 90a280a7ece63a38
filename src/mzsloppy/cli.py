"""Command-line front end.

Four subcommands, all driven by a JSON config file:

  mzsloppy eval     --config cfg.json [--out path] [--format json]
  mzsloppy scan     --config cfg.json [--out path] [--format json|csv]
  mzsloppy optimize --config cfg.json [--out path] [--format json]
  mzsloppy compare  --config cfg.json [--out path] [--format json]

Data goes to stdout (or --out), diagnostics to stderr. Exit code 0 means
success, 1 a usage or config error or a config the engine cannot evaluate
(say, squeezing so large that the state moments overflow), 2 a detected
degenerate condition (eval: the model is sloppy at the requested
threshold). Output is deterministic: keys are sorted and floats are written
with full precision, so identical inputs give byte-identical output. The
csv format is only available for scan, whose rows form a rectangular table.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import itertools
import json
import math
import os
import sys
from json.encoder import encode_basestring_ascii

import numpy as np

from . import closed_forms, metrology, optimize
from .exceptions import SloppyModelError
from .model import MODEL_FIELDS, ModelConfig, jacobian_analytic

THREADS_ENV_VAR = "MZSLOPPY_THREADS"

_SCHEMAS = {
    "eval": "mzsloppy.eval/1",
    "scan": "mzsloppy.scan/1",
    "optimize": "mzsloppy.optimize/1",
    "compare": "mzsloppy.compare/1",
}

DEFAULT_COMPARE_R = 0.5
DEFAULT_COMPARE_Q = (0.0, 0.5, 1.0)
DEFAULT_COMPARE_PHI = (0.0, math.pi / 8, math.pi / 4)
DEFAULT_COMPARE_X = (0.0, 0.5, 1.0)

COMPARE_NOTES = (
    "Constant offset: at zero displacement the reference expressions exceed "
    "the engine values by a single configuration-dependent constant, shared "
    "by Q11, Q22 and Q12.",
    "On the fully transmissive slice (phi = 0) that shared offset equals "
    "exactly 2.",
    "The displacement-free part of the curvature entry U12 in the reference "
    "layer is exactly 4 times the engine value.",
    "The displacement term of U12: at beta = lam2 = 0 the engine gives "
    "4 q^2 sinh(2x) sin(gamma) while the reference displacement term "
    "vanishes there.",
    "These gaps are reported, not reconciled: the engine is first-principles "
    "and the reference layer is transcribed verbatim, and no single "
    "convention choice tried so far removes all of them at once.",
)


class ConfigError(Exception):
    """Bad usage or bad config content; maps to exit code 1."""


def _require_number(value, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"config field {name!r} must be a number")
    return float(value)


def _parse_model(obj) -> ModelConfig:
    if not isinstance(obj, dict):
        raise ConfigError("config field 'model' must be an object")
    for key in obj:
        if key not in MODEL_FIELDS:
            raise ConfigError(f"unknown model field {key!r}")
    fields = {}
    for name in MODEL_FIELDS:
        if name not in obj:
            raise ConfigError(f"missing model field {name!r}")
        fields[name] = _require_number(obj[name], f"model.{name}")
    return ModelConfig(**fields)


def _check_keys(obj: dict, allowed: tuple[str, ...], where: str) -> None:
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"unknown {where} field {key!r}")


def _model_dict(config: ModelConfig) -> dict:
    return {name: getattr(config, name) for name in MODEL_FIELDS}


def _matrix_list(m: np.ndarray) -> list:
    return [[float(v) for v in row] for row in np.asarray(m)]


def _parse_weight(obj) -> np.ndarray:
    if (
        not isinstance(obj, list)
        or len(obj) != 2
        or any(not isinstance(row, list) or len(row) != 2 for row in obj)
    ):
        raise ConfigError("config field 'weight' must be a 2x2 array of numbers")
    return np.array(
        [[_require_number(v, "weight") for v in row] for row in obj], dtype=float
    )


def _parse_repetitions(obj) -> int:
    if isinstance(obj, bool) or not isinstance(obj, int) or obj < 1:
        raise ConfigError("config field 'repetitions' must be a positive integer")
    return obj


# -- eval ----------------------------------------------------------------


@np.errstate(all="ignore")  # an overflow is the error below, not a warning
def run_eval(config_obj: dict) -> tuple[dict, int]:
    _check_keys(config_obj, ("model", "weight", "repetitions", "threshold"), "eval")
    if "model" not in config_obj:
        raise ConfigError("missing eval field 'model'")
    config = _parse_model(config_obj["model"])

    jet = jacobian_analytic(config)
    phys = jet.state.physicality
    q = metrology.qfi_matrix(jet)
    u = metrology.uhlmann_matrix(jet)
    if not (np.isfinite(q).all() and np.isfinite(u).all()):
        raise OverflowError("math range error")

    try:
        quantumness = {
            "general": metrology.quantumness_general(q, u),
            "two_parameter": metrology.quantumness_two_param(q, u),
        }
    except SloppyModelError as exc:
        quantumness = {"error": str(exc)}

    threshold = None
    if "threshold" in config_obj:
        threshold = _require_number(config_obj["threshold"], "threshold")
    report = metrology.sloppiness_report(q, threshold=threshold)

    payload = {
        "schema": _SCHEMAS["eval"],
        "model": _model_dict(config),
        "physicality": {
            "classification": phys.classification,
            "symplectic_eigenvalues": [float(v) for v in phys.symplectic_eigenvalues],
        },
        "information_matrix": _matrix_list(q),
        "information_determinant": float(np.linalg.det(q)),
        "curvature_matrix": _matrix_list(u),
        "quantumness": quantumness,
        "sloppiness": {
            "eigenvalues": [float(v) for v in report.eigenvalues],
            "threshold": float(report.threshold),
            "sloppy": bool(report.sloppy),
            "null_directions": [
                [float(v) for v in d] for d in report.null_directions
            ],
        },
    }
    if "weight" in config_obj:
        weight = _parse_weight(config_obj["weight"])
        reps = _parse_repetitions(config_obj.get("repetitions", 1))
        try:
            bounds = metrology.scalar_crb(q, u, weight, repetitions=reps)
            payload["scalar_bounds"] = {
                "weight": _matrix_list(weight),
                "repetitions": reps,
                "c_q": float(bounds.c_q),
                "bracket_upper": float(bounds.bracket_upper),
            }
        except SloppyModelError as exc:
            payload["scalar_bounds"] = {"error": str(exc)}
    elif "repetitions" in config_obj:
        raise ConfigError("config field 'repetitions' requires 'weight'")

    if not _all_finite(payload):
        # a finite Q can still overflow its determinant, eigenvalues or bounds
        raise OverflowError("math range error")
    exit_code = 2 if payload["sloppiness"]["sloppy"] else 0
    return payload, exit_code


def _all_finite(obj) -> bool:
    """False when a float anywhere in the nested dicts and lists of obj is
    not finite, which JSON output would write as Infinity or NaN."""
    if isinstance(obj, float):
        return math.isfinite(obj)
    if isinstance(obj, dict):
        return all(_all_finite(v) for v in obj.values())
    if isinstance(obj, list):
        return all(_all_finite(v) for v in obj)
    return True


# -- scan ----------------------------------------------------------------


def _parse_objective(obj) -> optimize.Objective:
    if not isinstance(obj, dict):
        raise ConfigError("config field 'objective' must be an object")
    _check_keys(obj, ("kind", "layer", "weight", "repetitions"), "objective")
    if "kind" not in obj or not isinstance(obj["kind"], str):
        raise ConfigError("config field 'objective.kind' must be a string")
    layer = obj.get("layer", "closed_form")
    if not isinstance(layer, str):
        raise ConfigError("config field 'objective.layer' must be a string")
    weight = None
    if "weight" in obj:
        weight = tuple(tuple(row) for row in _parse_weight(obj["weight"]).tolist())
    reps = _parse_repetitions(obj.get("repetitions", 1))
    return optimize.Objective(kind=obj["kind"], layer=layer, weight=weight, repetitions=reps)


def _parse_axes(obj) -> tuple[optimize.Axis, ...]:
    if not isinstance(obj, list) or not obj:
        raise ConfigError("config field 'axes' must be a non-empty array")
    axes = []
    for item in obj:
        if not isinstance(item, dict):
            raise ConfigError("each axis must be an object")
        _check_keys(item, ("name", "values"), "axis")
        if "name" not in item or not isinstance(item["name"], str):
            raise ConfigError("config field 'axis.name' must be a string")
        if "values" not in item or not isinstance(item["values"], list):
            raise ConfigError("config field 'axis.values' must be an array")
        values = tuple(_require_number(v, "axis.values") for v in item["values"])
        axes.append(optimize.Axis(name=item["name"], values=values))
    return tuple(axes)


def _resolve_workers(config_obj: dict) -> int:
    env = os.environ.get(THREADS_ENV_VAR)
    if env is not None:
        try:
            workers = int(env)
        except ValueError:
            workers = 0
        if workers < 1:
            raise ConfigError(
                f"{THREADS_ENV_VAR} must be a positive integer, got {env!r}"
            )
        return workers
    if "workers" in config_obj:
        workers = config_obj["workers"]
        if isinstance(workers, bool) or not isinstance(workers, int) or workers < 1:
            raise ConfigError("config field 'workers' must be a positive integer")
        return workers
    return 1


def _parse_search(
    config_obj: dict, command: str
) -> tuple[optimize.SearchSpec, optimize.Objective, int]:
    """The model/objective/axes/workers config of scan and of the custom
    optimize mode; `command` names the command in error messages."""
    _check_keys(config_obj, ("model", "objective", "axes", "workers"), command)
    for required in ("model", "objective", "axes"):
        if required not in config_obj:
            raise ConfigError(f"missing {command} field {required!r}")
    base = _parse_model(config_obj["model"])
    objective = _parse_objective(config_obj["objective"])
    axes = _parse_axes(config_obj["axes"])
    workers = _resolve_workers(config_obj)
    return optimize.SearchSpec(base=base, axes=axes), objective, workers


def run_scan(config_obj: dict) -> tuple[dict, int]:
    spec, objective, workers = _parse_search(config_obj, "scan")
    result = optimize.grid_scan(spec, objective, workers=workers)
    # "rows" stays the ScanResult: _json_text and _scan_csv write its columns
    payload = {
        "schema": _SCHEMAS["scan"],
        "model": _model_dict(spec.base),
        "objective": {
            "kind": objective.kind,
            "layer": objective.layer,
            "repetitions": objective.repetitions,
            "weight": None
            if objective.weight is None
            else [list(row) for row in objective.weight],
        },
        "axes": [{"name": a.name, "values": list(a.values)} for a in spec.axes],
        "workers": workers,
        "rows": result,
        "best": None
        if result.best is None
        else {
            "point": result.point(result.best),
            "value": result.values[result.best],
            "error": None,
        },
    }
    return payload, 0


def _scan_rows_text(scan: optimize.ScanResult) -> str:
    """The rows of a scan as json.dumps(sort_keys=True, indent=2) writes
    them inside the payload: one string template, its point keys sorted.
    Axis values and row values are finite, so float.__repr__ is the text
    json.dumps writes; each axis value is formatted once."""
    names = [axis.name for axis in scan.axes]
    points = ",\n".join(
        f"        {encode_basestring_ascii(n)}: {{{2 + names.index(n)}}}" for n in sorted(names)
    )
    template = (
        '    {{\n      "error": {0},\n      "point": {{\n'
        + points
        + '\n      }},\n      "value": {1}\n    }}'
    )
    axis_texts = [[float.__repr__(v) for v in axis.values] for axis in scan.axes]
    errors = scan.errors
    return ",\n".join(
        template.format(
            encode_basestring_ascii(errors[i]) if i in errors else "null",
            "null" if value is None else float.__repr__(value),
            *point,
        )
        for i, (point, value) in enumerate(zip(itertools.product(*axis_texts), scan.values))
    )


def _json_text(payload: dict) -> str:
    """payload as json.dumps writes it with sort_keys=True, indent=2, plus a
    newline, a scan's ScanResult under "rows" written as its list of
    {"error", "point", "value"} rows. Those rows come from _scan_rows_text,
    spliced into the dump of the rest: json.dumps writes indented output in
    pure Python, which costs more than the scan itself."""
    if "rows" not in payload:
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"
    # a newline never occurs inside a JSON string, so the slot of the
    # top-level "rows" key is the only match
    head = json.dumps({**payload, "rows": [None]}, sort_keys=True, indent=2)
    body = '\n  "rows": [\n' + _scan_rows_text(payload["rows"]) + "\n  ]"
    return head.replace('\n  "rows": [\n    null\n  ]', body, 1) + "\n"


def _scan_csv(scan: optimize.ScanResult) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([axis.name for axis in scan.axes] + ["value", "error"])
    axis_texts = [[f"{v:.17g}" for v in axis.values] for axis in scan.axes]
    writer.writerows(
        [*point, "" if value is None else f"{value:.17g}", scan.errors.get(i, "")]
        for i, (point, value) in enumerate(zip(itertools.product(*axis_texts), scan.values))
    )
    return buf.getvalue()


# -- optimize ------------------------------------------------------------


def run_optimize(config_obj: dict) -> tuple[dict, int]:
    """Recover the reference settings, or polish a custom objective.

    Config with "model"/"objective"/"axes" runs a grid scan plus local
    refinement; config with "r"/"x" (optional "q") runs the full
    find_known_configurations recovery with landmark labels.
    """
    if "model" in config_obj or "objective" in config_obj or "axes" in config_obj:
        spec, objective, workers = _parse_search(config_obj, "optimize")
        scan = optimize.grid_scan(spec, objective, workers=workers)
        if scan.best is None:
            raise SloppyModelError("objective failed at every grid point")
        refined = optimize.refine_local(spec, objective, scan.point(scan.best))
        payload = {
            "schema": _SCHEMAS["optimize"],
            "mode": "custom",
            "model": _model_dict(spec.base),
            "objective": {
                "kind": objective.kind,
                "layer": objective.layer,
                "repetitions": objective.repetitions,
            },
            "point": optimize.fold_angles(
                {k: float(v) for k, v in refined.point.items()}
            ),
            "value": float(refined.value),
            "scan_best_value": scan.values[scan.best],
            "refine_iterations": refined.iterations,
            "refine_capped": refined.capped,
        }
        return payload, 0

    _check_keys(config_obj, ("r", "x", "q"), "optimize")
    for required in ("r", "x"):
        if required not in config_obj:
            raise ConfigError(f"missing optimize field {required!r}")
    r = _require_number(config_obj["r"], "r")
    x = _require_number(config_obj["x"], "x")
    q = _require_number(config_obj.get("q", 0.0), "q")
    found = optimize.find_known_configurations(r, x, q)
    payload = {
        "schema": _SCHEMAS["optimize"],
        "mode": "find_known",
        "inputs": {"r": r, "x": x, "q": q},
        "maximum": found["maximum"],
        "optimal": found["optimal"],
        "landmarks": found["landmarks"],
    }
    return payload, 0


# -- compare -------------------------------------------------------------


def run_compare(
    r: float = DEFAULT_COMPARE_R,
    q_values: tuple[float, ...] = DEFAULT_COMPARE_Q,
    phi_values: tuple[float, ...] = DEFAULT_COMPARE_PHI,
    x_values: tuple[float, ...] = DEFAULT_COMPARE_X,
) -> dict:
    """Closed-form vs engine comparison over a displacement/mixer/squeezer grid.

    Returns the full payload: one record per config and matrix entry, plus a
    summary with the calibration residuals (the q-dependent part of Q11 on
    the phi = 0 slice, where the two layers genuinely agree) and the
    standing discrepancy notes.
    """
    configs = []
    try:
        for q, phi, x in itertools.product(q_values, phi_values, x_values):
            configs.append(ModelConfig(r=r, q=q, phi=phi, x=x))
    finally:  # the configs before one that ModelConfig rejects fail first
        reports = closed_forms.compare(configs)
    records = []
    offsets_q0 = {}
    for config, report in zip(configs, reports):
        for rec in report.records:
            records.append(
                {
                    "model": _model_dict(config),
                    "entry": rec.entry,
                    "closed_form": rec.closed_form,
                    "numeric": rec.numeric,
                    "abs_difference": rec.abs_difference,
                    "rel_difference": rec.rel_difference,
                }
            )
            if rec.entry == "Q11" and config.q == 0.0:
                offsets_q0[(config.phi, config.x)] = rec.closed_form - rec.numeric

    calibration = []
    for record in records:
        model = record["model"]
        key = (model["phi"], model["x"])
        if (
            record["entry"] == "Q11"
            and model["q"] > 0.0
            and model["phi"] == 0.0
            and key in offsets_q0
        ):
            offset = record["closed_form"] - record["numeric"]
            calibration.append(
                {
                    "q": model["q"],
                    "x": model["x"],
                    "entry": "Q11",
                    "residual": abs(offset - offsets_q0[key]),
                }
            )

    summary = {
        "record_count": len(records),
        "max_abs_difference": max(r_["abs_difference"] for r_ in records),
        "calibration": calibration,
        "calibration_max_residual": max(
            (c["residual"] for c in calibration), default=None
        ),
        "notes": list(COMPARE_NOTES),
    }
    return {
        "schema": _SCHEMAS["compare"],
        "grid": {
            "r": r,
            "q_values": list(q_values),
            "phi_values": list(phi_values),
            "x_values": list(x_values),
        },
        "records": records,
        "summary": summary,
    }


def _parse_value_list(obj, name: str) -> tuple[float, ...]:
    if not isinstance(obj, list) or not obj:
        raise ConfigError(f"config field {name!r} must be a non-empty array")
    return tuple(_require_number(v, name) for v in obj)


def run_compare_command(config_obj: dict) -> tuple[dict, int]:
    _check_keys(config_obj, ("r", "q_values", "phi_values", "x_values"), "compare")
    kwargs = {}
    if "r" in config_obj:
        kwargs["r"] = _require_number(config_obj["r"], "r")
    for name in ("q_values", "phi_values", "x_values"):
        if name in config_obj:
            kwargs[name] = _parse_value_list(config_obj[name], name)
    return run_compare(**kwargs), 0


# -- driver --------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    # route argparse usage errors through the config-error path (exit 1)
    def error(self, message):
        raise ConfigError(message)


@functools.cache  # one parser per process; argparse keeps no state between parses
def _build_parser() -> _Parser:
    parser = _Parser(prog="mzsloppy", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command in ("eval", "scan", "optimize", "compare"):
        p = sub.add_parser(command)
        p.add_argument("--config", required=True, help="path to a JSON config file")
        p.add_argument("--out", default=None, help="write output here, not stdout")
        p.add_argument("--format", default="json", choices=("csv", "json"))
    return parser


_RUNNERS = {
    "eval": run_eval,
    "scan": run_scan,
    "optimize": run_optimize,
    "compare": run_compare_command,
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.format == "csv" and args.command != "scan":
            raise ConfigError(
                f"format 'csv' is only available for scan, not {args.command!r}"
            )
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                config_obj = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(config_obj, dict):
            raise ConfigError("config file must hold a JSON object")
        payload, exit_code = _RUNNERS[args.command](config_obj)
    except ConfigError as exc:
        print(f"mzsloppy: error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, ArithmeticError) as exc:
        # a config the engine cannot evaluate, or a field value the model
        # or search types reject
        print(f"mzsloppy: error: {optimize.error_message(exc)}", file=sys.stderr)
        return 1
    except SloppyModelError as exc:
        print(f"mzsloppy: degenerate model: {exc}", file=sys.stderr)
        return 2

    if args.format == "csv":
        text = _scan_csv(payload["rows"])
    else:
        text = _json_text(payload)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"mzsloppy: error: cannot write output file: {exc}", file=sys.stderr)
            return 1
    else:
        sys.stdout.write(text)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
