"""Command-line front end.

Four subcommands, all driven by a JSON config file:

  mzsloppy eval     --config cfg.json [--out path] [--format json]
  mzsloppy scan     --config cfg.json [--out path] [--format json|csv]
  mzsloppy optimize --config cfg.json [--out path] [--format json]
  mzsloppy compare  --config cfg.json [--out path] [--format json]

Data goes to stdout (or --out), diagnostics to stderr. Exit code 0 means
success, 1 a usage or config error or a config the engine cannot evaluate
(say, squeezing so large that the state moments overflow, or any result
that is not a finite number: the JSON writer refuses Infinity and NaN for
every command), 2 a detected degenerate condition (eval: the model is
sloppy at the requested threshold). Output is deterministic: keys are
sorted and floats are written with full precision, so identical inputs give
byte-identical output. The csv format is only available for scan, whose
rows form a rectangular table.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import itertools
import json
import math
import operator
import os
import sys
from json.encoder import encode_basestring_ascii

import numpy as np

from . import closed_forms, metrology, optimize
from .exceptions import SloppyModelError
from .gaussian import physicality_check
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
    "The displacement-free part of the curvature entry U12 agrees.",
    "The displacement term of U12 is a defect of the reference layer: it "
    "depends on lam2, the last gate, which the state cannot. At the balanced "
    "setting the engine follows the Fock-space law "
    "U12 = -q^2 sinh(2x) sin(gamma - 2 beta).",
    "The engine is checked against Fock-space and fidelity oracles; the "
    "reference layer is transcribed verbatim, so these gaps are reported.",
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
    _check_keys(obj, MODEL_FIELDS, "model")
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
    phys = physicality_check(jet.state)
    (q,), (u,), (det,), _ = metrology.information_and_curvature(jet, determinant=True)  # one point
    if not (np.isfinite(q).all() and np.isfinite(u).all()):  # keeps eigh away from inf
        raise OverflowError("math range error")

    try:
        r = metrology.quantumness_general(q, u)  # quantumness_two_param's value at one point
        quantumness = {"general": r, "two_parameter": r}
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
            "symplectic_eigenvalues": phys.symplectic_eigenvalues.tolist(),
        },
        "information_matrix": q.tolist(),
        "information_determinant": det,
        "curvature_matrix": u.tolist(),
        "quantumness": quantumness,
        "sloppiness": {
            "eigenvalues": report.eigenvalues.tolist(),
            "threshold": report.threshold,
            "sloppy": report.sloppy,
            "null_directions": [d.tolist() for d in report.null_directions],
        },
    }
    if "weight" in config_obj:
        weight = _parse_weight(config_obj["weight"])
        reps = _parse_repetitions(config_obj.get("repetitions", 1))
        try:
            bounds = metrology.scalar_crb(q, u, weight, repetitions=reps)
            payload["scalar_bounds"] = {
                "weight": weight.tolist(),
                "repetitions": reps,
                "c_q": bounds.c_q,
                "bracket_upper": bounds.bracket_upper,
            }
        except SloppyModelError as exc:
            payload["scalar_bounds"] = {"error": str(exc)}
    elif "repetitions" in config_obj:
        raise ConfigError("config field 'repetitions' requires 'weight'")

    # a finite Q can still overflow its determinant, eigenvalues or bounds:
    # the JSON writer refuses those
    return payload, 2 if report.sloppy else 0


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
        "objective": dataclasses.asdict(objective),
        "axes": [{"name": a.name, "values": a.values} for a in spec.axes],
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


_ROW_HEAD = '    {\n      "error": '
_ROW_POINT = ',\n      "point": {\n'
_ROW_VALUE = '\n      },\n      "value": '
_ROW_SEP = "\n    },\n" + _ROW_HEAD
_ROW_END = "\n    }"


def _scan_rows_text(scan: optimize.ScanResult) -> str:
    """The rows of a scan as json.dumps(sort_keys=True, indent=2) writes
    them inside the payload, built from C-level joins: each axis line
    ("name": value) is formatted once, a row's point block joins its lines
    in sorted key order, and one join over the row pieces writes the table.
    Axis values and row values are finite, so repr is the text json.dumps
    writes."""
    names = [axis.name for axis in scan.axes]
    lines = [
        [f"        {encode_basestring_ascii(axis.name)}: {float.__repr__(v)}" for v in axis.values]
        for axis in scan.axes
    ]
    if len(lines) == 1:  # itemgetter of one index returns the line, not a tuple
        points = lines[0]
    else:
        in_key_order = operator.itemgetter(*sorted(range(len(names)), key=names.__getitem__))
        points = map(",\n".join, map(in_key_order, itertools.product(*lines)))
    values = list(map(repr, scan.values))
    errors = ["null"] * len(values)
    for i, message in scan.errors.items():
        values[i] = "null"
        errors[i] = encode_basestring_ascii(message)
    seps = itertools.chain(itertools.repeat(_ROW_SEP, len(values) - 1), (_ROW_END,))
    pieces = zip(errors, itertools.repeat(_ROW_POINT), points,
                 itertools.repeat(_ROW_VALUE), values, seps)
    return "".join(itertools.chain((_ROW_HEAD,), itertools.chain.from_iterable(pieces)))


def _dumps(obj) -> str:
    """json.dumps(obj, sort_keys=True, indent=2), which refuses Infinity and
    NaN with the OverflowError of an engine value that overflows."""
    try:
        return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)
    except ValueError as exc:
        if not str(exc).startswith("Out of range float values are not JSON compliant"):
            raise
        raise OverflowError("math range error") from exc


def _json_text(payload: dict) -> str:
    """payload as json.dumps writes it with sort_keys=True, indent=2, plus a
    newline. The table under "rows" (a scan's ScanResult) or "records"
    (compare's configs and reports) comes from its writer in _TABLES,
    spliced into the dump of the rest: json.dumps writes indented output in
    pure Python, which costs more than the scan or comparison itself. One
    join writes the output, so the table text and the output are its only
    full-size strings. A float that is not finite raises OverflowError,
    from either part (a scan's rows are finite once its axes, which the
    rest holds, are)."""
    for key, table_text in _TABLES.items():
        if key in payload:
            # a newline never occurs inside a JSON string, so the slot of the
            # top-level key is the only match
            opening = f'\n  "{key}": [\n'
            head = _dumps({**payload, key: [None]})
            before, _, after = head.partition(opening + "    null\n  ]")
            return "".join((before, opening, table_text(payload[key]), "\n  ]", after, "\n"))
    return _dumps(payload) + "\n"


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
        start = optimize.best_point(spec, objective, scan)
        refined = optimize.refine_local(spec, objective, start)
        payload = {
            "schema": _SCHEMAS["optimize"],
            "mode": "custom",
            "model": _model_dict(spec.base),
            "objective": {
                "kind": objective.kind,
                "layer": objective.layer,
                "repetitions": objective.repetitions,
            },
            "point": optimize.fold_angles(refined.point),
            "value": refined.value,
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

    Returns the full payload: each config with its report (written as one
    record per matrix entry), plus a summary with the calibration residuals
    (the q-dependent part of Q11 on the phi = 0 slice, where the two layers
    genuinely agree) and the standing discrepancy notes.
    """
    for name, given in (("q_values", q_values), ("phi_values", phi_values), ("x_values", x_values)):
        if len(given) == 0:
            raise ValueError(f"compare grid {name!r} is empty: it needs at least one value")
    configs = []
    try:
        for q, phi, x in itertools.product(q_values, phi_values, x_values):
            configs.append(ModelConfig(r=r, q=q, phi=phi, x=x))
    finally:  # the configs before one that ModelConfig rejects fail first
        reports = closed_forms.compare(configs)

    # records[0] is Q11; a later duplicate of a q = 0 config wins its key
    offsets = [report.records[0].closed_form - report.records[0].numeric for report in reports]
    offsets_q0 = {(c.phi, c.x): offset for c, offset in zip(configs, offsets) if c.q == 0.0}
    calibration = [
        {"q": c.q, "x": c.x, "entry": "Q11", "residual": abs(offset - offsets_q0[c.phi, c.x])}
        for c, offset in zip(configs, offsets)
        if c.q > 0.0 and c.phi == 0.0 and (c.phi, c.x) in offsets_q0
    ]
    summary = {
        "record_count": sum(len(report.records) for report in reports),
        "max_abs_difference": max(report.flags["max_abs_difference"] for report in reports),
        "calibration": calibration,
        "calibration_max_residual": max((c["residual"] for c in calibration), default=None),
        "notes": COMPARE_NOTES,
    }
    return {
        "schema": _SCHEMAS["compare"],
        "grid": {"r": r, "q_values": q_values, "phi_values": phi_values, "x_values": x_values},
        "records": list(zip(configs, reports)),
        "summary": summary,
    }


_RECORD_TEMPLATE = (
    '    {{\n      "abs_difference": {3},\n      "closed_form": {1},\n      "entry": {0},\n'
    '      "model": {{\n{model}\n      }},\n      "numeric": {2},\n'
    '      "rel_difference": {4}\n    }}'
)
_MODEL_KEYS = [f'        "{name}": ' for name in sorted(MODEL_FIELDS)]
_model_values = operator.attrgetter(*sorted(MODEL_FIELDS))


def _compare_records_text(records) -> str:
    """compare's (config, report) pairs as json.dumps(sort_keys=True,
    indent=2) writes their records inside the payload, each one
    {"model": config fields, **DiscrepancyRecord fields}: one string
    template, each config's "model" block formatted once. float.__repr__
    and encode_basestring_ascii give the text json.dumps writes, -0.0
    included; a float that is not finite raises the OverflowError that
    _dumps raises for one."""
    texts = []
    for config, report in records:
        values = _model_values(config)
        floats = [(rec.closed_form, rec.numeric, rec.abs_difference, rec.rel_difference)
                  for rec in report.records]
        if not all(map(math.isfinite, itertools.chain(values, *floats))):
            raise OverflowError("math range error")
        model = ",\n".join(key + float.__repr__(v) for key, v in zip(_MODEL_KEYS, values))
        for rec, f in zip(report.records, floats):
            entry = encode_basestring_ascii(rec.entry)
            texts.append(_RECORD_TEMPLATE.format(entry, *map(float.__repr__, f), model=model))
    return ",\n".join(texts)


# the tables _json_text writes itself, each by its own row writer
_TABLES = {"rows": _scan_rows_text, "records": _compare_records_text}


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
        text = _scan_csv(payload["rows"]) if args.format == "csv" else _json_text(payload)
    except ConfigError as exc:
        print(f"mzsloppy: error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, ArithmeticError) as exc:
        # a config the engine cannot evaluate, a result the JSON writer
        # refuses, or a field value the model or search types reject
        print(f"mzsloppy: error: {optimize.error_message(exc)}", file=sys.stderr)
        return 1
    except SloppyModelError as exc:
        print(f"mzsloppy: degenerate model: {exc}", file=sys.stderr)
        return 2

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
