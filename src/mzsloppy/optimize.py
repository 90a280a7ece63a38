"""Grid search, local refinement, and recovery of reference configurations.

The search layer treats the model as a black box: an objective maps a full
ModelConfig to a scalar and the scanner maximizes it over a rectangular grid
of config fields. Objectives evaluate on the closed-form reference layer by
default (fast, and its optima are the documented landmark settings); the
first-principles numeric layer is available for validation runs. Local
refinement is a guarded simplex polish that never returns a point worse
than its starting value. `find_known_configurations` wires both together to
recover the two distinguished interferometer settings (the
information-maximizing one and the quantumness-free one) and checks them
against the closed-form landmark values.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import itertools
import math

import numpy as np
import scipy.optimize

from . import closed_forms, metrology
from .exceptions import SloppyModelError
from .gaussian import first_errors, guarded_call, unstack
from .model import MODEL_FIELDS, ModelConfig, jacobian_analytic

OBJECTIVE_KINDS = ("Q11", "Q22", "detQ", "minus_R", "weighted_CQ_inverse")
OBJECTIVE_LAYERS = ("closed_form", "numeric")

# label tolerances for recovered configurations
ANGLE_MATCH_TOL = 1e-3
VALUE_MATCH_RTOL = 1e-6

# what one configuration can fail with; anything else is a programming error
POINT_ERRORS = (ValueError, ArithmeticError, SloppyModelError)


@dataclasses.dataclass(frozen=True)
class Objective:
    """Scalar figure of merit to maximize.

    kind selects the map: information-matrix entries Q11/Q22, the
    determinant detQ, the negated quantumness minus_R (so maximizing it
    drives the incompatibility measure down), or weighted_CQ_inverse, the
    reciprocal of the weighted scalar bound (precision rather than
    uncertainty, so that bigger is again better). layer picks the
    evaluation route: the closed-form expressions or the numeric engine.
    """

    kind: str
    layer: str = "closed_form"
    weight: tuple[tuple[float, ...], ...] | None = None
    repetitions: int = 1

    def __post_init__(self):
        if self.kind not in OBJECTIVE_KINDS:
            raise ValueError(
                f"unknown objective kind {self.kind!r}; expected one of {OBJECTIVE_KINDS}"
            )
        if self.layer not in OBJECTIVE_LAYERS:
            raise ValueError(
                f"unknown objective layer {self.layer!r}; expected one of {OBJECTIVE_LAYERS}"
            )
        if self.kind == "weighted_CQ_inverse":
            if self.weight is None:
                raise ValueError("objective weighted_CQ_inverse requires a weight matrix")
            w = tuple(tuple(float(v) for v in row) for row in self.weight)
            object.__setattr__(self, "weight", w)
        elif self.weight is not None:
            raise ValueError(f"objective {self.kind} takes no weight matrix")
        if self.repetitions < 1:
            raise ValueError("repetitions must be a positive integer")


def _matrices(configs: list[ModelConfig], objective: Objective):
    """Stacked (information, curvature) matrices on the requested layer,
    with per-point errors.

    The numeric layer propagates all configs in one pass; the closed-form
    layer evaluates its scalar expressions point by point.
    """
    if objective.layer == "numeric":
        jet = jacobian_analytic(configs)
        q, q_errors = metrology.qfi_matrix(jet)
        u, u_errors = metrology.uhlmann_matrix(jet)
        return q, u, first_errors(q_errors, u_errors)
    q = np.full((len(configs), 2, 2), np.nan)
    u = np.full((len(configs), 2, 2), np.nan)
    errors = [None] * len(configs)
    for i, config in enumerate(configs):
        try:
            inp = closed_forms.ClosedFormInputs.from_model_config(config)
            q_i, u12 = closed_forms.closed_q_matrix(inp), closed_forms.u12_closed(inp)
        except POINT_ERRORS as exc:
            errors[i] = exc
            continue
        q[i], u[i] = q_i, ((0.0, u12), (-u12, 0.0))
    return q, u, tuple(errors)


def _objective_values(configs: list[ModelConfig], objective: Objective):
    """The figure of merit at each config: (values, errors), NaN where the
    point failed, one batch."""
    q, u, errors = _matrices(configs, objective)
    if objective.kind == "Q11":
        return q[:, 0, 0], errors
    if objective.kind == "Q22":
        return q[:, 1, 1], errors
    if objective.kind == "detQ":
        return guarded_call(np.linalg.det, errors, q)
    if objective.kind == "minus_R":
        r, r_errors = metrology.quantumness_general(q, u)
        return -r, first_errors(errors, r_errors)
    w = np.asarray(objective.weight, dtype=float)
    values = np.full(len(configs), np.nan)
    errors = list(errors)
    for i in [i for i, e in enumerate(errors) if e is None]:
        try:
            bounds = metrology.scalar_crb(q[i], u[i], w, repetitions=objective.repetitions)
            if bounds.c_q <= 0:
                raise SloppyModelError(
                    "weighted scalar bound is zero, its reciprocal objective is undefined"
                )
            values[i] = 1.0 / bounds.c_q
        except POINT_ERRORS as exc:
            errors[i] = exc
    return values, tuple(errors)


def objective_value(config: ModelConfig, objective: Objective) -> float:
    """Evaluate the figure of merit at one configuration.

    Raises SloppyModelError where the underlying quantity is undefined
    (singular information matrix, vanishing weighted bound).
    """
    return float(unstack(*_objective_values([config], objective), False))


@dataclasses.dataclass(frozen=True)
class Axis:
    """One searched config field with its grid values, in scan order."""

    name: str
    values: tuple[float, ...]

    def __post_init__(self):
        if self.name not in MODEL_FIELDS:
            raise ValueError(f"unknown axis {self.name!r}; expected a model field")
        vals = tuple(float(v) for v in self.values)
        if not vals:
            raise ValueError(f"axis {self.name!r} has no values")
        if not all(math.isfinite(v) for v in vals):
            raise ValueError(f"axis {self.name!r} has a non-finite value")
        object.__setattr__(self, "values", vals)


@dataclasses.dataclass(frozen=True)
class SearchSpec:
    base: ModelConfig
    axes: tuple[Axis, ...]

    def __post_init__(self):
        object.__setattr__(self, "axes", tuple(self.axes))
        names = [a.name for a in self.axes]
        if len(set(names)) != len(names):
            raise ValueError("search axes must name distinct model fields")


@dataclasses.dataclass(frozen=True)
class ScanRow:
    point: dict
    value: float | None
    error: str | None


@dataclasses.dataclass(frozen=True)
class ScanResult:
    rows: tuple[ScanRow, ...]
    best: ScanRow | None


def _point_config(spec: SearchSpec, values: tuple[float, ...]) -> ModelConfig:
    updates = {axis.name: v for axis, v in zip(spec.axes, values)}
    return dataclasses.replace(spec.base, **updates)


def _row_error(exc: Exception) -> str:
    if isinstance(exc, ArithmeticError):
        # e.g. "math range error" alone does not say what went wrong
        return f"{type(exc).__name__}: {exc}"
    return str(exc)


def _chunks(points: list, count: int) -> list[list]:
    """Split points into at most `count` contiguous, non-empty chunks of
    near-equal size."""
    size, extra = divmod(len(points), count)
    bounds = [i * size + min(i, extra) for i in range(count + 1)]
    return [points[a:b] for a, b in zip(bounds, bounds[1:]) if b > a]


def grid_scan(spec: SearchSpec, objective: Objective, workers: int = 1) -> ScanResult:
    """Exhaustive scan over the grid product, rows in lexicographic order.

    Pointwise failures are captured in the row's error field instead of
    aborting the scan. The best row maximizes the value; exact ties go to
    the numerically smallest value tuple. The points are split into
    `workers` contiguous chunks, each evaluated as one batch (on a thread
    pool when workers > 1); the rows do not depend on the split.
    """
    if workers < 1:
        raise ValueError("workers must be a positive integer")
    grids = [axis.values for axis in spec.axes]
    points = list(itertools.product(*grids)) if grids else [()]

    def _eval(chunk: list) -> list[tuple[float | None, str | None]]:
        outcomes: list = [None] * len(chunk)
        configs, where = [], []
        for i, values in enumerate(chunk):
            try:
                configs.append(_point_config(spec, values))
                where.append(i)
            except ValueError as exc:
                outcomes[i] = (None, str(exc))
        # extreme settings overflow; the row shows it, no warning is printed
        with np.errstate(all="ignore"):
            values, errors = _objective_values(configs, objective)
        for i, value, error in zip(where, values.tolist(), errors):
            outcomes[i] = (None, _row_error(error)) if error is not None else (value, None)
        return outcomes

    chunks = _chunks(points, workers)
    if workers == 1:
        outcomes = [o for chunk in chunks for o in _eval(chunk)]
    else:
        with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
            outcomes = [o for part in pool.map(_eval, chunks) for o in part]

    rows = tuple(
        ScanRow(
            point={axis.name: v for axis, v in zip(spec.axes, values)},
            value=value,
            error=error,
        )
        for values, (value, error) in zip(points, outcomes)
    )
    best = None
    best_key: tuple | None = None
    for values, row in zip(points, rows):
        if row.value is None or math.isnan(row.value):
            continue
        key = (-row.value, values)
        if best_key is None or key < best_key:
            best, best_key = row, key
    return ScanResult(rows=rows, best=best)


@dataclasses.dataclass(frozen=True)
class RefineResult:
    point: dict
    value: float
    start_value: float
    iterations: int
    capped: bool
    improved: bool


def refine_local(
    spec: SearchSpec,
    objective: Objective,
    start_point: dict,
    max_iterations: int = 400,
) -> RefineResult:
    """Simplex polish of a scan point over the spec axes.

    Guarded: the returned point is never worse than the start, and a
    candidate must beat the start by more than numerical noise to replace
    it (otherwise a flat optimum manifold would let round-off walk the
    point arbitrarily far from the scanned maximum). capped reports
    whether the iteration budget cut the polish short.

    Accepted candidates are canonicalized along flat directions: when
    resetting one coordinate to its value in the base configuration leaves
    the objective unchanged to within round-off, the base value is kept.
    Objectives here have exactly flat ridges (a transmissive mixer makes
    its internal phase irrelevant, for one), and the simplex would
    otherwise halt at an arbitrary point of the ridge.
    """
    names = [axis.name for axis in spec.axes]
    missing = [n for n in names if n not in start_point]
    if missing:
        raise ValueError(f"start point is missing axes {missing}")
    x0 = np.array([float(start_point[n]) for n in names])
    start_value = objective_value(_point_config(spec, tuple(x0)), objective)

    def negated(vec: np.ndarray) -> float:
        try:
            return -objective_value(_point_config(spec, tuple(vec)), objective)
        except POINT_ERRORS:
            return math.inf  # out-of-domain probe, reject the step

    res = scipy.optimize.minimize(
        negated,
        x0,
        method="Nelder-Mead",
        options={"maxiter": max_iterations, "xatol": 1e-9, "fatol": 1e-12},
    )
    candidate = -float(res.fun)
    capped = not bool(res.success)
    margin = 1e-12 * max(1.0, abs(start_value))
    if math.isfinite(candidate) and candidate > start_value + margin:
        coords = [float(v) for v in res.x]
        noise = 1e-12 * max(1.0, abs(candidate))
        for i, name in enumerate(names):
            base_value = float(getattr(spec.base, name))
            if coords[i] == base_value:
                continue
            probe = list(coords)
            probe[i] = base_value
            snapped = -negated(np.array(probe))
            if math.isfinite(snapped) and abs(snapped - candidate) <= noise:
                coords, candidate = probe, snapped
        point = dict(start_point)
        point.update({n: v for n, v in zip(names, coords)})
        return RefineResult(point, candidate, start_value, int(res.nit), capped, True)
    return RefineResult(
        dict(start_point), start_value, start_value, int(res.nit), capped, False
    )


def fold_angles(point: dict) -> dict:
    """Map angle fields onto the fundamental domain.

    theta folds mod pi into [0, pi); phi reflects into [0, pi/2]; the
    squeezer-phase combination (gamma, or alpha standing in for it when
    lam1 = 0) folds mod 2 pi into [0, 2 pi). The objectives are invariant
    under these moves, so folded and raw points are the same setting.
    """
    folded = dict(point)
    if "theta" in folded:
        folded["theta"] = float(folded["theta"]) % math.pi
    if "phi" in folded:
        p = float(folded["phi"]) % math.pi
        if p > math.pi / 2:
            p = math.pi - p
        folded["phi"] = p
    for key in ("gamma", "alpha"):
        if key in folded:
            folded[key] = float(folded[key]) % (2 * math.pi)
    return folded


def _axis_flat(
    spec: SearchSpec, objective: Objective, axis: Axis, anchor: dict, offset: float
) -> bool:
    """True when the objective is constant along this axis at the anchor
    slice shifted by `offset` on every other axis."""
    probe = dict(anchor)
    for other in spec.axes:
        if other.name != axis.name:
            probe[other.name] = float(probe[other.name]) + offset
    vals = []
    for v in axis.values:
        probe_point = dict(probe)
        probe_point[axis.name] = v
        cfg = dataclasses.replace(spec.base, **probe_point)
        try:
            vals.append(objective_value(cfg, objective))
        except POINT_ERRORS:
            return False
    spread = max(vals) - min(vals)
    return spread <= 1e-9 * max(1.0, max(abs(v) for v in vals))


def degenerate_axes(spec: SearchSpec, objective: Objective, anchor: dict) -> list[str]:
    """Axes along which the objective is globally flat near the anchor.

    A ridge that is flat only through the anchor itself (a one-slice
    accident) is not reported: the axis must also be flat on a slice with
    every other axis shifted off the anchor.
    """
    flat = []
    for axis in spec.axes:
        if _axis_flat(spec, objective, axis, anchor, 0.0) and _axis_flat(
            spec, objective, axis, anchor, 0.4
        ):
            flat.append(axis.name)
    return flat


def _worst_case_quantumness(
    base: ModelConfig, theta: float, phi: float, gamma_grid: tuple[float, ...]
) -> float:
    """Largest closed-form quantumness over the squeezer-phase grid at
    fixed (theta, phi); raises the first phase's error, if any."""
    configs = [
        dataclasses.replace(base, theta=theta, phi=phi, alpha=gamma, lam1=0.0)
        for gamma in gamma_grid
    ]
    values, errors = _objective_values(configs, Objective(kind="minus_R"))
    for error in errors:
        if error is not None:
            raise error
    return max([0.0] + (-values).tolist())


THETA_GRID = tuple(i * math.pi / 8 for i in range(8))
PHI_GRID = tuple(i * math.pi / 8 for i in range(5))
GAMMA_GRID = tuple(i * math.pi / 8 for i in range(16))


def find_known_configurations(r: float, x: float, q: float = 0.0) -> dict:
    """Recover the two distinguished settings at fixed squeezing strengths.

    "maximum": the (theta, phi, gamma) point maximizing the second
    diagonal information entry, scanned then polished, labeled when it
    reproduces the closed-form landmark value and reference angles.
    "optimal": the (theta, phi) point minimizing the worst-case
    quantumness over the squeezer phase, labeled when that worst case is
    numerically zero at the reference angles. Landmark values ride along
    for context. Degenerate (flat) axes are reported, not hidden.
    """
    if r < 0 or x < 0 or q < 0:
        raise ValueError("r, x and q must be non-negative")
    base = ModelConfig(r=r, x=x, q=q)
    lm = closed_forms.landmarks(r, x, q)

    # -- information-maximizing setting, scanned in (theta, phi, alpha) with
    # lam1 = 0 so the alpha axis is exactly the invariant phase combination
    spec = SearchSpec(
        base=base,
        axes=(
            Axis("theta", THETA_GRID),
            Axis("phi", PHI_GRID),
            Axis("alpha", GAMMA_GRID),
        ),
    )
    objective = Objective(kind="Q22")
    scan = grid_scan(spec, objective)
    if scan.best is None:
        raise SloppyModelError("no grid point yielded a finite information entry")
    refined = refine_local(spec, objective, scan.best.point)
    max_point = fold_angles(refined.point)
    max_value = refined.value
    reference = {"theta": 0.0, "phi": 0.0, "alpha": 0.0}
    angles_ok = all(
        abs(max_point[k] - reference[k]) <= ANGLE_MATCH_TOL for k in reference
    )
    value_ok = abs(max_value - lm["q22_max"]) <= VALUE_MATCH_RTOL * abs(lm["q22_max"])
    maximum = {
        "point": {
            "theta": max_point["theta"],
            "phi": max_point["phi"],
            "gamma": max_point["alpha"],
        },
        "value": max_value,
        "landmark_value": lm["q22_max"],
        "label": "maximum" if (angles_ok and value_ok) else "unlabeled",
        "angles_match_reference": angles_ok,
        "value_matches_landmark": value_ok,
        "degenerate_axes": degenerate_axes(spec, objective, refined.point),
        "refine_iterations": refined.iterations,
        "refine_capped": refined.capped,
    }

    # -- quantumness-free setting: minimize the worst case over the squeezer
    # phase, since a setting is only useful if no phase choice spoils it
    try:
        optimal = _find_optimal_setting(base)
    except SloppyModelError as exc:
        # e.g. x = 0: both layers' information matrices are singular, so
        # the quantumness measure is undefined everywhere
        optimal = {"label": "undefined", "reason": str(exc)}
    return {"maximum": maximum, "optimal": optimal, "landmarks": lm}


def _find_optimal_setting(base: ModelConfig) -> dict:
    best_pair = None
    best_worst = math.inf
    for theta in THETA_GRID:
        for phi in PHI_GRID:
            worst = _worst_case_quantumness(base, theta, phi, GAMMA_GRID)
            if worst < best_worst:
                best_pair, best_worst = (theta, phi), worst

    def pair_objective(vec: np.ndarray) -> float:
        try:
            return _worst_case_quantumness(base, float(vec[0]), float(vec[1]), GAMMA_GRID)
        except SloppyModelError:
            return math.inf

    res = scipy.optimize.minimize(
        pair_objective,
        np.array(best_pair),
        method="Nelder-Mead",
        options={"maxiter": 200, "xatol": 1e-9, "fatol": 1e-12},
    )
    margin = 1e-12 * max(1.0, abs(best_worst))
    if math.isfinite(res.fun) and float(res.fun) < best_worst - margin:
        opt_pair = (float(res.x[0]), float(res.x[1]))
        opt_worst = float(res.fun)
    else:
        opt_pair, opt_worst = best_pair, best_worst
    opt_point = fold_angles({"theta": opt_pair[0], "phi": opt_pair[1]})
    opt_reference = {"theta": math.pi / 2, "phi": math.pi / 4}
    opt_angles_ok = all(
        abs(opt_point[k] - opt_reference[k]) <= ANGLE_MATCH_TOL for k in opt_reference
    )
    opt_zero = opt_worst <= 1e-6

    # flatness probe for the pair axes against the worst-case score
    flat_pair = []
    for name in ("theta", "phi"):

        def _slice_flat(offset: float) -> bool:
            vals = []
            for v in (THETA_GRID if name == "theta" else PHI_GRID):
                t = v if name == "theta" else opt_pair[0] + offset
                p = v if name == "phi" else opt_pair[1] + offset
                vals.append(_worst_case_quantumness(base, t, p, GAMMA_GRID))
            return max(vals) - min(vals) <= 1e-9 * max(1.0, max(abs(v) for v in vals))

        if _slice_flat(0.0) and _slice_flat(0.4):
            flat_pair.append(name)

    return {
        "point": opt_point,
        "worst_case_quantumness": opt_worst,
        "label": "optimal" if (opt_angles_ok and opt_zero) else "unlabeled",
        "angles_match_reference": opt_angles_ok,
        "quantumness_vanishes": opt_zero,
        "degenerate_axes": flat_pair,
    }
