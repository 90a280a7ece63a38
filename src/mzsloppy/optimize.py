"""Grid search, local refinement, and recovery of reference configurations.

The search layer treats the model as a black box: an objective maps a full
ModelConfig to a scalar and the scanner maximizes it over a rectangular grid
of config fields. A scan never builds a ModelConfig per point: its grid is
evaluated on its axis columns (ModelColumns.grid), one pass per sub-grid,
on either layer. Objectives evaluate on the closed-form reference layer by
default (fast, and its optima are the documented landmark settings); the
first-principles numeric layer is available for validation runs. Local
refinement is a guarded simplex polish that never returns a point worse
than its starting value. `find_known_configurations` wires both together to
recover the two distinguished interferometer settings (the
information-maximizing one and the quantumness-free one) and checks them
against the closed-form landmark values.
"""

from __future__ import annotations

import dataclasses
import math
import os

import numpy as np

from . import closed_forms, metrology
from .exceptions import SloppyModelError
from .gaussian import unstack
from .model import MODEL_FIELDS, ModelColumns, ModelConfig, row_errors

OBJECTIVE_KINDS = ("Q11", "Q22", "detQ", "minus_R", "weighted_CQ_inverse")
OBJECTIVE_LAYERS = ("closed_form", "numeric")

# label tolerances for recovered configurations
ANGLE_MATCH_TOL = 1e-3
VALUE_MATCH_RTOL = 1e-6

# what one configuration can fail with; anything else is a programming error
POINT_ERRORS = (ValueError, ArithmeticError, SloppyModelError)

# the error of a weighted_CQ_inverse point whose bound is zero
_ZERO = "weighted scalar bound is zero, its reciprocal objective is undefined"


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
            metrology.check_weight(w)
            object.__setattr__(self, "weight", w)
        elif self.weight is not None:
            raise ValueError(f"objective {self.kind} takes no weight matrix")
        metrology.check_repetitions(self.repetitions)
        if self.repetitions != 1 and self.kind != "weighted_CQ_inverse":  # only c_q reads it
            raise ValueError(f"objective {self.kind} takes no repetitions")


class _WorstOverPhase(Objective):
    """minus_R on its layer at its worst over the squeezer phase:
    -max(0, max R) over GAMMA_GRID (alpha = gamma, lam1 = 0). Used by
    find_known_configurations only; it is not an OBJECTIVE_KINDS entry, so
    no config can select it."""


THETA_GRID = tuple(i * math.pi / 8 for i in range(8))
PHI_GRID = tuple(i * math.pi / 8 for i in range(5))
GAMMA_GRID = tuple(i * math.pi / 8 for i in range(16))


def _phased(points: ModelConfig | ModelColumns) -> ModelColumns:
    """The points at every phase of GAMMA_GRID (alpha = gamma, lam1 = 0) on
    a trailing axis, so that a point's phases are consecutive rows."""
    fields = {name: np.asarray(getattr(points, name))[..., None] for name in MODEL_FIELDS}
    lead = np.broadcast(*fields.values()).shape  # the zeros keep every axis, alpha's and lam1's too
    fields.update(alpha=GAMMA_GRID, lam1=np.zeros(lead))
    return ModelColumns(fields)


def _rows(points, objective: Objective):
    """The rows the objective's layer pass covers: the _phased points for
    _WorstOverPhase, else the points."""
    return _phased(points) if isinstance(objective, _WorstOverPhase) else points


def _read(objective: Objective, matrices):
    """(values, errors) of the objective read off one layer pass at its
    _rows: (Q, U, errors), with det Q before the errors for detQ. The worst
    case folds its per-phase minus_R values; a point fails with its first
    phase's error. A non-finite value is its row's error."""
    if isinstance(objective, _WorstOverPhase):
        n = len(GAMMA_GRID)
        values, errors = _read(Objective("minus_R", objective.layer), matrices)
        r_max = (-values).reshape(-1, n).max(axis=1)
        values = -np.where(r_max > 0.0, r_max, 0.0)  # -0.0 where no phase has R > 0
        # the lowest phase of a point is written last, so its error stays
        errors = {k // n: errors[k] for k in sorted(errors, reverse=True)}
    else:
        q, u, *det, errors = matrices
        if objective.kind == "detQ":
            values = det[0]
        elif objective.kind == "Q11":
            values = q[:, 0, 0]
        elif objective.kind == "Q22":
            values = q[:, 1, 1]
        elif objective.kind == "minus_R":
            r, r_errors = metrology.quantumness_general(q, u)
            values, errors = -r, {**r_errors, **errors}
        else:  # weighted_CQ_inverse, undefined where the bound is zero
            bounds, crb_errors = metrology.scalar_crb(q, u, objective.weight, objective.repetitions)
            zero = dict.fromkeys((bounds.c_q <= 0).nonzero()[0].tolist(), SloppyModelError(_ZERO))
            values, errors = 1.0 / bounds.c_q, {**zero, **crb_errors, **errors}
    nonfinite = {
        i: ValueError(f"objective {objective.kind} is {float(values[i])}, not a finite number")
        for i in (~np.isfinite(values)).nonzero()[0].tolist()
        if i not in errors
    }
    return values, {**errors, **nonfinite}


def _objective_values(points, objective: Objective, matrices=None):
    """The figure of merit at one ModelConfig, or at each row of
    ModelColumns: (values, errors), NaN where the point failed, one batch.
    A row ModelConfig rejects fails with its message (row_errors); it is
    evaluated with the rest and its value dropped. Extreme settings
    overflow; the error says so, no warning is printed. The values are
    read (_read) off `matrices`, the objective's layer pass at the points'
    _rows where given, else off the one pass made here."""
    with np.errstate(all="ignore"):
        if matrices is None:
            matrices = closed_forms.layer_matrices(
                _rows(points, objective), objective.layer, objective.kind == "detQ"
            )
        values, errors = _read(objective, matrices)
    if not isinstance(points, ModelConfig):
        errors.update((i, ValueError(m)) for i, m in row_errors(points).items())
    if errors:
        values = np.array(values, dtype=float)
        values[list(errors)] = np.nan
    return values, errors


def objective_value(config: ModelConfig, objective: Objective) -> float:
    """Evaluate the figure of merit at one configuration.

    Raises SloppyModelError where the underlying quantity is undefined
    (singular information matrix, vanishing weighted bound), and
    ValueError where it overflows to a non-finite value.
    """
    return float(unstack(*_objective_values(config, objective), False))


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
class ScanResult:
    """A scan as columns over the grid product of `axes`, rows in
    lexicographic order: values[i] is row i's finite value, or None exactly
    where errors holds its message (keyed by row index, in row order); best
    is the index of the best row, or None when every row failed."""

    axes: tuple[Axis, ...]
    values: tuple[float | None, ...]
    errors: dict[int, str]
    best: int | None

    def point(self, i: int) -> dict:
        """Row i's axis values, {axis name: value}: the i-th element of the
        grid product."""
        index = np.unravel_index(i, [len(axis.values) for axis in self.axes])
        return {axis.name: axis.values[k] for axis, k in zip(self.axes, index)}


def _point_config(spec: SearchSpec, values: tuple[float, ...]) -> ModelConfig:
    return dataclasses.replace(spec.base, **{axis.name: v for axis, v in zip(spec.axes, values)})


def error_message(exc: Exception) -> str:
    """What a failed point's row, or a command that fails, reports for exc."""
    if isinstance(exc, OverflowError):
        # float ** and math.cosh word the same overflow differently
        return "OverflowError: math range error"
    if isinstance(exc, ArithmeticError):
        # e.g. "math range error" alone does not say what went wrong
        return f"{type(exc).__name__}: {exc}"
    return str(exc)


# the fewest rows a chunk of a split scan gets, per layer (the README's size
# tables): on 2 cores with BLAS on one thread, splitting an 8192-row numeric
# minus_R scan in two took it from 41.9 to 30.2 ms on rows, and broke even on
# the grid path on a busier machine; a closed-form split cost 0.5-1.7 ms at
# 8192-32 768 rows, and at 65 536 it paid in an earlier table (12.2 against
# 10.2 ms) but broke even within the noise on a shared second core
_MIN_CHUNK_ROWS = {"closed_form": 32768, "numeric": 4096}


def _chunks(spec: SearchSpec, count: int, floor: int) -> list[tuple[slice, list]]:
    """Split the spec's grid product into at most `count` sub-grids, each
    (its contiguous range of rows, its (field, values) axes): the first
    axis with more than one value is cut into blocks of near-equal size,
    none shorter than `floor` rows unless it is the only one."""
    axes = [(axis.name, axis.values) for axis in spec.axes]
    cut = next((k for k, (_, values) in enumerate(axes) if len(values) > 1), None)
    if cut is None:
        return [(slice(0, 1), axes)]
    name, values = axes[cut]
    stride = math.prod(len(v) for _, v in axes[cut + 1:])  # the rows of one value of the cut
    count = max(1, min(count, len(values) // -(-floor // stride)))
    size, extra = divmod(len(values), count)
    bounds = [i * size + min(i, extra) for i in range(count + 1)]
    return [
        (slice(a * stride, b * stride), axes[:cut] + [(name, values[a:b])] + axes[cut + 1:])
        for a, b in zip(bounds, bounds[1:])
    ]


def _scan_result(spec: SearchSpec, values, errors: dict) -> ScanResult:
    """The ScanResult of the spec's grid rows from their _objective_values
    (values, errors)."""
    scored = ~np.isnan(values)
    best = None
    if scored.any():
        ties = (values == values[scored].max()).nonzero()[0]
        index = np.unravel_index(ties, [len(axis.values) for axis in spec.axes] or [1])
        points = zip(*([axis.values[k] for k in i.tolist()] for axis, i in zip(spec.axes, index)))
        best = min(zip(points, ties.tolist()))[1] if spec.axes else 0
    rows = values.tolist()
    for i in errors:
        rows[i] = None
    text = {e: error_message(e) for e in set(errors.values())}  # rows may share an error
    messages = {i: text[e] for i, e in sorted(errors.items())}  # in row order
    return ScanResult(axes=spec.axes, values=tuple(rows), errors=messages, best=best)


def grid_scan(spec: SearchSpec, objective: Objective, workers: int = 1) -> ScanResult:
    """Exhaustive scan over the grid product, rows in lexicographic order.

    A row ModelConfig would reject carries ModelConfig's message
    (_objective_values). Pointwise failures are captured in the row's error
    field instead of aborting the scan. The best row maximizes the value;
    exact ties go to the numerically smallest value tuple (_scan_result).
    The grid is split into at most `workers` sub-grids of contiguous rows,
    at least _MIN_CHUNK_ROWS[layer] each (_chunks), each evaluated as one batch
    on its axis columns (ModelColumns.grid); the rows do not depend on the
    split. When workers > 1 the chunks run on a thread pool of at most
    os.cpu_count() threads, even a single chunk: a scan that asks for
    workers evaluates off the calling thread at every size, which
    benchmarks/selftest.py checks (worker-thread spans under grid_scan on
    scan_closed_form).
    """
    if isinstance(workers, bool) or not isinstance(workers, (int, np.integer)) or workers < 1:
        raise ValueError("workers must be a positive integer")
    chunks = _chunks(spec, workers, _MIN_CHUNK_ROWS[objective.layer])

    def _eval(chunk: tuple[slice, list]) -> tuple[np.ndarray, dict]:
        return _objective_values(ModelColumns.grid(spec.base, chunk[1]), objective)

    if workers == 1:
        parts = [_eval(chunk) for chunk in chunks]
    else:
        from concurrent.futures import ThreadPoolExecutor  # loaded only where a pool runs

        threads = min(len(chunks), os.cpu_count() or 1)
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(_eval, chunks))
    values = np.concatenate([part for part, _ in parts])
    errors = {c.start + k: e for (c, _), (_, part) in zip(chunks, parts) for k, e in part.items()}
    return _scan_result(spec, values, errors)


def best_point(spec: SearchSpec, objective: Objective, scan: ScanResult) -> dict:
    """The point of the scan's best row. Where every row failed, the search
    fails as row 0 does: objective_value raises its error."""
    if scan.best is None:
        objective_value(_point_config(spec, tuple(scan.point(0).values())), objective)
        raise SloppyModelError("objective failed at every grid point")  # math and numpy disagree
    return scan.point(scan.best)


def _supremum(spec: SearchSpec, objective: Objective) -> float | None:
    """An a-priori upper bound on the objective over the spec, or None (also
    where it does not fit in a float): 0 for minus_R, since R >= 0; for
    closed-form Q22 with r, x and q fixed, landmarks' q22_max plus, at
    q > 0, 2 q^2 e^(2r + 4x). Both terms are reached at
    theta = phi = gamma = beta = 0, so the bound is the supremum.

    q22_closed = 2 base^2 + 2 q^2 f22. |_mix_trig| <= 1 (Cauchy-Schwarz)
    gives base <= cosh 2(r + x) at every angle, so 2 base^2 <= q22_max.
    For f22 write C = cosh 2x, S = sinh 2x, c = cos^2 phi, s = sin^2 phi,
    E = C sin beta + S sin(gamma - beta) and
    H = C cos beta + S cos(gamma - beta). The printed f22 is
    cosh(2r) K + sinh(2r) P, P the bracket after sinh(2r) and
    K = 1 + c (cosh 4x + cos(gamma - 2 beta) sinh 4x - 1)
      = s + c |C + S e^(i (gamma - 2 beta))|^2,
    and an identity in the angles gives
    K - P = 2 (s cos beta + c E)^2
            + 2 c s ((cos beta - E) cos theta - (sin beta + H) sin theta)^2.
    So with r >= 0, f22 = e^(2r) K - sinh(2r) (K - P) <= e^(2r) K, and
    K <= s + c (C + S)^2 <= e^(4x).
    """
    if objective.kind == "minus_R":
        return 0.0
    if (objective.kind, objective.layer) != ("Q22", "closed_form"):
        return None
    if {"r", "x", "q"} & {axis.name for axis in spec.axes}:
        return None
    r, x, q = spec.base.r, spec.base.x, spec.base.q
    try:
        bound = closed_forms.landmarks(r, x)["q22_max"]
        if q > 0:  # so that every q = 0 bound is q22_max itself
            bound += 2 * q**2 * math.exp(2 * r + 4 * x)
    except OverflowError:
        return None
    return bound if math.isfinite(bound) else None


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
    start_value: float | None = None,
) -> RefineResult:
    """Simplex polish of a scan point over the spec axes.

    Guarded: the returned point is never worse than the start, and a
    candidate must beat the start by more than numerical noise to replace
    it (otherwise a flat optimum manifold would let round-off walk the
    point arbitrarily far from the scanned maximum). capped reports
    whether the iteration budget cut the polish short. A start already at
    the objective's a-priori bound (_supremum: R = 0 for minus_R,
    q22_max + 2 q^2 e^(2r + 4x) for closed-form Q22), to within that noise,
    cannot be beaten, runs no simplex and never imports scipy: 0 iterations.
    Given start_value, the objective's value at start_point (its scan
    row's, say), the start is not evaluated again.

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
    if start_value is None:
        start_value = objective_value(_point_config(spec, tuple(x0)), objective)
    margin = 1e-12 * max(1.0, abs(start_value))
    bound = _supremum(spec, objective)
    if bound is not None and start_value + margin >= bound:
        # no candidate can beat a start already at the objective's bound
        return RefineResult(dict(start_point), start_value, start_value, 0, False, False)

    def negated(vec: np.ndarray) -> float:
        try:
            return -objective_value(_point_config(spec, vec.tolist()), objective)
        except POINT_ERRORS:
            return math.inf  # out-of-domain probe, reject the step

    import scipy.optimize  # loaded by the first simplex that runs, not at import
    # Nelder-Mead's own simplex arithmetic overflows on huge coordinates;
    # negated already rejects every probe it cannot evaluate
    with np.errstate(all="ignore"):
        res = scipy.optimize.minimize(
            negated,
            x0,
            method="Nelder-Mead",
            options={"maxiter": max_iterations, "xatol": 1e-9, "fatol": 1e-12},
        )
    candidate = -float(res.fun)
    capped = not bool(res.success)
    if candidate > start_value + margin:
        coords = [float(v) for v in res.x]
        noise = 1e-12 * max(1.0, abs(candidate))
        for i, name in enumerate(names):
            base_value = float(getattr(spec.base, name))
            if coords[i] == base_value:
                continue
            probe = list(coords)
            probe[i] = base_value
            snapped = -negated(np.array(probe))
            if abs(snapped - candidate) <= noise:
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


_OFFSETS = (0.0, 0.4)  # the other axes' shift off the anchor, on each axis's two flatness slices


def _slice_bounds(spec: SearchSpec) -> list[int]:
    """Where each flatness slice starts among the probes, and where the last ends."""
    return np.cumsum([0] + [len(axis.values) for axis in spec.axes for _ in _OFFSETS]).tolist()


def _flatness_probes(spec: SearchSpec, anchor: dict) -> ModelColumns:
    """degenerate_axes' probes as (N,) columns, two slices per axis in axis
    order: all the axis's values on the anchor's slice, then on the one
    shifted by 0.4 on every other axis."""
    bounds = _slice_bounds(spec)
    slices = [(axis, offset) for axis in spec.axes for offset in _OFFSETS]
    fields = {name: getattr(spec.base, name) for name in MODEL_FIELDS}
    for axis in spec.axes:
        fields[axis.name] = column = np.empty(bounds[-1])
        for (probed, offset), a, b in zip(slices, bounds, bounds[1:]):
            column[a:b] = axis.values if probed is axis else float(anchor[axis.name]) + offset
    return ModelColumns(fields)


def _flat_axes(spec: SearchSpec, values: np.ndarray) -> list[str]:
    """The axes flat on both their slices, given the objective's values on
    the spec's _flatness_probes."""
    bounds = _slice_bounds(spec)

    def constant(part: np.ndarray) -> bool:  # a failed probe's NaN fails the bound
        return bool(part.max() - part.min() <= 1e-9 * max(1.0, np.abs(part).max()))

    flat = [constant(values[a:b]) for a, b in zip(bounds, bounds[1:])]
    return [axis.name for k, axis in enumerate(spec.axes) if flat[2 * k] and flat[2 * k + 1]]


def degenerate_axes(spec: SearchSpec, objective: Objective, anchor: dict) -> list[str]:
    """Axes along which the objective is globally flat near the anchor.

    A ridge that is flat only through the anchor itself (a one-slice
    accident) is not reported: the axis must also be flat on a slice with
    every other axis shifted off the anchor. Each axis's two slices, the
    anchor's and the one shifted by 0.4 on every other axis, probe all its
    values, and all slices of all axes are one batch. A probe that fails,
    a row ModelConfig rejects among them, leaves its slice not flat. This
    is the one-setting case of _degenerate_axes_together, whose one batch
    find_known_configurations fills with both of its settings' probes.
    """
    if not spec.axes:
        return []
    return _degenerate_axes_together([(spec, objective, anchor)])[0]


def _degenerate_axes_together(settings: list) -> list[list[str]]:
    """degenerate_axes(spec, objective, anchor) of each setting, for
    objectives on one layer over at least one axis, from one layer_matrices
    pass over all their probes at their objectives' _rows, with det Q where
    an objective is detQ: each objective reads its own slice of the pass."""
    probes = [_flatness_probes(spec, anchor) for spec, _, anchor in settings]
    batches = [_rows(p, objective) for p, (_, objective, _) in zip(probes, settings)]
    (layer,) = {objective.layer for _, objective, _ in settings}
    det = any(objective.kind == "detQ" for _, objective, _ in settings)
    with np.errstate(all="ignore"):
        *stacks, errors = closed_forms.layer_matrices(ModelColumns.concatenate(batches), layer, det)
    flags, start = [], 0
    for (spec, objective, _), p, batch in zip(settings, probes, batches):
        end = start + math.prod(batch.shape)
        mine = {i - start: e for i, e in errors.items() if start <= i < end}
        values, _ = _objective_values(p, objective, [m[start:end] for m in stacks] + [mine])
        flags.append(_flat_axes(spec, values))
        start = end
    return flags


def _report(refined: RefineResult, reference: dict, flat: list[str]):
    """A polished setting's folded point and the report fields both
    recovered settings share."""
    point = fold_angles(refined.point)
    return point, {
        "angles_match_reference": all(
            abs(point[k] - v) <= ANGLE_MATCH_TOL for k, v in reference.items()
        ),
        "degenerate_axes": flat,
    }


def find_known_configurations(r: float, x: float, q: float = 0.0) -> dict:
    """Recover the two distinguished settings at fixed squeezing strengths.

    "maximum": the (theta, phi, gamma) point maximizing the second
    diagonal information entry, labeled when it reproduces the closed-form
    landmark value and reference angles. "optimal": the (theta, phi) point
    minimizing the worst-case quantumness over the squeezer phase, labeled
    when that worst case is numerically zero at the reference angles, and
    "undefined" when no grid point can be evaluated. Both run the same
    scan, polish, fold and flatness probe, from the best grid point that
    can be evaluated; with none on the maximum's grid, the search fails
    as its row 0 does (best_point). The polish runs no simplex from a
    start at the objective's bound (_supremum), as the quantumness-free
    start at R = 0 and the maximum's start at theta = phi = gamma = 0
    usually are. Landmark values ride along for context. Degenerate (flat)
    axes are reported, not hidden.

    Without a simplex, one call makes two closed-form passes and one
    point with math. Pass 1 is the maximum's (theta, phi, alpha) grid on
    its axis columns (ModelColumns.grid); both scans read it, since that
    grid is the optimal's _phased (theta, phi) grid, row for row. The
    maximum's polish evaluates its start with math, so its value is
    math's; the optimal's reads its start value off its scan row. Pass 2
    comes after both polishes: both settings' flatness probes, as one
    batch (_degenerate_axes_together).
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
    axes = [(axis.name, axis.values) for axis in spec.axes]
    columns = ModelColumns.grid(base, axes)
    with np.errstate(all="ignore"):
        matrices = closed_forms.layer_matrices(columns, "closed_form")
    q22 = Objective(kind="Q22")
    scan = _scan_result(spec, *_objective_values(columns, q22, matrices))
    top = refine_local(spec, q22, best_point(spec, q22, scan), 400)
    settings = [(spec, q22, top.point)]

    # -- quantumness-free setting: minimize the worst case over the squeezer
    # phase, since a setting is only useful if no phase choice spoils it
    spec = SearchSpec(base=base, axes=spec.axes[:2])
    worst_case = _WorstOverPhase(kind="minus_R")
    columns = ModelColumns.grid(base, axes[:2])
    scan = _scan_result(spec, *_objective_values(columns, worst_case, matrices))
    if scan.best is not None:
        free = refine_local(
            spec, worst_case, scan.point(scan.best), 200, start_value=scan.values[scan.best]
        )
        settings.append((spec, worst_case, free.point))
    flat = _degenerate_axes_together(settings)

    point, maximum = _report(top, closed_forms.MAXIMUM_CONFIGURATION, flat[0])
    value_ok = abs(top.value - lm["q22_max"]) <= VALUE_MATCH_RTOL * abs(lm["q22_max"])
    maximum.update(
        point={"theta": point["theta"], "phi": point["phi"], "gamma": point["alpha"]},
        value=top.value,
        landmark_value=lm["q22_max"],
        label="maximum" if (maximum["angles_match_reference"] and value_ok) else "unlabeled",
        value_matches_landmark=value_ok,
        refine_iterations=top.iterations,
        refine_capped=top.capped,
    )
    if scan.best is None:
        # e.g. x = 0: both layers' information matrices are singular, so
        # the quantumness measure is undefined everywhere
        optimal = {"label": "undefined", "reason": scan.errors[0]}
    else:
        point, optimal = _report(free, closed_forms.OPTIMAL_CONFIGURATION, flat[1])
        worst = -free.value
        vanishes = worst <= 1e-6
        optimal.update(
            point=point,
            worst_case_quantumness=worst,
            label="optimal" if (optimal["angles_match_reference"] and vanishes) else "unlabeled",
            quantumness_vanishes=vanishes,
        )
    return {"maximum": maximum, "optimal": optimal, "landmarks": lm}
