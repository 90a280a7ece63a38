"""Closed-form reference layer and the cross-check engine.

The expressions in this module are a deliberately verbatim transcription of
the reference analytic results for this interferometer (information-matrix
entries, curvature entry, landmark values, ratio identities, displacement
coefficients f22/f12). They are kept as written, typos and all: no symbolic
simplification, no re-derivation, no reconciliation with the numeric layer.
Each expression takes `inp`, one ModelConfig or configurations as
ModelColumns, to whose shape it broadcasts, and reads the squeezer phase
and lam1 only through
inp.gamma = alpha + 2*lam1; lam2 enters only the displacement term of
u12_closed. The one edit to the transcription is the prefix of its
functions: `xp` is math for a ModelConfig, which gives a float and raises
on overflow, and numpy for columns, which gives an array with inf or NaN
where a row overflows (the caller checks). One point stays on math,
which costs microseconds where a numpy pass costs hundreds.
`layer_matrices` is the one evaluator of (Q, U, errors) on either layer,
for the search and for `compare`, which reads each layer as one stack.
`compare` reports differences between the two layers and never asserts
agreement; the known tensions are documented in the report notes and in the
README.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Union

import numpy as np

from . import metrology
from .model import GAMMA_MESSAGE, ModelColumns, ModelConfig, jacobian_analytic

# one configuration, evaluated with math, or columns of them, with numpy
Inputs = Union[ModelConfig, ModelColumns]

# the layers layer_matrices evaluates: these expressions, and the engine
LAYERS = ("closed_form", "numeric")


def _xp(inp: Inputs):
    return math if isinstance(inp, ModelConfig) else np


def _mix_trig(inp: Inputs):
    xp = _xp(inp)
    # recurring bracket: cos(t) cos(g+t) + cos(2f) sin(t) sin(g+t)
    return xp.cos(inp.theta) * xp.cos(inp.gamma + inp.theta) + xp.cos(
        2 * inp.phi
    ) * xp.sin(inp.theta) * xp.sin(inp.gamma + inp.theta)


def q11_closed(inp: Inputs):
    xp = _xp(inp)
    # the printed "sin(2 phi)^2" is read as sin^2(2 phi)
    bracket = xp.cos(2 * inp.beta) * xp.cos(2 * inp.phi) + xp.cos(
        2 * inp.beta + inp.theta
    ) * xp.sin(inp.theta) * xp.sin(2 * inp.phi) ** 2
    return 2 * xp.cosh(2 * inp.r) ** 2 + 2 * inp.q**2 * (
        xp.cosh(2 * inp.r) + bracket * xp.sinh(2 * inp.r)
    )


def q22_closed(inp: Inputs):
    xp = _xp(inp)
    base = xp.cosh(2 * inp.r) * xp.cosh(2 * inp.x) + xp.sinh(
        2 * inp.r
    ) * _mix_trig(inp) * xp.sinh(2 * inp.x)
    return 2 * base**2 + 2 * inp.q**2 * f22(inp)


def q12_closed(inp: Inputs):
    xp = _xp(inp)
    return (
        2 * xp.cosh(2 * inp.r) ** 2
        + 2
        * (2 - xp.sin(2 * inp.phi) ** 2 * xp.sin(inp.theta) ** 2)
        * xp.sinh(2 * inp.r) ** 2
        * xp.sinh(inp.x) ** 2
        + _mix_trig(inp) * xp.sinh(4 * inp.r) * xp.sinh(2 * inp.x)
        + 2 * inp.q**2 * f12(inp)
    )


def f22(inp: Inputs):
    """Displacement coefficient of q22_closed (enters as +2 q^2 f22)."""
    xp = _xp(inp)
    r, b, t, f, x, g = inp.r, inp.beta, inp.theta, inp.phi, inp.x, inp.gamma
    inner = 2 * xp.cosh(2 * x) * (
        2 * xp.cos(2 * b + t) * xp.sin(t) * xp.sin(f) ** 2
        + xp.sinh(2 * x) * _mix_trig(inp)
    ) + xp.sinh(2 * x) * (
        4 * xp.cos(g + t) * xp.sin(t) * xp.sin(f) ** 2
        + 2
        * xp.sinh(2 * x)
        * xp.cos(g - 2 * b)
        * (xp.cos(g) - 2 * xp.sin(t) * xp.sin(g + t) * xp.sin(f) ** 2)
    )
    return xp.sinh(2 * r) * (
        xp.cos(2 * b) * xp.cos(2 * f) + xp.cos(f) ** 2 * inner
    ) + xp.cosh(2 * r) * (
        1
        + xp.cos(f) ** 2
        * (xp.cosh(4 * x) + xp.cos(g - 2 * b) * xp.sinh(4 * x) - 1)
    )


def f12(inp: Inputs):
    """Displacement coefficient of q12_closed (enters as +2 q^2 f12)."""
    xp = _xp(inp)
    r, b, t, f, x, g = inp.r, inp.beta, inp.theta, inp.phi, inp.x, inp.gamma
    middle = (
        2
        * xp.sin(t)
        * (
            2
            * (
                xp.cos(2 * b + t) * xp.cosh(x) ** 2
                - xp.sin(2 * b + t) * xp.sinh(x) ** 2
            )
            - xp.sinh(2 * x) * (xp.sin(g + t) - xp.cos(g + t))
        )
        * xp.cos(f) ** 2
        * xp.sin(f) ** 2
    )
    return (
        xp.sinh(2 * r)
        * (
            xp.cos(2 * b) * (2 * xp.cosh(x) ** 2 * xp.cos(f) ** 2 - 1)
            + middle
            + xp.sinh(2 * x) * xp.cos(f) ** 2 * xp.cos(g)
        )
        + xp.cosh(2 * r)
        + 2
        * xp.cosh(2 * r)
        * xp.sinh(x)
        * xp.cos(f) ** 2
        * (xp.sinh(x) + xp.cos(g - 2 * b) * xp.cosh(x))
    )


def u12_closed(inp: Inputs):
    xp = _xp(inp)
    return 2 * (
        xp.cos(inp.gamma + inp.theta) * xp.cos(2 * inp.phi) * xp.sin(inp.theta)
        - xp.cos(inp.theta) * xp.sin(inp.gamma + inp.theta)
    ) * xp.sinh(2 * inp.r) * xp.sinh(2 * inp.x) - 4 * inp.q**2 * xp.cos(
        inp.phi
    ) ** 2 * xp.sin(2 * (inp.beta - inp.lam2)) * xp.sinh(2 * inp.x)


# configurations behind the landmark values
MAXIMUM_CONFIGURATION = {"theta": 0.0, "phi": 0.0, "alpha": 0.0}
OPTIMAL_CONFIGURATION = {"theta": math.pi / 2, "phi": math.pi / 4}


def landmarks(r: float, x: float, q: float = 0.0) -> dict[str, float]:
    """Named landmark values and ratio identities at the given (r, x, q)."""
    if r < 0 or x < 0:
        raise ValueError("r and x must be non-negative")
    return {
        "q22_max": 2 * math.cosh(2 * (r + x)) ** 2,
        "q22_opt": 2 * math.cosh(2 * r) ** 2 * math.cosh(2 * x) ** 2,
        "q22_inf": 1 + math.cosh(4 * (r - x)),
        "q11_max": 2 * math.cosh(2 * r) ** 2 + 2 * math.exp(2 * r) * q**2,
        "ratio_opt_max": 0.25
        * (1 + math.cosh(2 * (r - x)) / math.cosh(2 * (r + x))) ** 2,
        "ratio_inf_opt": (math.tanh(2 * x) * math.tanh(2 * r) - 1) ** 2,
    }


def closed_q_matrix(inp: Inputs) -> np.ndarray:
    """Reference-layer 2x2 information matrix (displacement terms included);
    (*shape, 2, 2) for ModelColumns, whose entries each span only the axes
    they read until broadcast here."""
    q11, q22, q12 = q11_closed(inp), q22_closed(inp), q12_closed(inp)
    q = np.empty((2, 2) + np.broadcast(q11, q22, q12).shape)
    q[0, 0], q[0, 1], q[1, 0], q[1, 1] = q11, q12, q12, q22
    return np.moveaxis(q, (0, 1), (-2, -1))


def _point_matrices(config: ModelConfig, determinant: bool):
    """layer_matrices on the closed-form layer for one ModelConfig, the
    entries and their checks in math: numpy's per-call cost on a 2x2 stack
    is larger than the closed forms' own (a simplex polish makes hundreds
    of these calls)."""
    try:
        entries = [f(config) for f in (q11_closed, q12_closed, q22_closed, u12_closed)]
    except (ValueError, ArithmeticError):  # math overflows or leaves its domain
        entries = [math.nan] * 4
    q11, q12, q22, u12 = entries
    errors = {}
    if not all(map(math.isfinite, entries)):
        gamma_ok = math.isfinite(config.alpha + 2.0 * config.lam1)
        errors[0] = OverflowError("math range error") if gamma_ok else ValueError(GAMMA_MESSAGE)
    q = np.array([[[q11, q12], [q12, q22]]])
    u = np.array([[[0.0, u12], [-u12, 0.0]]])
    return (q, u, np.linalg.det(q), errors) if determinant else (q, u, errors)


def layer_matrices(points: Inputs, layer: str, determinant: bool = False):
    """Stacked (Q, U, errors) on a layer, or (Q, U, det Q, errors) with
    determinant, for one ModelConfig (a stack of one) or ModelColumns,
    whose stack is its rows in C order.

    The numeric layer propagates all points in one pass; its det Q is the
    kernel's, the closed-form layer's the det of its Q. The closed-form
    layer evaluates one ModelConfig with math (_point_matrices), where an
    error of math is a NaN, and columns with numpy in one pass.
    On either layer a point with no error yet whose matrices are not finite
    fails with the overflow math raises, or on the closed-form layer, where
    its gamma is not finite, with the ModelConfig.gamma error. A layer not
    in LAYERS is a ValueError.
    """
    if layer not in LAYERS:
        raise ValueError(f"unknown layer {layer!r}; expected one of {LAYERS}")
    if layer == "numeric":
        jet = jacobian_analytic([points] if isinstance(points, ModelConfig) else points)
        q, u, *det, errors = metrology.information_and_curvature(jet, determinant)
        gamma = np.zeros(len(q))  # the numeric layer never reads gamma
    elif isinstance(points, ModelConfig):
        return _point_matrices(points, determinant)
    else:
        q, u12 = closed_q_matrix(points), u12_closed(points)
        # (2, 2, *shape) underneath, like q: the isfinite reductions below run faster on it
        u = np.zeros((2, 2) + np.broadcast(q[..., 0, 0], u12).shape)
        u[0, 1], u[1, 0] = u12, -u12
        u = np.moveaxis(u, (0, 1), (-2, -1))
        if q.shape != u.shape:  # columns whose lam2 spans an axis, which u12 alone reads
            q = np.array(np.broadcast_to(q, u.shape))
        gamma = np.broadcast_to(points.gamma, u.shape[:-2]).reshape(-1)
        q, u = q.reshape(-1, 2, 2), u.reshape(-1, 2, 2)
        det, errors = [np.linalg.det(q)] if determinant else [], {}
    finite = np.isfinite(q).all(axis=(1, 2)) & np.isfinite(u).all(axis=(1, 2))
    gamma_ok = np.isfinite(gamma)
    for i in (~finite).nonzero()[0].tolist():
        errors.setdefault(
            i, OverflowError("math range error") if gamma_ok[i] else ValueError(GAMMA_MESSAGE)
        )
    return (q, u, *det, errors)


# the entries compare reads, in the order of its tables' columns
ENTRIES = ("Q11", "Q22", "Q12", "U12")


@dataclasses.dataclass(frozen=True, eq=False)
class Comparison:
    """compare's result for the rows of `points`: (N, 4) tables, a column per
    entry of ENTRIES, and (N,) flags. rel_difference is 0 where both values
    are; q_offset_value is the mean of the Q entries' closed_form - numeric,
    q_offset_shared whether their spread is within 1e-9 max(1, their largest |value|)."""

    points: ModelColumns
    closed_form: np.ndarray
    numeric: np.ndarray
    abs_difference: np.ndarray
    rel_difference: np.ndarray
    max_abs_difference: np.ndarray
    max_rel_difference: np.ndarray
    q_offset_shared: np.ndarray
    q_offset_value: np.ndarray
    u12_abs_difference: np.ndarray


@np.errstate(all="ignore")  # an overflow is the error raised below, not a warning
def compare(inp: Inputs) -> Comparison:
    """Entrywise closed-form vs first-principles values of one ModelConfig (a
    Comparison of one row) or of ModelColumns: one layer_matrices call per
    layer, then whole-array numpy. The first failing row raises its engine
    error, else its closed-form error. Reports, never asserts: the layers
    are known to disagree on the displacement-free parts of the Q entries
    (constant offset) and on the displacement term of U12."""
    points = ModelColumns.from_configs([inp]) if isinstance(inp, ModelConfig) else inp
    Q, U, errors = layer_matrices(points, "numeric")
    Qc, Uc, closed_errors = layer_matrices(points, "closed_form")
    if errors or closed_errors:
        i = min(errors.keys() | closed_errors.keys())
        raise errors[i] if i in errors else closed_errors[i]
    closed, numeric = (np.stack((q[:, 0, 0], q[:, 1, 1], q[:, 0, 1], u[:, 0, 1]), axis=1)
                       for q, u in ((Qc, Uc), (Q, U)))
    diff = closed - numeric
    abs_diff, scale = np.abs(diff), np.maximum(np.abs(closed), np.abs(numeric))
    rel = np.where(scale > 0, abs_diff / scale, 0.0)
    q_diff = diff[:, :3]
    spread = q_diff.max(axis=1) - q_diff.min(axis=1)
    return Comparison(
        points, closed, numeric, abs_diff, rel,
        max_abs_difference=abs_diff.max(axis=1), max_rel_difference=rel.max(axis=1),
        q_offset_shared=spread <= 1e-9 * np.maximum(1.0, np.abs(q_diff).max(axis=1)),
        q_offset_value=(q_diff / 3).sum(axis=1),  # a sum of the diffs can overflow
        u12_abs_difference=abs_diff[:, 3],
    )
