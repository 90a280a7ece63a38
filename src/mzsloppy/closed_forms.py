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
from typing import Sequence, Union

import numpy as np

from . import metrology
from .model import GAMMA_MESSAGE, ModelColumns, ModelConfig, jacobian_analytic

# one configuration, evaluated with math, or columns of them, with numpy
Inputs = Union[ModelConfig, ModelColumns]


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
    its gamma is not finite, with the ModelConfig.gamma error.
    """
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


@dataclasses.dataclass(frozen=True)
class DiscrepancyRecord:
    entry: str
    closed_form: float
    numeric: float
    abs_difference: float
    rel_difference: float


@dataclasses.dataclass(frozen=True)
class DiscrepancyReport:
    records: tuple[DiscrepancyRecord, ...]
    flags: dict


def _record(entry: str, cf: float, num: float) -> DiscrepancyRecord:
    diff = abs(cf - num)
    scale = max(abs(cf), abs(num))
    return DiscrepancyRecord(
        entry=entry,
        closed_form=float(cf),
        numeric=float(num),
        abs_difference=float(diff),
        rel_difference=float(diff / scale) if scale > 0 else 0.0,
    )


@np.errstate(all="ignore")  # an overflow is the error raised below, not a warning
def compare(config: Union[ModelConfig, Sequence[ModelConfig]]):
    """Entrywise closed-form vs first-principles values: the DiscrepancyReport
    of one config, or a tuple of them for a sequence, from one stacked
    layer_matrices call per layer. The first failing config in order raises
    its engine error, else its closed-form error. Reports, never asserts:
    the two layers are known to disagree on the displacement-free parts of
    the Q entries (constant offset) and on the displacement term of U12.
    """
    single = isinstance(config, ModelConfig)
    columns = ModelColumns.from_configs([config] if single else config)
    Q, U, errors = layer_matrices(columns, "numeric")
    Qc, Uc, closed_errors = layer_matrices(columns, "closed_form")
    Q, U, Qc, Uc = Q.tolist(), U.tolist(), Qc.tolist(), Uc.tolist()  # numpy scalars are slow
    reports = []
    for i in range(len(Q)):
        if i in errors or i in closed_errors:
            raise errors[i] if i in errors else closed_errors[i]
        records = (
            _record("Q11", Qc[i][0][0], Q[i][0][0]),
            _record("Q22", Qc[i][1][1], Q[i][1][1]),
            _record("Q12", Qc[i][0][1], Q[i][0][1]),
            _record("U12", Uc[i][0][1], U[i][0][1]),
        )
        diffs = [rec.closed_form - rec.numeric for rec in records[:3]]
        spread = max(diffs) - min(diffs)
        scale = max(1.0, max(abs(d) for d in diffs))
        flags = {
            "max_abs_difference": max(rec.abs_difference for rec in records),
            "max_rel_difference": max(rec.rel_difference for rec in records),
            "q_offset_shared": bool(spread <= 1e-9 * scale),
            "q_offset_value": sum(d / 3 for d in diffs),  # a sum of the diffs can overflow
            "u12_abs_difference": records[3].abs_difference,
        }
        reports.append(DiscrepancyReport(records=records, flags=flags))
    return reports[0] if single else tuple(reports)
