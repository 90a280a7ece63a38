"""First-principles metrology for pure Gaussian models.

The information matrix and curvature are computed directly from the state
moments and their parameter derivatives:

    Q[j,k] = (1/4) Tr[(cov^-1 dcov_j)(cov^-1 dcov_k)]
             + 2 dmean_j^T cov^-1 dmean_k
    U[i,j] = (1/4) Tr[Om cov (Om dcov_i Om dcov_j - Om dcov_j Om dcov_i)]
             + 4 dmean_i^T cov^-1 Om cov^-1 dmean_j

Both formulas assume a pure model state and are gated on that. Linear
systems are solved directly rather than through explicit inverses.

qfi_matrix, uhlmann_matrix, quantumness_general and scalar_crb also take a
stack: a stacked jet, or (N, n, n) matrices. They then return (values,
errors), where errors maps each failed point to the exception a single call
raises there and its values are NaN, and never raise for one point.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .exceptions import SloppyModelError
from .gaussian import guarded_call, symplectic_form, unstack
from .model import ModelJet

# Q is singular for R / bounds when its smallest eigenvalue is at most this
# fraction of max(1, largest eigenvalue)
SINGULAR_Q_TOL = 1e-12

# default sloppiness threshold is relative to trace(Q); absolute floor for
# the degenerate zero-trace matrix (vacuum-like configs are legal downstream)
THRESHOLD_SCALE = 1e-8

_SINGULAR_MESSAGE = (
    "information matrix is singular: some parameter combination is "
    "unestimable, so quantumness and scalar bounds are undefined; "
    "reduce or recombine the parameters and retry"
)


# Stacked products go through matmul and np.trace, which run the same BLAS
# call and reduction on every point as on a single matrix, so a point's
# value does not depend on the stack it is evaluated in.


def _pure_stack(jet: ModelJet, op: str):
    """(stacked, cov, dcov, dmean, errors) of a jet, points first: dcov is
    (N, n, 2M, 2M) and dmean (N, n, 2M) for n parameters. A point's error
    is the state's own, else the pure-state gate of `op`."""
    state = jet.state
    stacked = state.cov.ndim == 3
    labels = state.physicality.classification
    if isinstance(labels, str):
        labels = (labels,)
    gate = {
        i: ValueError(f"{op} requires a pure model state, got {label}")
        for i, label in enumerate(labels)
        if label != "pure"
    }
    errors = {**gate, **state.errors}
    axis = 1 if stacked else 0
    dcov, dmean = np.stack(jet.dcov, axis=axis), np.stack(jet.dmean, axis=axis)
    if not stacked:
        return False, state.cov[None], dcov[None], dmean[None], errors
    return True, state.cov, dcov, dmean, errors


def qfi_matrix(jet: ModelJet):
    """Quantum Fisher information matrix, 2x2 symmetric."""
    stacked, cov, dcov, dmean, errors = _pure_stack(jet, "qfi_matrix")
    n, dim = dcov.shape[1], cov.shape[-1]
    # one solve per parameter for [cov^-1 dcov_j | cov^-1 dmean_j]
    rhs = np.concatenate([dcov, dmean[..., None]], axis=-1)
    sol, errors = guarded_call(np.linalg.solve, errors, cov[:, None], rhs)
    A, m = sol[..., :dim], sol[..., dim:]
    traces = np.trace(A[:, :, None] @ A[:, None, :], axis1=-2, axis2=-1)
    means = (dmean[:, :, None, None, :] @ m[:, None])[..., 0, 0]
    Q = 0.25 * traces + 2.0 * means
    # both terms are symmetric in (j, k); mirroring keeps that exact
    for j in range(n):
        for k in range(j):
            Q[:, j, k] = Q[:, k, j]
    return unstack(Q, errors, stacked)


def uhlmann_matrix(jet: ModelJet):
    """Uhlmann curvature, 2x2 antisymmetric (enforced structurally)."""
    stacked, cov, dcov, dmean, errors = _pure_stack(jet, "uhlmann_matrix")
    Om = symplectic_form(jet.state.modes)
    X1, X2 = Om @ dcov[:, 0], Om @ dcov[:, 1]
    comm = X1 @ X2 - X2 @ X1
    si, errors = guarded_call(np.linalg.solve, errors, cov, dmean.transpose(0, 2, 1))
    u = 0.25 * np.trace(Om @ cov @ comm, axis1=1, axis2=2) + 4.0 * (
        si[:, None, :, 0] @ Om @ si[:, :, 1:]
    )[:, 0, 0]
    U = np.zeros((len(cov), 2, 2))
    U[:, 0, 1], U[:, 1, 0] = u, -u
    U[list(errors)] = np.nan
    return unstack(U, errors, stacked)


def _singular_errors(Q: np.ndarray) -> dict:
    """The points of a stack of Q where Q is singular relative to its scale
    (or not finite), each with a SloppyModelError."""
    nonfinite = (~np.isfinite(Q).all(axis=(1, 2))).nonzero()[0].tolist()
    w, _ = guarded_call(np.linalg.eigvalsh, dict.fromkeys(nonfinite), Q)
    regular = w[:, 0] > SINGULAR_Q_TOL * np.maximum(1.0, w[:, -1])  # False where NaN
    return {i: SloppyModelError(_SINGULAR_MESSAGE) for i in (~regular).nonzero()[0].tolist()}


def _require_invertible(Q: np.ndarray) -> None:
    errors = _singular_errors(np.asarray(Q, dtype=float)[None])
    if errors:
        raise errors[0]


def quantumness_general(Q: np.ndarray, U: np.ndarray):
    """R as the largest eigenvalue modulus of Q^-1 U (any parameter count)."""
    Q, U = np.asarray(Q, dtype=float), np.asarray(U, dtype=float)
    stacked = Q.ndim == 3
    if not stacked:
        Q, U = Q[None], U[None]
    ev, errors = guarded_call(
        lambda q, u: np.linalg.eigvals(np.linalg.solve(q, u)), _singular_errors(Q), Q, U
    )
    R = np.max(np.abs(ev), axis=-1)
    return (R, errors) if stacked else float(unstack(R, errors, False))


def quantumness_two_param(Q: np.ndarray, U: np.ndarray) -> float:
    """R = |U12| / sqrt(det Q), the two-parameter shortcut."""
    if Q.shape != (2, 2):
        raise ValueError("two-parameter form needs 2x2 matrices")
    _require_invertible(Q)
    return float(abs(U[0, 1]) / np.sqrt(np.linalg.det(Q)))


@dataclasses.dataclass(frozen=True)
class ScalarBounds:
    weight: np.ndarray
    repetitions: int
    c_q: float  # an array on a stack, as is bracket_upper
    bracket_upper: float  # (1 + R) * c_q


def check_weight(weight, shape: tuple = (2, 2)) -> np.ndarray:
    """The weight as a float matrix; ValueError unless it is finite,
    symmetric, positive semidefinite and of the information matrix's shape."""
    W = np.asarray(weight, dtype=float)
    if W.shape == shape and not np.isfinite(W).all():
        raise ValueError("weight must have finite entries")
    if W.shape != shape or np.max(np.abs(W - W.T)) > 1e-12 * max(1.0, np.max(np.abs(W))):
        raise ValueError("weight must be a symmetric matrix matching Q")
    if np.min(np.linalg.eigvalsh(W)) < -1e-9:
        raise ValueError("weight must be positive semidefinite")
    return W


def scalar_crb(Q: np.ndarray, U: np.ndarray, weight: np.ndarray, repetitions: int = 1):
    """Scalar Cramer-Rao bound c_q = Tr[W Q^-1]/M and its (1+R) bracket;
    on a stack, c_q and bracket_upper are arrays."""
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    Q, U = np.asarray(Q, dtype=float), np.asarray(U, dtype=float)
    W = check_weight(weight, Q.shape[-2:])
    stacked = Q.ndim == 3
    if not stacked:
        Q, U = Q[None], U[None]
    r, errors = quantumness_general(Q, U)  # its errors start with the singular-Q gate
    sol, errors = guarded_call(np.linalg.solve, errors, Q, np.broadcast_to(W, Q.shape))
    c_q = np.trace(sol, axis1=1, axis2=2) / repetitions
    with np.errstate(over="ignore"):  # an overflowing bracket is inf, as with Python floats
        upper = (1.0 + r) * c_q
    if stacked:
        return ScalarBounds(W, int(repetitions), c_q, upper), errors
    return ScalarBounds(W, int(repetitions), float(unstack(c_q, errors, False)), float(upper[0]))


@dataclasses.dataclass(frozen=True)
class SloppinessReport:
    eigenvalues: np.ndarray  # descending
    eigenvectors: np.ndarray  # orthonormal columns, matching order
    determinant: float
    threshold: float
    sloppy: bool
    null_directions: tuple[np.ndarray, ...]  # eigenvectors below threshold


def default_threshold(Q: np.ndarray) -> float:
    tr = float(np.trace(Q))
    return THRESHOLD_SCALE * tr if tr > 0 else THRESHOLD_SCALE


def sloppiness_report(Q: np.ndarray, threshold: float | None = None) -> SloppinessReport:
    """Eigenstructure of Q with sloppy classification.

    A model is sloppy when the smallest eigenvalue falls below the
    threshold; the matching eigenvectors are reported as null directions.
    """
    Q = np.asarray(Q, dtype=float)
    if np.max(np.abs(Q - Q.T)) > 1e-10 * max(1.0, float(np.max(np.abs(Q)))):
        raise ValueError("sloppiness_report needs a symmetric matrix")
    if threshold is None:
        threshold = default_threshold(Q)
    elif not 0 < threshold < np.inf:  # false for NaN too
        raise ValueError("threshold must be a finite positive number")
    w, V = np.linalg.eigh(Q)
    order = np.argsort(w)[::-1]
    w, V = w[order], V[:, order]
    nulls = tuple(V[:, i].copy() for i in range(len(w)) if w[i] < threshold)
    return SloppinessReport(
        eigenvalues=w,
        eigenvectors=V,
        determinant=float(np.prod(w)),
        threshold=float(threshold),
        sloppy=bool(w[-1] < threshold),
        null_directions=nulls,
    )
