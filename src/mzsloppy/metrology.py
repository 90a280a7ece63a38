"""First-principles metrology for pure Gaussian models.

Q and U of the estimated phases are read off one quantum geometric tensor G
(Monras, arXiv:1303.3682), the covariance of the phases' generators in the
output state. Read on the input vacuum, phase j's generator is the jet's
quadratic form F_j plus its linear part u_j, so by Wick's theorem
G[j,k] = 1/2 Tr[F_j C F_k C^T] + u_j^T C u_k with C = (I + i Omega)/2, and
Q = 4 Re G, U = -4 Im G. G is a Gram matrix: Q + iU is positive
semidefinite and R <= 1. R = |U12| / sqrt(det Q) (Carollo et al., J. Stat.
Mech. 2019), c_q and the singular gate read Q's 2x2 invariants, no inverse.

qfi_matrix, uhlmann_matrix, quantumness_general and scalar_crb also take a
stack: a stacked jet, or (N, 2, 2) matrices. They then return (values,
errors), where errors maps each failed point to the exception a single call
raises there and its values are NaN, and never raise for one point.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .exceptions import SloppyModelError
from .gaussian import unstack
from .model import ModelJet

# Q is singular for R and c_q when its smallest eigenvalue is <= this * max(1, largest)
SINGULAR_Q_TOL = 1e-12

# default sloppiness threshold: this fraction of max(1, trace(Q)), the scale
# rule of SINGULAR_Q_TOL, so a Q that is round-off near zero (a vacuum-like
# config, legal downstream) is sloppy
THRESHOLD_SCALE = 1e-8

_SINGULAR_MESSAGE = (
    "information matrix is singular: some parameter combination is "
    "unestimable, so quantumness and scalar bounds are undefined; "
    "reduce or recombine the parameters and retry"
)


# Each point is summed over its own contiguous row of X, the same reduction
# on every point as on one, so a point's value does not depend on its stack.
# multiplied, not divided: a complex / real in numpy multiplies so, and det Q keeps its bits
_R8, _R2 = 1 / math.sqrt(8), 1 / math.sqrt(2)


def information_and_curvature(jet: ModelJet, determinant: bool = False):
    """(Q, U, errors), or (Q, U, det Q, errors) with determinant, stacked (a
    single jet is a stack of one), NaN at each point of errors: Q = 4 Re G
    and U = -4 Im G of G = V^* V^T, the Gram matrix of the rows
    V_j = (Y_j / sqrt 8, w_j / sqrt 2). With B B^H = (I + i Omega)/2 the
    vacuum's, B's column on mode m being (e_q - i e_p)/sqrt 2,
    Y_j = 2 B^H F_j conj(B) and w_j = 2 B^H u_j are sums of the q and p
    blocks of phase j's form and shift. G is read in real arithmetic off
    X = [Re V | Im V], rows a and b: Q = 4 X X^T and U12 = -U21 =
    4 (Im a . Re b - Re a . Im b), exactly symmetric and antisymmetric.
    Q + iU is positive semidefinite to round-off (squared at vacuum). det Q
    is 16 times the sum of the squared 2x2 minors of X (Cauchy-Binet), which
    does not cancel where the det of the rounded Q does (entries about q^2);
    its 66 minors cost more than G, so it is computed on request."""
    errors = dict(jet.state.errors)
    n = math.prod(jet.state.cov.shape[:-2])
    X = np.empty((n, 2, 2, 3, 2))  # point, phase, (Re, Im), (Y's rows, w), mode
    with np.errstate(all="ignore"):  # an overflow is the caller's error
        for j, (F, u) in enumerate(zip(jet.forms, jet.shifts)):  # not restacked (see _propagate)
            np.multiply(F[..., ::2, ::2] - F[..., 1::2, 1::2], _R8, out=X[:, j, 0, :2])
            np.multiply(F[..., ::2, 1::2] + F[..., 1::2, ::2], _R8, out=X[:, j, 1, :2])
            np.multiply(u[..., ::2], _R2, out=X[:, j, 0, 2])
            np.multiply(u[..., 1::2], _R2, out=X[:, j, 1, 2])
        X = X.reshape(n, 2, 12)
        X[list(errors)] = np.nan
        a, b = X[:, 0], X[:, 1]
        aa, bb, ab, e1, e2 = (np.einsum("nk,nk->n", x, y) for x, y in (
            (a, a), (b, b), (a, b), (a[:, 6:], b[:, :6]), (a[:, :6], b[:, 6:])))
        # (2, 2, N) underneath, as on the closed-form layer: per-point reductions run faster.
        # U's zeros, and e1 - e2 where e1 = e2, are +0.0
        zero = np.zeros(n)
        Q = np.multiply(4.0, [[aa, ab], [ab, bb]]).transpose(2, 0, 1)
        U = np.multiply(4.0, [[zero, e1 - e2], [e2 - e1, zero]]).transpose(2, 0, 1)
    if not determinant:
        return Q, U, errors
    # X[:, j, 0] and X[:, j, 1]: row j at the pairs' a and b, per point contiguous, so
    # each point is summed alike in any stack
    X = np.take(X, np.triu_indices(12, 1), axis=-1)
    with np.errstate(all="ignore"):
        minors = X[:, 0, 0] * X[:, 1, 1] - X[:, 0, 1] * X[:, 1, 0]
        return Q, U, 16.0 * (minors * minors).sum(axis=-1), errors


def qfi_matrix(jet: ModelJet):
    """Quantum Fisher information matrix Q = 4 Re G, symmetric."""
    Q, _, errors = information_and_curvature(jet)
    return unstack(Q, errors, jet.state.cov.ndim == 3)


def uhlmann_matrix(jet: ModelJet):
    """Uhlmann curvature U = -4 Im G, antisymmetric."""
    _, U, errors = information_and_curvature(jet)
    return unstack(U, errors, jet.state.cov.ndim == 3)


def _invariants(Q: np.ndarray, U: np.ndarray):
    """(P = Q/s, s = max|Q_ij|, det P, R, errors) of a stack of 2x2 Q and U, det and
    R NaN where Q is refused: not finite, or s*det/top <= SINGULAR_Q_TOL * max(1, s*top),
    top P's largest eigenvalue."""
    if Q.shape[-2:] != (2, 2):
        raise ValueError("quantumness and scalar bounds need 2x2 matrices")
    with np.errstate(all="ignore"):  # on P no product overflows; a zero or non-finite Q is NaN
        s = np.abs(Q).max(axis=(1, 2))
        P = Q / s[:, None, None]
        a, b, d = P[:, 0, 0], P[:, 0, 1], P[:, 1, 1]
        det = a * d - b * b
        top = (a + d) / 2 + np.hypot((a - d) / 2, b)
        regular = det / top > SINGULAR_Q_TOL * np.maximum(1 / s, top)  # the gate over s
    det[~regular] = np.nan
    R = np.abs(U[:, 0, 1]) / (s * np.sqrt(det))  # |U12| / sqrt(det Q)
    singular = (~regular).nonzero()[0].tolist()  # these rows share one error
    return P, s, det, R, dict.fromkeys(singular, SloppyModelError(_SINGULAR_MESSAGE))


def _stacks(Q, U):
    """(Q, U, stacked): Q and U as float stacks (one matrix is a stack of
    one); ValueError unless U has Q's shape."""
    Q, U = np.asarray(Q, dtype=float), np.asarray(U, dtype=float)
    if U.shape != Q.shape:
        raise ValueError(f"U must have Q's shape, got Q {Q.shape} and U {U.shape}")
    stacked = Q.ndim == 3
    return (Q, U, stacked) if stacked else (Q[None], U[None], stacked)


def quantumness_general(Q: np.ndarray, U: np.ndarray):
    """R = |U12| / sqrt(det Q), the largest eigenvalue modulus of Q^-1 U."""
    Q, U, stacked = _stacks(Q, U)
    *_, R, errors = _invariants(Q, U)
    return (R, errors) if stacked else float(unstack(R, errors, False))


def quantumness_two_param(Q: np.ndarray, U: np.ndarray) -> float:
    """quantumness_general at one point."""
    if np.shape(Q) != (2, 2):
        raise ValueError("two-parameter form needs 2x2 matrices")
    return quantumness_general(Q, U)


@dataclasses.dataclass(frozen=True)
class ScalarBounds:
    weight: np.ndarray
    repetitions: int
    c_q: float  # an array on a stack, as is bracket_upper
    bracket_upper: float  # (1 + R) * c_q


def check_weight(weight) -> np.ndarray:
    """The weight as a float matrix; ValueError unless it is a finite,
    symmetric, positive semidefinite 2x2 matrix."""
    W = np.asarray(weight, dtype=float)
    scale = np.abs(W).max(initial=1.0)  # both checks allow round-off relative to it
    if W.shape == (2, 2) and not np.isfinite(W).all():
        raise ValueError("weight must have finite entries")
    if W.shape != (2, 2) or np.max(np.abs(W - W.T)) > 1e-12 * scale:
        raise ValueError("weight must be a symmetric matrix matching Q")
    (a, b), (_, d) = W.tolist()
    if a / 2 + d / 2 - math.hypot(a / 2 - d / 2, b) < -1e-9 * scale:  # its smallest eigenvalue
        raise ValueError("weight must be positive semidefinite")
    return W


def check_repetitions(repetitions) -> None:
    """ValueError unless repetitions is a positive integer, not a bool."""
    integer = isinstance(repetitions, (int, np.integer)) and not isinstance(repetitions, bool)
    if not (integer and repetitions >= 1):
        raise ValueError("repetitions must be a positive integer")


def scalar_crb(Q: np.ndarray, U: np.ndarray, weight: np.ndarray, repetitions: int = 1):
    """Scalar Cramer-Rao bound c_q = Tr[W Q^-1]/M = Tr[W adj Q]/(det Q M)
    and its (1+R) bracket; on a stack, c_q and bracket_upper are arrays."""
    check_repetitions(repetitions)
    W = check_weight(weight)
    Q, U, stacked = _stacks(Q, U)
    P, s, det, r, errors = _invariants(Q, U)  # its errors are the singular-Q gate's
    with np.errstate(all="ignore"):  # an overflowing bound is inf, as with Python floats
        adj_trace = W[0, 0] * P[:, 1, 1] + W[1, 1] * P[:, 0, 0] - (W[0, 1] + W[1, 0]) * P[:, 0, 1]
        c_q = adj_trace / (s * det) / repetitions  # Tr[W adj Q] = s Tr[W adj P]
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
    return THRESHOLD_SCALE * max(1.0, float(np.trace(Q)))


def sloppiness_report(Q: np.ndarray, threshold: float | None = None) -> SloppinessReport:
    """Eigenstructure of Q with sloppy classification.

    A model is sloppy when the smallest eigenvalue falls below the
    threshold; the matching eigenvectors are reported as null directions.
    """
    Q = np.asarray(Q, dtype=float)
    if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
        raise ValueError(f"sloppiness_report needs a square matrix, got shape {Q.shape}")
    if not np.isfinite(Q).all():
        raise ValueError("sloppiness_report needs a finite matrix")
    if np.max(np.abs(Q - Q.T)) > 1e-10 * max(1.0, float(np.max(np.abs(Q)))):
        raise ValueError("sloppiness_report needs a symmetric matrix")
    if threshold is None:
        threshold = default_threshold(Q)
    elif not 0 < threshold < np.inf:  # false for NaN too
        raise ValueError("threshold must be a finite positive number")
    w, V = np.linalg.eigh(Q)
    w, V = w[::-1], V[:, ::-1]  # eigh's order is ascending
    nulls = tuple(V[:, i].copy() for i in range(len(w)) if w[i] < threshold)
    return SloppinessReport(
        eigenvalues=w,
        eigenvectors=V,
        determinant=float(np.prod(w)),
        threshold=float(threshold),
        sloppy=bool(w[-1] < threshold),
        null_directions=nulls,
    )
