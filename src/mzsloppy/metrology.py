"""First-principles metrology for pure Gaussian models.

Q and U of the estimated phases are read off one quantum geometric tensor G
(Monras, arXiv:1303.3682): G[j,k] = 1/2 Tr[A_j C A_k C^T] + m^T A_j C A_k m,
Q = 4 Re G and U = -4 Im G, with A_j = -Omega K_j the quadratic form of
phase j's propagated generator (the jet's derivative), C = cov + i Omega/2
and m the mean. G is the covariance of the generators in the output state
(Wick's theorem), so 4G = Q - iU is a Gram matrix: Q + iU is positive
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
from .gaussian import symplectic_form, unstack
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


# Stacked products go through matmul, the same BLAS call on every point as
# on one matrix, so a point's value does not depend on its stack.


def geometric_tensor(jet: ModelJet):
    """(G, errors): the quantum geometric tensor, stacked (a single jet is a
    stack of one), NaN at each point of errors. With C = S B B^H S^T (S the
    jet's symplectic matrix, B B^H = (I + i Omega)/2 the vacuum's), G is the
    Gram matrix of (Y_j / sqrt 2, w_j), Y_j = B^H S^T A_j S conj(B) and
    w_j = B^H S^T A_j m: positive semidefinite to round-off, which is
    squared at vacuum."""
    gens, S, mean = np.stack(jet.generators, axis=-3), jet.symplectic, jet.state.mean
    if S.ndim == 2:
        gens, S, mean = gens[None], S[None], mean[None]
    with np.errstate(all="ignore"):  # a G that overflows is the caller's error
        # S^T A_j = (Omega S)^T K_j, and B's column on mode m is (e_q - i e_p)/sqrt 2
        left = (symplectic_form(jet.state.modes) @ S).transpose(0, 2, 1)[:, None]
        A = left @ gens @ S[:, None]
        u = (left @ gens @ mean[:, None, :, None])[..., 0]
        Y = A[..., ::2, ::2] - A[..., 1::2, 1::2] + 1j * (A[..., ::2, 1::2] + A[..., 1::2, ::2])
        w = u[..., ::2] + 1j * u[..., 1::2]
        Y = Y.reshape(Y.shape[:2] + (Y.shape[2] * Y.shape[3],))
        V = np.concatenate([Y / math.sqrt(8), w / math.sqrt(2)], axis=-1)
        G = V.conj() @ V.transpose(0, 2, 1)
        G = (G + G.conj().transpose(0, 2, 1)) / 2  # Hermitian to the last bit
    errors = dict(jet.state.errors)
    G[list(errors)] = np.nan
    return G, errors


def information_and_curvature(jet: ModelJet):
    """(Q, U, errors) = (4 Re G, -4 Im G, errors), stacked; -Im G is read as
    the transpose of Im G (G is Hermitian), which keeps U's diagonal +0.0."""
    G, errors = geometric_tensor(jet)
    return 4.0 * G.real, 4.0 * G.imag.transpose(0, 2, 1), errors


def qfi_matrix(jet: ModelJet):
    """Quantum Fisher information matrix Q = 4 Re G, symmetric."""
    Q, _, errors = information_and_curvature(jet)
    return unstack(Q, errors, jet.state.cov.ndim == 3)


def uhlmann_matrix(jet: ModelJet):
    """Uhlmann curvature U = -4 Im G, antisymmetric."""
    _, U, errors = information_and_curvature(jet)
    return unstack(U, errors, jet.state.cov.ndim == 3)


def _invariants(Q: np.ndarray):
    """(P = Q/s, s = max|Q_ij|, det P, errors) of a stack of 2x2 Q, det NaN where Q is
    refused: not finite, or s*det/top <= SINGULAR_Q_TOL * max(1, s*top), top P's largest
    eigenvalue."""
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
    singular = (~regular).nonzero()[0].tolist()
    return P, s, det, {i: SloppyModelError(_SINGULAR_MESSAGE) for i in singular}


def quantumness_general(Q: np.ndarray, U: np.ndarray):
    """R = |U12| / sqrt(det Q), the largest eigenvalue modulus of Q^-1 U."""
    Q, U = np.asarray(Q, dtype=float), np.asarray(U, dtype=float)
    stacked = Q.ndim == 3
    Q, U = (Q, U) if stacked else (Q[None], U[None])
    _, s, det, errors = _invariants(Q)
    R = np.abs(U[:, 0, 1]) / (s * np.sqrt(det))  # NaN where refused
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
    if W.shape == (2, 2) and not np.isfinite(W).all():
        raise ValueError("weight must have finite entries")
    if W.shape != (2, 2) or np.max(np.abs(W - W.T)) > 1e-12 * max(1.0, np.max(np.abs(W))):
        raise ValueError("weight must be a symmetric matrix matching Q")
    (a, b), (_, d) = W.tolist()
    if a / 2 + d / 2 - math.hypot(a / 2 - d / 2, b) < -1e-9:  # its smallest eigenvalue
        raise ValueError("weight must be positive semidefinite")
    return W


def scalar_crb(Q: np.ndarray, U: np.ndarray, weight: np.ndarray, repetitions: int = 1):
    """Scalar Cramer-Rao bound c_q = Tr[W Q^-1]/M = Tr[W adj Q]/(det Q M)
    and its (1+R) bracket; on a stack, c_q and bracket_upper are arrays."""
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    Q, W = np.asarray(Q, dtype=float), check_weight(weight)
    stacked = Q.ndim == 3
    Q, U = (Q, U) if stacked else (Q[None], np.asarray(U)[None])
    r, errors = quantumness_general(Q, U)  # its errors are the singular-Q gate's
    P, s, det, _ = _invariants(Q)
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
