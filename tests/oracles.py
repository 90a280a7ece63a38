"""Oracles that only the tests read: the moments' derivatives of a jet, a
finite-difference jet, two closed-form reference values and the vacuum.

What each is independent of:
- `dcov` and `dmean` read the derivatives of the output moments off a
  jet's forms, shifts and symplectic matrix; the engine's kernel reads
  forms and shifts directly and never forms these.
- `jacobian_fd` differentiates output states alone. It shares the state
  propagation with `jacobian_analytic`, but not the jet's forms and
  shifts, so it checks the jet, not the propagation.
- `f22_optimal` is a verbatim transcription of the reference result, kept
  as written like the closed forms in `mzsloppy.closed_forms`, and
  `det_ratio` reads that layer's verbatim matrix at its two landmark
  configurations. Neither is a check of the engine.
- `vacuum_state` is the input state of the circuit, for the state-level
  gate tests.
- `complex_gram_information` is the kernel's complex route: the Gram
  vectors `V` as complex numbers and `G = V^* V^T` from one complex matrix
  product per point. It shares the kernel's formula, so it checks the real
  arithmetic of `metrology.information_and_curvature`, not the physics.
The physics checks that share nothing with the engine's propagation stay
the Fock-space and fidelity-Hessian oracles (test_fock_oracle.py and
test_fidelity_oracle.py).
"""

from __future__ import annotations

import dataclasses
import math
from typing import NamedTuple

import numpy as np

from mzsloppy.closed_forms import MAXIMUM_CONFIGURATION, OPTIMAL_CONFIGURATION, closed_q_matrix
from mzsloppy.gaussian import GaussianState, check_positive_integer, symplectic_form
from mzsloppy.model import ModelConfig, ModelJet, evaluate_state

FD_STEP_DEFAULT = 1e-5
FD_STEP_MIN = 1e-8
FD_STEP_MAX = 1e-3

PARAMETER_NAMES = ("lam1", "lam2")

_OMEGA = symplectic_form(2)


def dcov(jet: ModelJet) -> tuple[np.ndarray, np.ndarray]:
    """dcov_j = S (Omega F_j - F_j Omega) S^T / 2."""
    S, St = jet.symplectic, np.swapaxes(jet.symplectic, -1, -2)
    return tuple(S @ (_OMEGA @ f - f @ _OMEGA) @ St / 2 for f in jet.forms)


def dmean(jet: ModelJet) -> tuple[np.ndarray, np.ndarray]:
    """dmean_j = S Omega u_j: no gate after lam1 shifts the mean (the
    Displacement is the third gate, before both phases)."""
    return tuple((jet.symplectic @ (u @ _OMEGA.T)[..., None])[..., 0] for u in jet.shifts)


class MomentDerivatives(NamedTuple):
    dcov: tuple[np.ndarray, np.ndarray]
    dmean: tuple[np.ndarray, np.ndarray]


def jacobian_fd(config: ModelConfig, step: float = FD_STEP_DEFAULT) -> MomentDerivatives:
    """Central-difference (dcov, dmean) from output states alone; the oracle
    for those of jacobian_analytic, whose propagation of the states it
    shares (tests check those against a separate oracle)."""
    if not (FD_STEP_MIN <= step <= FD_STEP_MAX):
        raise ValueError(
            f"step must lie in [{FD_STEP_MIN:g}, {FD_STEP_MAX:g}], got {step:g}"
        )
    dcov, dmean = [], []
    for name in PARAMETER_NAMES:
        lo = evaluate_state(dataclasses.replace(config, **{name: getattr(config, name) - step}))
        hi = evaluate_state(dataclasses.replace(config, **{name: getattr(config, name) + step}))
        dcov.append((hi.cov - lo.cov) / (2 * step))
        dmean.append((hi.mean - lo.mean) / (2 * step))
    return MomentDerivatives((dcov[0], dcov[1]), (dmean[0], dmean[1]))


def f22_optimal(r: float, x: float, beta: float, gamma: float) -> float:
    """f22 evaluated at the balanced, quarter-phase configuration."""
    return -math.sinh(2 * r) * (
        math.cosh(2 * x) * math.sin(2 * beta) + math.sinh(2 * x) * math.sin(gamma)
    ) + math.cosh(2 * r) * math.cosh(2 * x) * (
        math.cosh(2 * x) + math.sinh(2 * x) * math.cos(gamma - 2 * beta)
    )


def det_ratio(r: float, x: float) -> float:
    """det Q at the maximum configuration over det Q at the optimal one.

    Both determinants vanish at x=0 (sloppy baseline); that case returns
    NaN as the undefined-ratio marker rather than raising.
    """
    if r < 0 or x < 0:
        raise ValueError("r and x must be non-negative")
    maximum = ModelConfig(r=r, x=x, **MAXIMUM_CONFIGURATION)
    optimal = ModelConfig(r=r, x=x, **OPTIMAL_CONFIGURATION)
    det_max = float(np.linalg.det(closed_q_matrix(maximum)))
    det_opt = float(np.linalg.det(closed_q_matrix(optimal)))
    if x == 0 or det_opt == 0:
        return float("nan")
    return det_max / det_opt


def vacuum_state(modes: int) -> GaussianState:
    """M-mode vacuum: zero mean, covariance identity/2."""
    n = 2 * check_positive_integer(modes, "modes")
    return GaussianState(modes=int(modes), mean=np.zeros(n), cov=np.eye(n) / 2)


def complex_gram_information(jet: ModelJet):
    """(Q, U, det Q, errors) of a stacked jet through complex arithmetic:
    V_j = (Y_j / sqrt 8, w_j / sqrt 2) with Y_j and w_j complex, G = V^* V^T
    made Hermitian, Q = 4 Re G, U = -4 Im G, and det Q from the 2x2 minors of
    [Re V | Im V] (see metrology.information_and_curvature)."""
    u = np.stack(jet.shifts, axis=-2).reshape(-1, 2, 4)
    errors = dict(jet.state.errors)
    with np.errstate(all="ignore"):
        Y = [F[..., ::2, ::2] - F[..., 1::2, 1::2] + 1j * (F[..., ::2, 1::2] + F[..., 1::2, ::2])
             for F in jet.forms]
        Y = np.stack(Y, axis=-3).reshape(-1, 2, 4)
        w = u[..., ::2] + 1j * u[..., 1::2]
        V = np.concatenate([Y / math.sqrt(8), w / math.sqrt(2)], -1)
        V[list(errors)] = np.nan
        G = V.conj() @ V.transpose(0, 2, 1)
        G = (G + G.conj().transpose(0, 2, 1)) / 2
        X = np.take(np.concatenate([V.real, V.imag], -1), np.triu_indices(12, 1), axis=-1)
        minors = X[:, 0, 0] * X[:, 1, 1] - X[:, 0, 1] * X[:, 1, 0]
        return 4.0 * G.real, -4.0 * G.imag, 16.0 * (minors * minors).sum(axis=-1), errors
