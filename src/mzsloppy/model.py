"""Two-mode interferometer model and its parameter derivatives.

The statistical model has two estimated parameters: the phase lam1 applied
before the intermediate squeezer and the phase lam2 applied after it, both
on the upper arm (mode 0). Everything else in ModelConfig is fixed
configuration. Derivative order is always (lam1, lam2).
"""

from __future__ import annotations

import dataclasses
import math
import operator
from typing import Sequence, Union

import numpy as np

from .gaussian import (
    BeamSplitter,
    Displacement,
    Gate,
    GaussianState,
    PhaseRotation,
    Squeezer,
    gate_symplectic,
)

FD_STEP_DEFAULT = 1e-5
FD_STEP_MIN = 1e-8
FD_STEP_MAX = 1e-3

PARAMETER_NAMES = ("lam1", "lam2")

MODEL_FIELDS = ("r", "q", "beta", "theta", "phi", "x", "alpha", "lam1", "lam2")

# checked in this order, so the first negative one names a config's error
NON_NEGATIVE_FIELDS = ("r", "x", "q")
_NEGATIVE_MESSAGE = "model field {} must be non-negative"
GAMMA_MESSAGE = "closed-form input gamma must be finite"


@dataclasses.dataclass(frozen=True)
class ModelConfig:
    """Full parameter tuple of the interferometer.

    r: input squeezing of both arms; q, beta: input displacement of the
    upper arm; theta, phi: beam-splitter phase and mix; x, alpha:
    intermediate squeezer; lam1, lam2: true values of the estimated phases.
    """

    r: float = 0.0
    q: float = 0.0
    beta: float = 0.0
    theta: float = 0.0
    phi: float = 0.0
    x: float = 0.0
    alpha: float = 0.0
    lam1: float = 0.0
    lam2: float = 0.0

    def __post_init__(self):
        for name in MODEL_FIELDS:
            v = getattr(self, name)
            if not isinstance(v, (int, float)) or not math.isfinite(v):
                raise ValueError(f"model field {name} must be finite")
            object.__setattr__(self, name, float(v))
        for name in NON_NEGATIVE_FIELDS:
            if getattr(self, name) < 0:
                raise ValueError(_NEGATIVE_MESSAGE.format(name))

    @property
    def gamma(self) -> float:
        # the squeezer angle and lam1 enter the second moments only through
        # this; the closed-form layer reads it, the numeric layer does not
        gamma = self.alpha + 2.0 * self.lam1
        if not math.isfinite(gamma):
            raise ValueError(GAMMA_MESSAGE)
        return gamma


_fields = operator.attrgetter(*MODEL_FIELDS)


def parameters(configs: Sequence[ModelConfig]) -> np.ndarray:
    """The configs as an (N, 9) array, one row each, columns in MODEL_FIELDS
    order."""
    return np.array([_fields(c) for c in configs], dtype=float).reshape(-1, len(MODEL_FIELDS))


def row_errors(params: np.ndarray) -> dict:
    """The rows of a finite (N, 9) parameter array that ModelConfig rejects,
    each with the ValueError message it gives."""
    negative = params[:, [MODEL_FIELDS.index(n) for n in NON_NEGATIVE_FIELDS]] < 0
    first = negative.argmax(axis=1)
    return {
        i: _NEGATIVE_MESSAGE.format(NON_NEGATIVE_FIELDS[first[i]])
        for i in negative.any(axis=1).nonzero()[0].tolist()
    }


class ModelColumns:
    """N configurations as read-only columns: one (N,) array per model
    field, plus gamma, which is not checked here (a row whose gamma is not
    finite is the caller's error). The closed forms read it in place of a
    ModelConfig and evaluate all rows at once."""

    def __init__(self, params: np.ndarray):
        columns = np.asarray(params, dtype=float).T.view()
        columns.flags.writeable = False
        for name, column in zip(MODEL_FIELDS, columns):
            setattr(self, name, column)
        self.gamma = self.alpha + 2.0 * self.lam1
        self.gamma.flags.writeable = False


@dataclasses.dataclass(frozen=True)
class ModelJet:
    """Output state with its derivatives along (lam1, lam2).

    For a stack of N configurations every array has a leading point axis
    and state.errors maps each failed point to its error.
    """

    state: GaussianState
    dcov: tuple[np.ndarray, np.ndarray]
    dmean: tuple[np.ndarray, np.ndarray]


def _circuit(r, q, beta, theta, phi, x, alpha, lam1, lam2) -> list[Gate]:
    return [
        Squeezer(mode=0, magnitude=r, angle=0.0),
        Squeezer(mode=1, magnitude=r, angle=0.0),
        Displacement(mode=0, amplitude=q, angle=beta),
        BeamSplitter(modes=(0, 1), mix=phi, phase=theta),
        PhaseRotation(mode=0, angle=lam1),
        Squeezer(mode=0, magnitude=x, angle=alpha),
        PhaseRotation(mode=0, angle=lam2),
    ]


def build_mz_model(config: ModelConfig) -> list[Gate]:
    """Gate sequence on two modes; inputs are vacuum + vacuum."""
    return _circuit(*(getattr(config, name) for name in MODEL_FIELDS))


# positions of the bound phase gates in the list above -> derivative slot
_BOUND_GATES = {4: 0, 6: 1}

# d/da [[cos a, sin a], [-sin a, cos a]] = R(a) @ [[0, 1], [-1, 0]]
_ROTATION_GENERATOR = np.array([[0.0, 1.0], [-1.0, 0.0]])


def _propagate(params: np.ndarray):
    """(cov, mean, dcov, dmean) of the output for an (N, 9) parameter array.

    At each bound phase gate the derivative S' = S @ J is inserted once
    (J is the rotation generator on the gate's mode); every later gate
    conjugates the accumulated derivatives exactly.
    """
    n = len(params)
    cov = np.broadcast_to(np.eye(4) / 2, (n, 4, 4))
    mean = np.zeros((n, 4, 1))  # means are carried as columns
    # None stands for a derivative that is still exactly zero
    dcov: list = [None, None]
    dmean: list = [None, None]
    for i, gate in enumerate(_circuit(*params.T)):
        S, shift = gate_symplectic(gate, 2)
        St = S.transpose(0, 2, 1)
        for p in range(2):
            if dcov[p] is not None:
                dcov[p] = S @ dcov[p] @ St
                dmean[p] = S @ dmean[p]
        if i in _BOUND_GATES:
            p = _BOUND_GATES[i]
            mode = gate.mode
            J = np.zeros((4, 4))
            J[2 * mode : 2 * mode + 2, 2 * mode : 2 * mode + 2] = _ROTATION_GENERATOR
            Sp = S @ J
            inserted = Sp @ cov @ St + S @ cov @ Sp.transpose(0, 2, 1)
            dcov[p] = inserted if dcov[p] is None else dcov[p] + inserted
            dmean[p] = Sp @ mean if dmean[p] is None else dmean[p] + Sp @ mean
        cov = S @ cov @ St
        mean = S @ mean + shift[..., None]
    return cov, mean[..., 0], dcov, [d[..., 0] for d in dmean]


def jacobian_analytic(
    config: Union[ModelConfig, Sequence[ModelConfig], np.ndarray]
) -> ModelJet:
    """Exact (dcov, dmean) along (lam1, lam2) by chain rule.

    Given a sequence of configs, or their (N, 9) parameter array with rows
    that ModelConfig accepts, propagates all of them in one pass and
    returns a stacked jet; a config whose output moments fail validation
    has its ValueError in jet.state.errors. A single config raises it.
    Overflow at extreme squeezing surfaces as that error, not as a warning.
    """
    single = isinstance(config, ModelConfig)
    if not isinstance(config, np.ndarray):
        config = parameters([config] if single else config)
    with np.errstate(all="ignore"):
        cov, mean, dcov, dmean = _propagate(config)
    if single:
        cov, mean = cov[0], mean[0]
        dcov, dmean = [d[0] for d in dcov], [d[0] for d in dmean]
    return ModelJet(
        state=GaussianState(modes=2, mean=mean, cov=cov),
        dcov=(dcov[0], dcov[1]),
        dmean=(dmean[0], dmean[1]),
    )


def evaluate_state(config: Union[ModelConfig, Sequence[ModelConfig]]) -> GaussianState:
    """Output state: the state of the same propagation as jacobian_analytic."""
    return jacobian_analytic(config).state


def jacobian_fd(config: ModelConfig, step: float = FD_STEP_DEFAULT) -> ModelJet:
    """Central-difference jet from output states alone; the oracle for the
    derivative insertion of jacobian_analytic, whose propagation of the
    states it shares (tests check those against a separate oracle)."""
    if not (FD_STEP_MIN <= step <= FD_STEP_MAX):
        raise ValueError(
            f"step must lie in [{FD_STEP_MIN:g}, {FD_STEP_MAX:g}], got {step:g}"
        )
    center = evaluate_state(config)
    dcov, dmean = [], []
    for name in PARAMETER_NAMES:
        lo = evaluate_state(dataclasses.replace(config, **{name: getattr(config, name) - step}))
        hi = evaluate_state(dataclasses.replace(config, **{name: getattr(config, name) + step}))
        dcov.append((hi.cov - lo.cov) / (2 * step))
        dmean.append((hi.mean - lo.mean) / (2 * step))
    return ModelJet(state=center, dcov=(dcov[0], dcov[1]), dmean=(dmean[0], dmean[1]))
