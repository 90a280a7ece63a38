"""Two-mode interferometer model and its parameter derivatives.

The statistical model has two estimated parameters: the phase lam1 applied
before the intermediate squeezer and the phase lam2 applied after it, both
on the upper arm (mode 0). Everything else in ModelConfig is fixed
configuration. Derivative order is always (lam1, lam2).
"""

from __future__ import annotations

import dataclasses
import functools
import math
from typing import Mapping, Sequence, Union

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


MODEL_FIELDS = tuple(f.name for f in dataclasses.fields(ModelConfig))

def row_errors(columns: ModelColumns) -> dict:
    """The rows of ModelColumns that ModelConfig rejects, each with the
    ValueError message it gives."""
    negative = np.empty((len(NON_NEGATIVE_FIELDS),) + columns.shape, dtype=bool)
    for k, name in enumerate(NON_NEGATIVE_FIELDS):
        negative[k] = getattr(columns, name) < 0
    negative = negative.reshape(len(NON_NEGATIVE_FIELDS), -1)
    first = negative.argmax(axis=0)
    return {
        i: _NEGATIVE_MESSAGE.format(NON_NEGATIVE_FIELDS[first[i]])
        for i in negative.any(axis=0).nonzero()[0].tolist()
    }


class ModelColumns:
    """Configurations as read-only columns by field name, each an array of at
    least one dimension, all broadcasting together to shape, and gamma,
    which is not checked here (a row whose gamma is not finite is the
    caller's error). The rows are the C-order elements of shape. The closed
    forms and build_mz_model read it in place of a ModelConfig and evaluate
    all rows at once, each expression on only the axes its fields span."""

    def __init__(self, fields: Mapping[str, np.typing.ArrayLike]):
        for name in MODEL_FIELDS:
            # at least 1-d: numpy makes 0-d results scalars, whose powers round differently
            column = np.array(fields[name], dtype=float, ndmin=1)
            column.setflags(write=False)
            setattr(self, name, column)
        self.shape = np.broadcast(*(getattr(self, name) for name in MODEL_FIELDS)).shape

    @functools.cached_property
    def gamma(self) -> np.ndarray:
        with np.errstate(over="ignore"):  # a gamma that overflows is the caller's error
            gamma = self.alpha + 2.0 * self.lam1
        gamma.setflags(write=False)
        return gamma

    @classmethod
    def from_configs(cls, configs: Sequence[ModelConfig]) -> ModelColumns:
        """The configs as (N,) columns, one row each, in order."""
        return cls({name: [getattr(c, name) for c in configs] for name in MODEL_FIELDS})

    @classmethod
    def grid(cls, base: ModelConfig, axes: Sequence[tuple[str, Sequence[float]]]) -> ModelColumns:
        """The grid product of `axes`, (field, values) pairs naming distinct
        fields, at `base`: axis k's field holds its values along dimension
        k, every other field its base value with size-1 dimensions. The
        rows are the grid product's in lexicographic order; transcendentals
        run on the axis values alone. No axes: one row."""
        shape = [1] * max(1, len(axes))
        fields = {name: np.full(shape, getattr(base, name)) for name in MODEL_FIELDS}
        for k, (name, values) in enumerate(axes):
            fields[name] = np.reshape(values, shape[:k] + [-1] + shape[k + 1:])
        return cls(fields)

    @classmethod
    def concatenate(cls, parts: Sequence[ModelColumns]) -> ModelColumns:
        """The rows of `parts`, in order, as (N,) columns."""
        bounds = np.cumsum([0] + [math.prod(part.shape) for part in parts]).tolist()
        fields = {}
        for name in MODEL_FIELDS:
            fields[name] = column = np.empty(bounds[-1])
            for part, a, b in zip(parts, bounds, bounds[1:]):
                column[a:b].reshape(part.shape)[...] = getattr(part, name)
        return cls(fields)


@dataclasses.dataclass(frozen=True)
class ModelJet:
    """Output state with its derivative along (lam1, lam2): phase j's
    generator read on the input vacuum, its quadratic form F_j in forms and
    linear part u_j in shifts (see _propagate), and the circuit's matrix S
    (cov = S S^T / 2) as symplectic. For a stack of N configurations every
    array has a leading point axis and state.errors maps each failed point
    to its error."""

    state: GaussianState
    forms: tuple[np.ndarray, np.ndarray]
    shifts: tuple[np.ndarray, np.ndarray]
    symplectic: np.ndarray


def build_mz_model(inp: Union[ModelConfig, ModelColumns]) -> list[Gate]:
    """Gate sequence on two modes; inputs are vacuum + vacuum. Reads the
    fields of one ModelConfig, or of configurations as ModelColumns, which
    gives gates whose parameters are arrays."""
    return [
        Squeezer(mode=0, magnitude=inp.r, angle=0.0),
        Squeezer(mode=1, magnitude=inp.r, angle=0.0),
        Displacement(mode=0, amplitude=inp.q, angle=inp.beta),
        BeamSplitter(modes=(0, 1), mix=inp.phi, phase=inp.theta),
        PhaseRotation(mode=0, angle=inp.lam1),
        Squeezer(mode=0, magnitude=inp.x, angle=inp.alpha),
        PhaseRotation(mode=0, angle=inp.lam2),
    ]


def _propagate(columns: ModelColumns):
    """(cov, mean, forms, shifts, symplectic) of the output for ModelColumns;
    symplectic is the product of all gates. Each gate spans only the axes
    its parameters read; the outputs are flattened to rows.

    The only rotations are the estimated phases, lam1 then lam2, both
    generated by mode 0's number operator, whose quadratic form right after
    the rotation is P0, the projector on mode 0. Pulled back to the input
    vacuum through the product so far S_j, it is S_j^T P0 S_j = R^T R, R the
    mode-0 rows of S_j, with linear part R^T mean_0 (no later gate shifts it).
    """
    total, mean = np.eye(4), np.zeros((4, 1))  # means are carried as columns
    forms, shifts = [], []
    for gate in build_mz_model(columns):
        S, shift = gate_symplectic(gate, 2)
        if not isinstance(gate, Displacement):  # its S is I: q enters the mean alone
            total = S @ total
        mean = S @ mean + shift[..., None]
        if isinstance(gate, PhaseRotation):
            Rt = np.swapaxes(total[..., :2, :], -1, -2)
            forms.append(Rt @ total[..., :2, :])
            shifts.append(Rt @ mean[..., :2, :])
    lead = columns.shape

    def flat(a: np.ndarray) -> np.ndarray:
        if a.shape[:-2] != lead:  # on a grid, the lam1 phase's form and shift
            a = np.broadcast_to(a, lead + a.shape[-2:])
        return a.reshape((-1,) + a.shape[-2:])

    cov = total @ np.ascontiguousarray(np.swapaxes(total, -1, -2)) / 2  # the same bits, faster
    # not restacked: at 512 points a stack of forms is 128 KiB, the default mmap threshold
    forms, shifts = tuple(map(flat, forms)), tuple(flat(u)[..., 0] for u in shifts)
    return flat(cov), flat(mean)[..., 0], forms, shifts, flat(total)


def jacobian_analytic(config: Union[ModelConfig, Sequence[ModelConfig], ModelColumns]) -> ModelJet:
    """Exact jet along (lam1, lam2): each phase's generator on the input vacuum.

    Given a sequence of configs or ModelColumns, propagates all of them in
    one pass and returns a stacked jet; a config whose output moments fail
    validation has its ValueError in jet.state.errors. A single config
    raises it. Overflow at extreme squeezing surfaces as that error, not as
    a warning.
    """
    single = isinstance(config, ModelConfig)
    if not isinstance(config, ModelColumns):
        config = ModelColumns.from_configs([config] if single else config)
    with np.errstate(all="ignore"):
        cov, mean, forms, shifts, total = _propagate(config)
    if single:
        cov, mean, total = cov[0], mean[0], total[0]
        forms, shifts = tuple(f[0] for f in forms), tuple(u[0] for u in shifts)
    return ModelJet(GaussianState(modes=2, mean=mean, cov=cov), forms, shifts, total)


def evaluate_state(config: Union[ModelConfig, Sequence[ModelConfig]]) -> GaussianState:
    """Output state: the state of the same propagation as jacobian_analytic."""
    return jacobian_analytic(config).state
