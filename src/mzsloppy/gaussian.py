"""Phase-space core: Gaussian states and the symplectic action of gates.

Conventions (fixed here, relied on everywhere else):

* quadrature ordering (q1, p1, q2, p2, ...), with q = (a^dag + a)/sqrt(2)
* vacuum covariance = identity/2
* symplectic form Omega = direct sum of 2x2 blocks [[0, 1], [-1, 0]]
* PhaseRotation(angle) acts on its (q, p) block as
  [[cos a, sin a], [-sin a, cos a]]
* Squeezer(x, angle) acts as Rc(angle/2) diag(e^x, e^-x) Rc(angle/2)^T with
  Rc the counterclockwise rotation, i.e.
  [[ch + sh cos a, sh sin a], [sh sin a, ch - sh cos a]]
* BeamSplitter(mix, phase) transmits cos^2(mix) of each input; the phase
  is a rotation of the second mode applied before the real mixer.
* Displacement(amplitude, angle) keeps the covariance and shifts the mean by
  amplitude (cos angle, sin angle): coherent amplitude (amplitude/sqrt 2) e^{i angle}.

All values are immutable; all operations are pure functions.

Stacks: gates whose parameters are arrays of N values, states whose moments
carry a leading axis of N points, and the numeric functions built on them
evaluate N configurations at once. A per-point failure never fails the
stack: each such function records its errors as a dict that maps the index
of each failed point to the exception the single-point call raises there (a
good point has no entry), and a single point raises it as before.
"""

from __future__ import annotations

import dataclasses
import math
from typing import NamedTuple, Sequence, Union

import numpy as np

# tolerances used by state validation / classification
COV_SYMMETRY_RTOL = 1e-12
PHYSICALITY_TOL = 1e-10
PURITY_TOL = 1e-9
_EPS = float(np.finfo(float).eps)

_OMEGA_BLOCK = np.array([[0.0, 1.0], [-1.0, 0.0]])


def symplectic_form(modes: int) -> np.ndarray:
    """Block-diagonal symplectic form for the given number of modes."""
    if not isinstance(modes, (int, np.integer)) or modes < 1:
        raise ValueError("modes must be a positive integer")
    out = np.zeros((2 * modes, 2 * modes))
    for k in range(modes):
        out[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = _OMEGA_BLOCK
    return out


def _frozen(a: np.ndarray) -> np.ndarray:
    b = np.array(a, dtype=float, copy=True)
    b.flags.writeable = False
    return b


def unstack(values, errors: dict, stacked: bool):
    """(values, errors) for a stack; for one point its value, or its error raised."""
    if stacked:
        return values, errors
    if 0 in errors:
        raise errors[0]
    return values[0]


def _moment_errors(mean: np.ndarray, cov: np.ndarray) -> dict:
    finite = np.isfinite(mean).all(axis=1) & np.isfinite(cov).all(axis=(1, 2))
    if not finite.all():
        cov = np.where(finite[:, None, None], cov, 0.0)
    skew = np.abs(cov - cov.transpose(0, 2, 1)).max(axis=(1, 2), initial=0.0)
    scale = np.maximum(1.0, np.abs(cov).max(axis=(1, 2), initial=0.0))
    symmetric = skew <= COV_SYMMETRY_RTOL * scale
    return {
        i: ValueError("cov must be symmetric" if finite[i] else "state moments must be finite")
        for i in (~(finite & symmetric)).nonzero()[0].tolist()
    }


@dataclasses.dataclass(frozen=True)
class GaussianState:
    """Mean vector and covariance matrix of M bosonic modes.

    A stack of N states has mean (N, 2M) and cov (N, 2M, 2M). `errors` maps
    each state whose moments fail validation (non-finite or asymmetric) to
    that ValueError; a single state raises it instead.
    """

    modes: int
    mean: np.ndarray
    cov: np.ndarray
    errors: dict = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.modes < 1:
            raise ValueError("modes must be a positive integer")
        mean = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.cov, dtype=float)
        n = 2 * self.modes
        lead = cov.shape[:1] if cov.ndim == 3 else ()
        if mean.shape != lead + (n,):
            raise ValueError(f"mean must have shape {lead + (n,)}, got {mean.shape}")
        if cov.shape != lead + (n, n):
            raise ValueError(f"cov must have shape ({n}, {n}), got {cov.shape}")
        errors = _moment_errors(mean, cov) if lead else _moment_errors(mean[None], cov[None])
        if not lead and errors:
            raise errors[0]
        object.__setattr__(self, "mean", _frozen(mean))
        object.__setattr__(self, "cov", _frozen(cov))
        object.__setattr__(self, "errors", errors)


@dataclasses.dataclass(frozen=True)
class PhaseRotation:
    mode: int
    angle: float


@dataclasses.dataclass(frozen=True)
class Squeezer:
    mode: int
    magnitude: float
    angle: float = 0.0


@dataclasses.dataclass(frozen=True)
class BeamSplitter:
    """Two-mode mixer: `mix` is the mixing angle (transmissivity cos^2 mix)
    and `phase` is a relative phase applied to the second mode before mixing.
    """

    modes: tuple[int, int] = (0, 1)
    mix: float = 0.0
    phase: float = 0.0

    def __post_init__(self):
        if len(self.modes) != 2 or self.modes[0] == self.modes[1]:
            raise ValueError("beam splitter needs two distinct modes")


@dataclasses.dataclass(frozen=True)
class Displacement:
    mode: int
    amplitude: float
    angle: float = 0.0


Gate = Union[PhaseRotation, Squeezer, BeamSplitter, Displacement]


def vacuum_state(modes: int) -> GaussianState:
    """M-mode vacuum: zero mean, covariance identity/2."""
    if not isinstance(modes, (int, np.integer)) or modes < 1:
        raise ValueError("modes must be a positive integer")
    n = 2 * modes
    return GaussianState(modes=int(modes), mean=np.zeros(n), cov=np.eye(n) / 2)


def _set_block(S: np.ndarray, i: int, j: int, a, b, c, d) -> None:
    """Write the 2x2 block [[a, b], [c, d]] at (i, j) of every matrix in S."""
    S[..., i, j], S[..., i, j + 1] = a, b
    S[..., i + 1, j], S[..., i + 1, j + 1] = c, d


def _check_finite(gate: Gate, *values) -> None:
    for v in values:
        if not (np.isfinite(v).all() if isinstance(v, np.ndarray) else math.isfinite(v)):
            raise ValueError(f"non-finite parameter in {type(gate).__name__}")


def _identity(n: int, *params) -> tuple[np.ndarray, np.ndarray]:
    """Identity S and zero shift, stacked to the parameters' broadcast shape."""
    lead = np.broadcast(*params).shape
    S = np.zeros(lead + (n, n))
    S.reshape(lead + (n * n,))[..., :: n + 1] = 1.0
    return S, np.zeros(lead + (n,))


def gate_symplectic(gate: Gate, modes: int) -> tuple[np.ndarray, np.ndarray]:
    """Symplectic matrix and mean shift of a gate on an M-mode register.

    Gate parameters given as arrays give a stack: S of shape (*lead, 2M, 2M)
    and shift of shape (*lead, 2M), lead the shape the parameters broadcast to.
    """
    n = 2 * modes
    if isinstance(gate, PhaseRotation):
        _check_finite(gate, gate.angle)
        _check_mode(gate.mode, modes)
        S, shift = _identity(n, gate.angle)
        c, s = np.cos(gate.angle), np.sin(gate.angle)
        k = 2 * gate.mode
        _set_block(S, k, k, c, s, -s, c)
    elif isinstance(gate, Squeezer):
        _check_finite(gate, gate.magnitude, gate.angle)
        _check_mode(gate.mode, modes)
        S, shift = _identity(n, gate.magnitude, gate.angle)
        ch, sh = np.cosh(gate.magnitude), np.sinh(gate.magnitude)
        ca, sa = np.cos(gate.angle), np.sin(gate.angle)
        # Rc(a/2) diag(e^x, e^-x) Rc(a/2)^T, Rc counterclockwise; angle=0 stretches q
        k = 2 * gate.mode
        _set_block(S, k, k, ch + sh * ca, sh * sa, sh * sa, ch - sh * ca)
    elif isinstance(gate, BeamSplitter):
        _check_finite(gate, gate.mix, gate.phase)
        a, b = gate.modes
        _check_mode(a, modes)
        _check_mode(b, modes)
        S, shift = _identity(n, gate.mix, gate.phase)
        # real mixer [[c I, s I], [-s I, c I]] after a rotation of mode b
        c, s = np.cos(gate.mix), np.sin(gate.mix)
        cp, sp = np.cos(gate.phase), np.sin(gate.phase)
        i, j = 2 * a, 2 * b
        _set_block(S, i, i, c, 0.0, 0.0, c)
        _set_block(S, i, j, s * cp, s * sp, -s * sp, s * cp)
        _set_block(S, j, i, -s, 0.0, 0.0, -s)
        _set_block(S, j, j, c * cp, c * sp, -c * sp, c * cp)
    elif isinstance(gate, Displacement):
        _check_finite(gate, gate.amplitude, gate.angle)
        _check_mode(gate.mode, modes)
        S, shift = _identity(n, gate.amplitude, gate.angle)
        shift[..., 2 * gate.mode] = gate.amplitude * np.cos(gate.angle)
        shift[..., 2 * gate.mode + 1] = gate.amplitude * np.sin(gate.angle)
    else:
        raise ValueError(f"unknown gate type: {type(gate).__name__}")
    return S, shift


def _check_mode(mode: int, modes: int) -> None:
    if not 0 <= mode < modes:
        raise ValueError(f"gate targets mode {mode}, register has {modes}")


def apply_gate(state: GaussianState, gate: Gate) -> GaussianState:
    """Conjugation rule of one gate: the circuit of that gate alone."""
    return apply_circuit(state, [gate])


def apply_circuit(state: GaussianState, gates: Sequence[Gate]) -> GaussianState:
    """Conjugation rule cov -> S cov S^T, mean -> S mean + shift of each gate
    in turn, left to right; the moments are validated once, after the last.

    A stacked state or a gate with array parameters gives a stacked state.
    """
    mean, cov = state.mean, state.cov
    for gate in gates:
        S, shift = gate_symplectic(gate, state.modes)
        mean = (S @ mean[..., None])[..., 0] + shift
        cov = S @ cov @ np.swapaxes(S, -1, -2)
    return GaussianState(modes=state.modes, mean=mean, cov=cov)


def symplectic_eigenvalues(cov: np.ndarray) -> np.ndarray:
    """Symplectic spectrum: moduli of the eigenvalues of Omega @ cov.

    The 2M eigenvalues come in +-i*nu pairs; returns the M moduli, ascending
    (along the last axis, for a stack of covariances).
    """
    cov = np.asarray(cov, dtype=float)
    ev = np.linalg.eigvals(symplectic_form(cov.shape[-1] // 2) @ cov)
    return np.sort(np.abs(ev), axis=-1)[..., ::2]


class Physicality(NamedTuple):
    classification: str  # "pure" | "mixed" | "unphysical"; a tuple on a stack
    symplectic_eigenvalues: np.ndarray


def _label(nu_min: float, deviation: float, cond: float) -> str:
    slack = 2.0 * _EPS * cond  # the spectrum's round-off
    if not (nu_min >= 0.5 - PHYSICALITY_TOL - slack and cond < math.inf):  # inf, NaN: no state
        return "unphysical"
    return "pure" if deviation <= PURITY_TOL + slack else "mixed"


def physicality_check(state: GaussianState) -> Physicality:
    """Classify a state from its symplectic spectrum.

    Unphysical is a classification, not an error: any eigenvalue below
    1/2 - 1e-10. Pure means all eigenvalues equal 1/2 within 1e-9. Both
    tolerances widen by 2 eps cond(cov), the round-off of the computed
    spectrum, which loses digits like cond(cov) (about e^{4(r+x)} for the
    model's states); near cond(cov) = 1/eps the label says little. On a
    stack, classification is a tuple of labels and the eigenvalues gain a
    leading axis; a state whose spectrum cannot be computed (non-finite
    moments, a LinAlgError) is unphysical, with NaN eigenvalues. So is a
    singular cov.
    """
    stacked = state.cov.ndim == 3
    cov = state.cov if stacked else state.cov[None]
    finite = np.isfinite(cov).all(axis=(1, 2))
    nus, cond = np.full((len(cov), state.modes), np.nan), np.full(len(cov), np.nan)
    for out, fn in ((nus, symplectic_eigenvalues), (cond, np.linalg.cond)):
        try:
            out[finite] = fn(cov[finite])
        except np.linalg.LinAlgError:  # numpy fails a stack for one matrix: retry each
            for i in finite.nonzero()[0].tolist():
                try:
                    out[i] = fn(cov[i])
                except np.linalg.LinAlgError:
                    pass  # this state's value stays NaN
    nu_min, deviation = np.min(nus, axis=1), np.max(np.abs(nus - 0.5), axis=1)
    labels = tuple(map(_label, nu_min.tolist(), deviation.tolist(), cond.tolist()))
    if stacked:
        return Physicality(labels, nus)
    return Physicality(labels[0], nus[0])
