"""Fock-space state-vector oracle for the interferometer.

Each gate is the two-mode unitary whose Heisenberg map is the engine's
symplectic matrix, built with scipy.linalg.expm on a truncated Fock space
(vacuum covariance I/2, q = (a + a^dag)/sqrt(2)):

- phase rotation by t: exp(-i t n);
- squeezer of magnitude m and angle a: exp((z* a^2 - z a^dag^2)/2) with
  z = -m e^{i a};
- displacement of amplitude A and angle b: coherent amplitude
  (A/sqrt(2)) e^{i b}, so that the mean moves by A (cos b, sin b);
- beam splitter: exp(phi (a0^dag a1 - a1^dag a0)) after exp(-i theta n1),
  applied with scipy.sparse.linalg.expm_multiply.

The quantum geometric tensor of the output state along (lam1, lam2) is
G_jk = <d_j psi|d_k psi> - <d_j psi|psi><psi|d_k psi>. The engine's
information matrix and curvature are Q = 4 Re G and U = -4 Im G, which the
random settings below assert to 1e-9. At theta = pi/2, phi = pi/4, G obeys
4 Im G12 = q^2 sinh(2x) sin(gamma - 2 beta), with gamma = alpha + 2 lam1:
no dependence on r or on lam2 (the last gate), zero without displacement
and on the phase-locked line 2 beta = gamma (mod pi). This is the evidence
for the phase condition in acceptance criterion 4.

Small squeezing and displacement (r, x, q <= 0.3) keep the truncation
error at cutoff 28 (about 1e-11 in the moments) far below the 1e-9
tolerances.
"""

import math

import numpy as np
import pytest
from scipy import sparse
from scipy.linalg import expm
from scipy.sparse.linalg import expm_multiply

from mzsloppy.metrology import qfi_matrix, uhlmann_matrix
from mzsloppy.model import ModelConfig, evaluate_state, jacobian_analytic

PI = math.pi
CUTOFF = 28
TOL = 1e-9

A = np.diag(np.sqrt(np.arange(1.0, CUTOFF)), 1)  # single-mode annihilator
NUMBER = np.arange(CUTOFF, dtype=float)
QUAD_Q = (A + A.T) / math.sqrt(2)
QUAD_P = (A - A.T) / (1j * math.sqrt(2))

# (r, x, q, gamma, lam1, lam2); theta = pi/2, phi = pi/4 throughout
CONFIGS = (
    (0.3, 0.3, 0.3, PI / 3, 0.4, 1.1),
    (0.1, 0.25, 0.2, PI / 2, 0.0, 0.0),
    (0.2, 0.15, 0.3, 2.2, -0.7, 2.5),
    (0.05, 0.3, 0.25, 4.0, 1.3, -0.9),
)


def rotation(t):
    return np.diag(np.exp(-1j * t * NUMBER))


def squeezer(magnitude, angle):
    z = -magnitude * np.exp(1j * angle)
    return expm(0.5 * (np.conj(z) * A @ A - z * A.T @ A.T))


def displacement(amplitude, angle):
    alpha = amplitude / math.sqrt(2) * np.exp(1j * angle)
    return expm(alpha * A.T - np.conj(alpha) * A)


def mix(phi, psi):
    eye = sparse.identity(CUTOFF)
    a0, a1 = sparse.kron(A, eye), sparse.kron(eye, A)
    generator = (phi * (a0.T @ a1 - a1.T @ a0)).tocsc()
    return expm_multiply(generator, psi.ravel()).reshape(CUTOFF, CUTOFF)


# two-mode amplitudes are a (cutoff, cutoff) array indexed (n0, n1): an
# operator acts on mode 0 as op @ psi and on mode 1 as psi @ op.T
def on_mode1(op, psi):
    return psi @ op.T


def oracle(config):
    """(mean, cov, G) of the output state in the Fock basis, G the 2x2
    geometric tensor along (lam1, lam2)."""
    psi = np.zeros((CUTOFF, CUTOFF), dtype=complex)
    psi[0, 0] = 1.0
    psi = on_mode1(squeezer(config.r, 0.0), squeezer(config.r, 0.0) @ psi)
    psi = displacement(config.q, config.beta) @ psi
    psi = on_mode1(rotation(config.theta), psi)
    psi = mix(config.phi, psi)
    psi = rotation(config.lam1) @ psi
    tail = rotation(config.lam2) @ squeezer(config.x, config.alpha)
    n0 = NUMBER[:, None]
    d1 = tail @ (-1j * n0 * psi)  # lam1 enters before the tail
    psi = tail @ psi
    d2 = -1j * n0 * psi  # lam2 is the last gate
    G = np.array([[np.vdot(a, b) - np.vdot(a, psi) * np.vdot(psi, b) for b in (d1, d2)]
                  for a in (d1, d2)])
    moved = [QUAD_Q @ psi, QUAD_P @ psi, on_mode1(QUAD_Q, psi), on_mode1(QUAD_P, psi)]
    mean = np.array([np.vdot(psi, v).real for v in moved])
    # symmetrised second moments of Hermitian quadratures: Re <X psi|Y psi>
    second = np.array([[np.vdot(u, v).real for v in moved] for u in moved])
    return mean, second - np.outer(mean, mean), G


def balanced(r, x, q, beta, gamma, lam1, lam2):
    return ModelConfig(r=r, q=q, beta=beta, theta=PI / 2, phi=PI / 4, x=x,
                       alpha=gamma - 2 * lam1, lam1=lam1, lam2=lam2)


def curvature_law(x, q, beta, gamma):
    """4 Im G12 at the balanced setting."""
    return q * q * math.sinh(2 * x) * math.sin(gamma - 2 * beta)


@pytest.mark.parametrize("r, x, q, gamma, lam1, lam2", CONFIGS)
def test_output_moments_match_engine(r, x, q, gamma, lam1, lam2):
    for beta in (0.0, gamma / 2 + PI / 4):
        config = balanced(r, x, q, beta, gamma, lam1, lam2)
        mean, cov, _ = oracle(config)
        state = evaluate_state(config)
        assert np.max(np.abs(mean - state.mean)) <= TOL
        assert np.max(np.abs(cov - state.cov)) <= TOL


@pytest.mark.parametrize("r, x, q, gamma, lam1, lam2", CONFIGS)
def test_curvature_vanishes_without_displacement_and_on_phase_line(
    r, x, q, gamma, lam1, lam2
):
    settings = ((0.0, 0.0), (q, gamma / 2), (q, gamma / 2 + PI / 2))
    for amplitude, beta in settings:
        config = balanced(r, x, amplitude, beta, gamma, lam1, lam2)
        _, _, G = oracle(config)
        assert abs(4.0 * G[0, 1].imag) <= TOL, (amplitude, beta)
        assert abs(uhlmann_matrix(jacobian_analytic(config))[0, 1]) <= TOL


@pytest.mark.parametrize("r, x, q, gamma, lam1, lam2", CONFIGS)
def test_curvature_follows_phase_law_off_the_line(r, x, q, gamma, lam1, lam2):
    for beta in (0.0, gamma / 2 + PI / 4, gamma / 2 - 1.0):
        expected = curvature_law(x, q, beta, gamma)
        if abs(expected) < 1e-4:  # beta = 0 lies on the line when gamma = 0 mod pi
            continue
        config = balanced(r, x, q, beta, gamma, lam1, lam2)
        _, _, G = oracle(config)
        assert abs(4.0 * G[0, 1].imag - expected) <= TOL, beta
        assert abs(uhlmann_matrix(jacobian_analytic(config))[0, 1] + expected) <= TOL, beta


def random_settings(count, seed=1729):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        r, x, q = rng.uniform(0.0, 0.3, 3)
        beta, theta, phi, alpha, lam1, lam2 = rng.uniform(-PI, PI, 6)
        yield ModelConfig(r=r, q=q, beta=beta, theta=theta, phi=phi, x=x,
                          alpha=alpha, lam1=lam1, lam2=lam2)


@pytest.mark.parametrize("config", list(random_settings(6)), ids=lambda c: f"r{c.r:.3f}")
def test_engine_reads_the_fock_geometric_tensor(config):
    # every angle random: Q = 4 Re G and U = -4 Im G, mean and covariance
    # terms alike
    mean, cov, G = oracle(config)
    jet = jacobian_analytic(config)
    assert np.max(np.abs(mean - jet.state.mean)) <= TOL
    assert np.max(np.abs(cov - jet.state.cov)) <= TOL
    assert np.max(np.abs(qfi_matrix(jet) - 4.0 * G.real)) <= TOL
    assert np.max(np.abs(uhlmann_matrix(jet) + 4.0 * G.imag)) <= TOL
