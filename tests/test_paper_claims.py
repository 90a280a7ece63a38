"""The paper's claims as acceptance checks on the engine.

Claim 1, intermediate squeezing lifts sloppiness: at the balanced setting
(theta = pi/2, phi = pi/4), with or without displacement, Q is singular at
x = 0, where both phases act as one, and regular for every x > 0, with
det Q growing with x.

Claim 2, weak compatibility: at the balanced setting the curvature, and
with it the quantumness, vanishes for every squeezer phase gamma without
displacement. With displacement on it vanishes only where the displacement
phase is locked to the squeezer phase, 2 beta = gamma (mod pi), the
condition a Fock-space state-vector oracle (tests/test_fock_oracle.py)
derives. See README.md, section "Known tensions between the layers", before
touching its tolerances.

Claim 3, enhanced scaling of precision: at the balanced setting
(theta = pi/2, phi = pi/4) without displacement, the precision 1/Tr Q^-1
grows as the square of the output mean photon number (Tr cov - 2)/2,
Heisenberg scaling, once the squeezing is large. The slope of one log
against the other tends to 2: about 1.97, 1.99, 2.00, 2.00 and 2.00 on the
steps of r = 2, 2.8, ..., 6 at x = 0.5. The state's moments come from
evaluate_state and Q from the geometric tensor, whose accuracy does not
degrade with the conditioning of cov (it needs no solve with it).

Claim 4, covariance in the true phase values: at the balanced setting, Q
and U do not move with the measured phases lam1 and lam2.
"""

import math

import numpy as np
import pytest

from mzsloppy.metrology import qfi_matrix, quantumness_general, sloppiness_report, uhlmann_matrix
from mzsloppy.model import ModelConfig, jacobian_analytic

PI = math.pi
BALANCED = {"theta": PI / 2, "phi": PI / 4}


@pytest.mark.parametrize("q", [0.0, 0.5])
@pytest.mark.parametrize("r", [0.3, 1.0, 2.0])
def test_claim_1_intermediate_squeezing_lifts_sloppiness(r, q):
    xs = np.linspace(0.0, 3.0, 31)  # x = 0, then 30 points in (0, 3]
    Q, errors = qfi_matrix(jacobian_analytic([ModelConfig(r=r, q=q, x=x, **BALANCED) for x in xs]))
    assert errors == {}
    sloppy = [sloppiness_report(m).sloppy for m in Q]
    assert sloppy[0] and not any(sloppy[1:])
    det = np.linalg.det(Q[1:])
    assert det[0] > 0 and (np.diff(det) > 0).all(), det


def test_claim_2_weak_compatibility_at_balanced_setting():
    """At the balanced setting the curvature vanishes, and with it the
    quantumness, for every squeezer phase gamma without displacement. With
    displacement on it vanishes on the phase-locked line 2 beta = gamma
    (mod pi), both branches: at this setting the Fock-space oracle gives
    4 Im G12 = q^2 sinh(2x) sin(gamma - 2 beta), which is nonzero off that
    line (README.md, "Known tensions between the layers")."""
    for r in (0.25, 0.5, 1.0):
        for x in (0.25, 0.5, 1.0):
            for gamma in (0.0, PI / 3, PI / 2, 2.2, PI):
                settings = ((0.0, 0.0), (0.7, gamma / 2), (0.7, gamma / 2 + PI / 2))
                for q, beta in settings:
                    config = ModelConfig(r=r, q=q, beta=beta, x=x, alpha=gamma, **BALANCED)
                    jet = jacobian_analytic(config)
                    u = uhlmann_matrix(jet)
                    qm = qfi_matrix(jet)
                    assert abs(u[0, 1]) <= 1e-10, (
                        f"curvature {u[0, 1]:.3e} at r={r} x={x} "
                        f"gamma={gamma} q={q} beta={beta}"
                    )
                    assert quantumness_general(qm, u) <= 1e-10


def photons_and_precision(r, x):
    jet = jacobian_analytic(ModelConfig(r=r, x=x, **BALANCED))
    photons = (np.trace(jet.state.cov) - 2.0) / 2.0
    return math.log(photons), math.log(1.0 / np.trace(np.linalg.inv(qfi_matrix(jet))))


def test_claim_3_precision_scales_as_photon_number_squared():
    points = [photons_and_precision(r, 0.5) for r in np.linspace(2.0, 6.0, 6)]
    slopes = [(b[1] - a[1]) / (b[0] - a[0]) for a, b in zip(points, points[1:])]
    assert all(slope > 1.9 for slope in slopes), slopes


def test_claim_4_covariance_in_the_true_phase_values():
    """Information and curvature entries do not move with the measured
    phases at the balanced setting."""
    grid = np.linspace(0.0, 2 * PI, 5)
    qs, us = [], []
    for lam1 in grid:
        for lam2 in grid:
            config = ModelConfig(
                r=0.5, x=0.5, lam1=float(lam1), lam2=float(lam2), **BALANCED
            )
            jet = jacobian_analytic(config)
            qs.append(qfi_matrix(jet))
            us.append(uhlmann_matrix(jet))
    q_stack, u_stack = np.array(qs), np.array(us)
    assert np.max(q_stack.max(axis=0) - q_stack.min(axis=0)) <= 1e-10
    assert np.max(u_stack.max(axis=0) - u_stack.min(axis=0)) <= 1e-10
