"""Fidelity-Hessian oracle for the information matrix, without truncation.

For two pure Gaussian states with vacuum covariance I/2 the fidelity is

    F = exp(-1/2 d^T (cov1 + cov2)^-1 d) / sqrt(det(cov1 + cov2)),

with d the difference of the means (Banchi, Braunstein and Pirandola,
"Quantum fidelity for arbitrary Gaussian states", PRL 115, 260501, 2015).
Along the phases, F(lam, lam + eps) = 1 - 1/4 eps^T Q eps + O(eps^3), so
Q_jk is the polarised second difference

    Q_jk = [F(h(e_j - e_k)) + F(-h(e_j - e_k)) - F(h(e_j + e_k)) - F(-h(e_j + e_k))] / (2 h^2)

of output states from evaluate_state alone: it shares neither the
derivative jet nor the metrology formulas with the engine. Its error is
O(h^2) plus round-off of F near 1 amplified by 1/h^2, and grows with the
squeezing like the condition of the covariance, so the tolerances are
scaled with r (largest errors about 9e-8, 2e-6, 1e-4 and 4e-3 relative at
r = 0.3, 1, 2 and 3 with h = 1e-4 on the settings below). Displacement is
part of the check: at q > 0 the engine's Q is 4 Re G of the phases'
generators read on the input vacuum, and the oracle agrees there as at
q = 0.
"""

import dataclasses
import math

import numpy as np
import pytest

from mzsloppy.metrology import qfi_matrix
from mzsloppy.model import ModelConfig, evaluate_state, jacobian_analytic

H = 1e-4
# r -> tolerance on the largest entry of Q, relative to it (about 5 times the
# largest error over these settings)
TOLERANCE = {0.3: 5e-7, 1.0: 1e-5, 2.0: 5e-4, 3.0: 2e-2}


def fidelity(a, b):
    total = a.cov + b.cov
    d = a.mean - b.mean
    return math.exp(-0.5 * d @ np.linalg.solve(total, d)) / math.sqrt(np.linalg.det(total))


def oracle_q(config):
    """Q from the fidelity between the output state at config and at its
    phases moved by h along the four polarised directions."""
    center = evaluate_state(config)

    def moved(d1, d2):
        shifted = dataclasses.replace(config, lam1=config.lam1 + d1, lam2=config.lam2 + d2)
        return fidelity(center, evaluate_state(shifted))

    q = np.zeros((2, 2))
    for j in range(2):
        for k in range(2):
            e_j, e_k = np.eye(2)[j], np.eye(2)[k]
            minus, plus = H * (e_j - e_k), H * (e_j + e_k)
            q[j, k] = (moved(*minus) + moved(*-minus) - moved(*plus) - moved(*-plus)) / (2 * H * H)
    return q


def settings(r, q, seed):
    rng = np.random.default_rng(seed)
    for _ in range(4):
        beta, theta, phi, alpha, lam1, lam2 = rng.uniform(-3.0, 3.0, 6)
        yield ModelConfig(r=r, q=q, beta=beta, theta=theta, phi=phi, x=0.4,
                          alpha=alpha, lam1=lam1, lam2=lam2)


@pytest.mark.parametrize("q", [0.0, 0.5])
@pytest.mark.parametrize("r", sorted(TOLERANCE))
def test_engine_information_matrix_is_the_fidelity_hessian(r, q):
    for config in settings(r, q, seed=int(100 * r) + int(10 * q)):
        engine = qfi_matrix(jacobian_analytic(config))
        scale = np.max(np.abs(engine))
        assert np.max(np.abs(oracle_q(config) - engine)) <= TOLERANCE[r] * scale, config
