"""The paper's claims as acceptance checks on the engine.

Claim 1, intermediate squeezing lifts sloppiness: at the balanced setting
(theta = pi/2, phi = pi/4), with or without displacement, Q is singular at
x = 0, where both phases act as one, and regular for every x > 0, with
det Q growing with x.

Claim 3, enhanced scaling of precision: at the balanced setting
(theta = pi/2, phi = pi/4) without displacement, the precision 1/Tr Q^-1
grows as the square of the output mean photon number (Tr cov - 2)/2,
Heisenberg scaling, once the squeezing is large. The slope of one log
against the other tends to 2: about 1.97, 1.99, 2.00, 2.00 and 2.00 on the
steps of r = 2, 2.8, ..., 6 at x = 0.5. The state's moments come from
evaluate_state and Q from the geometric tensor, whose accuracy does not
degrade with the conditioning of cov (it needs no solve with it).
"""

import math

import numpy as np
import pytest

from mzsloppy.metrology import qfi_matrix, sloppiness_report
from mzsloppy.model import ModelConfig, jacobian_analytic

BALANCED = {"theta": math.pi / 2, "phi": math.pi / 4}


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


def photons_and_precision(r, x):
    jet = jacobian_analytic(ModelConfig(r=r, x=x, **BALANCED))
    photons = (np.trace(jet.state.cov) - 2.0) / 2.0
    return math.log(photons), math.log(1.0 / np.trace(np.linalg.inv(qfi_matrix(jet))))


def test_claim_3_precision_scales_as_photon_number_squared():
    points = [photons_and_precision(r, 0.5) for r in np.linspace(2.0, 6.0, 6)]
    slopes = [(b[1] - a[1]) / (b[0] - a[0]) for a, b in zip(points, points[1:])]
    assert all(slope > 1.9 for slope in slopes), slopes
