"""Information matrix, curvature, quantumness, scalar bounds, sloppiness."""

import dataclasses
import math

import numpy as np
import pytest

from mzsloppy.exceptions import SloppyModelError
from mzsloppy.gaussian import GaussianState
from mzsloppy.metrology import (
    ScalarBounds,
    default_threshold,
    qfi_matrix,
    quantumness_general,
    quantumness_two_param,
    scalar_crb,
    sloppiness_report,
    uhlmann_matrix,
)
from mzsloppy.model import ModelConfig, ModelJet, jacobian_analytic


def jet_at(**kwargs):
    return jacobian_analytic(ModelConfig(**kwargs))


def random_config(rng, q_max=1.0, r_max=1.5, x_max=1.5):
    return ModelConfig(
        r=rng.uniform(0.0, r_max),
        q=rng.uniform(0.0, q_max),
        beta=rng.uniform(0, 2 * math.pi),
        theta=rng.uniform(0, 2 * math.pi),
        phi=rng.uniform(0, math.pi / 2),
        x=rng.uniform(0.0, x_max),
        alpha=rng.uniform(0, 2 * math.pi),
        lam1=rng.uniform(0, 2 * math.pi),
        lam2=rng.uniform(0, 2 * math.pi),
    )


class TestQfiMatrix:
    def test_baseline_entries_all_equal_and_singular(self):
        # x = 0: only the phase sum is imprinted, so rows are proportional
        for cfg in (
            ModelConfig(r=0.5, x=0.0),
            ModelConfig(r=0.8, q=0.6, beta=0.4, theta=1.0, phi=0.3, x=0.0),
            ModelConfig(r=0.2, q=1.0, beta=2.0, theta=0.5, phi=0.45, x=0.0,
                        lam1=0.7, lam2=1.9),
        ):
            q = qfi_matrix(jacobian_analytic(cfg))
            assert abs(q[0, 0] - q[0, 1]) < 1e-10 * max(1.0, abs(q[0, 0]))
            assert abs(q[0, 0] - q[1, 1]) < 1e-10 * max(1.0, abs(q[0, 0]))
            assert abs(np.linalg.det(q)) < 1e-10 * max(1.0, q[0, 0] ** 2)

    def test_vacuum_gives_zero_matrix(self):
        q = qfi_matrix(jet_at())
        np.testing.assert_allclose(q, np.zeros((2, 2)), atol=1e-14)

    def test_squeezed_phase_information(self):
        # r=0.5, x=0, plain mixer: the phase generator is the photon number
        # of a squeezed vacuum, so each entry is 4 Var(n) = 2 sinh^2(2r)
        q = qfi_matrix(jet_at(r=0.5, x=0.0))
        expected = 2 * math.sinh(1.0) ** 2
        assert q[0, 0] == pytest.approx(expected, rel=1e-12)
        assert q[1, 1] == pytest.approx(expected, rel=1e-12)

    def test_mixed_state_rejected(self):
        thermal = GaussianState(modes=2, mean=np.zeros(4), cov=np.eye(4))
        jet = ModelJet(
            state=thermal,
            dcov=(np.zeros((4, 4)), np.zeros((4, 4))),
            dmean=(np.zeros(4), np.zeros(4)),
        )
        with pytest.raises(ValueError):
            qfi_matrix(jet)
        with pytest.raises(ValueError):
            uhlmann_matrix(jet)


class TestUhlmannMatrix:
    def test_baseline_curvature_vanishes(self):
        u = uhlmann_matrix(jet_at(r=0.7, q=0.5, beta=0.3, theta=0.8, phi=0.4, x=0.0))
        np.testing.assert_allclose(u, np.zeros((2, 2)), atol=1e-12)

    def test_optimal_configuration_curvature_vanishes(self):
        u = uhlmann_matrix(
            jet_at(r=0.5, x=0.5, theta=math.pi / 2, phi=math.pi / 4)
        )
        assert abs(u[0, 1]) < 1e-10

    def test_antisymmetry(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            u = uhlmann_matrix(jacobian_analytic(random_config(rng)))
            assert u[0, 0] == 0.0 and u[1, 1] == 0.0
            assert u[0, 1] == -u[1, 0]


class TestQuantumness:
    def test_hand_oracle(self):
        # eigenvalues of Q^{-1}U = (1/2)[[0,1],[-1,0]] are +-i/2
        q = 2 * np.eye(2)
        u = np.array([[0.0, 1.0], [-1.0, 0.0]])
        assert quantumness_general(q, u) == pytest.approx(0.5, abs=1e-14)
        assert quantumness_two_param(q, u) == pytest.approx(0.5, abs=1e-14)

    def test_zero_curvature_gives_zero(self):
        q = np.diag([3.0, 7.0])
        assert quantumness_general(q, np.zeros((2, 2))) == 0.0
        assert quantumness_two_param(q, np.zeros((2, 2))) == 0.0

    def test_singular_information_refused(self):
        q = np.diag([1.0, 0.0])
        u = np.array([[0.0, 0.1], [-0.1, 0.0]])
        with pytest.raises(SloppyModelError):
            quantumness_general(q, u)
        with pytest.raises(SloppyModelError):
            quantumness_two_param(q, u)

    def test_definitions_agree_and_bounded_without_displacement(self):
        rng = np.random.default_rng(37)
        checked = 0
        while checked < 100:
            cfg = random_config(rng, q_max=0.0)
            if cfg.r < 0.05 or cfg.x < 0.05:
                continue
            jet = jacobian_analytic(cfg)
            q, u = qfi_matrix(jet), uhlmann_matrix(jet)
            try:
                general = quantumness_general(q, u)
            except SloppyModelError:
                continue
            two = quantumness_two_param(q, u)
            assert abs(general - two) <= 1e-9 * max(1.0, general)
            assert 0.0 <= general <= 1.0 + 1e-12
            checked += 1

    def test_displaced_models_break_the_unit_bound(self):
        # documented tension: with the pinned mean-field normalization the
        # displacement sector is overweighted in the curvature and the
        # measure escapes [0, 1]; the zero-displacement twin stays inside
        cfg = ModelConfig(r=0.3, q=1.0, theta=math.pi / 2, phi=math.pi / 4,
                          x=1.0, alpha=math.pi / 2)
        jet = jacobian_analytic(cfg)
        q, u = qfi_matrix(jet), uhlmann_matrix(jet)
        r_displaced = quantumness_general(q, u)
        assert r_displaced > 1.0
        assert quantumness_two_param(q, u) == pytest.approx(r_displaced, rel=1e-9)
        jet0 = jacobian_analytic(dataclasses.replace(cfg, q=0.0))
        r_plain = quantumness_general(qfi_matrix(jet0), uhlmann_matrix(jet0))
        assert r_plain <= 1.0 + 1e-12


class TestScalarBounds:
    def test_arithmetic(self):
        q = np.diag([4.0, 1.0])
        u = np.zeros((2, 2))
        bounds = scalar_crb(q, u, np.eye(2), repetitions=10)
        assert bounds.c_q == pytest.approx(0.125, abs=1e-15)
        assert bounds.bracket_upper == pytest.approx(0.125, abs=1e-15)
        assert isinstance(bounds, ScalarBounds)

    def test_zero_weight(self):
        bounds = scalar_crb(np.diag([4.0, 1.0]), np.zeros((2, 2)), np.zeros((2, 2)))
        assert bounds.c_q == 0.0

    def test_bracket_scales_with_quantumness(self):
        q = 2 * np.eye(2)
        u = np.array([[0.0, 1.0], [-1.0, 0.0]])
        bounds = scalar_crb(q, u, np.eye(2))
        assert bounds.c_q == pytest.approx(1.0, abs=1e-14)
        assert bounds.bracket_upper == pytest.approx(1.5, abs=1e-14)

    def test_invalid_inputs_rejected(self):
        q = np.diag([4.0, 1.0])
        u = np.zeros((2, 2))
        with pytest.raises(ValueError):
            scalar_crb(q, u, np.eye(2), repetitions=0)
        with pytest.raises(ValueError):
            scalar_crb(q, u, np.array([[1.0, 0.2], [0.0, 1.0]]))
        with pytest.raises(ValueError):
            scalar_crb(q, u, np.diag([1.0, -0.5]))
        with pytest.raises(SloppyModelError):
            scalar_crb(np.diag([1.0, 0.0]), u, np.eye(2))

    def test_stack_matches_single_points(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(6, 2, 2))
        q = a @ a.transpose(0, 2, 1) + 0.1 * np.eye(2)
        q[2] = np.diag([1.0, 0.0])
        u = np.zeros((6, 2, 2))
        u[:, 0, 1] = rng.normal(size=6)
        u[:, 1, 0] = -u[:, 0, 1]
        w = np.array([[1.0, 0.3], [0.3, 2.0]])
        bounds, errors = scalar_crb(q, u, w, repetitions=3)
        for i in range(6):
            if i == 2:
                assert isinstance(errors[i], SloppyModelError)
                assert math.isnan(bounds.c_q[i])
                continue
            single = scalar_crb(q[i], u[i], w, repetitions=3)
            assert i not in errors
            assert bounds.c_q[i] == single.c_q
            assert bounds.bracket_upper[i] == single.bracket_upper


class TestSloppiness:
    def test_crafted_spectrum(self):
        q = np.diag([5.0, 1e-14])
        report = sloppiness_report(q, threshold=1e-8)
        assert report.sloppy is True
        assert list(report.eigenvalues) == sorted(report.eigenvalues, reverse=True)
        assert len(report.null_directions) == 1
        direction = np.abs(report.null_directions[0])
        np.testing.assert_allclose(direction, [0.0, 1.0], atol=1e-12)

    def test_determinant_matches_eigenvalue_product(self):
        q = np.array([[3.0, 1.0], [1.0, 2.0]])
        report = sloppiness_report(q)
        product = report.eigenvalues[0] * report.eigenvalues[1]
        assert report.determinant == pytest.approx(product, rel=1e-9)
        assert report.determinant == pytest.approx(np.linalg.det(q), rel=1e-9)

    def test_baseline_null_direction(self):
        # x = 0: only the phase sum is estimable, the difference is lost
        q = qfi_matrix(jet_at(r=0.5, q=0.3, beta=0.2, theta=0.4, phi=0.25, x=0.0))
        report = sloppiness_report(q)
        assert report.sloppy is True
        target = np.array([1.0, -1.0]) / math.sqrt(2)
        v = report.null_directions[0]
        assert min(np.linalg.norm(v - target), np.linalg.norm(v + target)) < 1e-6

    def test_identity_not_sloppy(self):
        report = sloppiness_report(np.eye(2), threshold=1e-8)
        assert report.sloppy is False
        assert report.null_directions == ()

    def test_zero_matrix_uses_absolute_fallback(self):
        assert default_threshold(np.zeros((2, 2))) == 1e-8
        report = sloppiness_report(np.zeros((2, 2)))
        assert report.sloppy is True
        assert len(report.null_directions) == 2

    def test_bad_threshold_rejected(self):
        with pytest.raises(ValueError):
            sloppiness_report(np.eye(2), threshold=0.0)
        with pytest.raises(ValueError):
            sloppiness_report(np.eye(2), threshold=-1.0)
        for threshold in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite positive"):
                sloppiness_report(np.eye(2), threshold=threshold)

    def test_asymmetric_input_rejected(self):
        with pytest.raises(ValueError):
            sloppiness_report(np.array([[1.0, 0.5], [0.0, 1.0]]))


# -- structural properties ----------------------------------------------


def test_information_psd_and_curvature_antisymmetric_in_bulk():
    rng = np.random.default_rng(53)
    for _ in range(1000):
        jet = jacobian_analytic(random_config(rng))
        q = qfi_matrix(jet)
        u = uhlmann_matrix(jet)
        assert np.min(np.linalg.eigvalsh(q)) > -1e-9
        assert np.max(np.abs(q - q.T)) < 1e-10
        assert np.max(np.abs(u + u.T)) < 1e-10


def test_reparametrization_congruence():
    # sum/difference coordinates: Q_new = A^T Q A with A the inverse
    # Jacobian columns d(lam)/d(new)
    cfg = ModelConfig(r=0.6, q=0.5, beta=0.7, theta=1.3, phi=0.45, x=0.9,
                      alpha=0.2, lam1=0.8, lam2=0.3)
    jet = jacobian_analytic(cfg)
    q = qfi_matrix(jet)
    a = np.array([[0.5, 0.5], [0.5, -0.5]])
    new_jet = ModelJet(
        state=jet.state,
        dcov=tuple(
            a[0, j] * jet.dcov[0] + a[1, j] * jet.dcov[1] for j in range(2)
        ),
        dmean=tuple(
            a[0, j] * jet.dmean[0] + a[1, j] * jet.dmean[1] for j in range(2)
        ),
    )
    q_new = qfi_matrix(new_jet)
    np.testing.assert_allclose(q_new, a.T @ q @ a, atol=1e-8)


def test_spectrum_invariant_under_orthogonal_reparametrization():
    cfg = ModelConfig(r=0.5, q=0.4, beta=0.1, theta=0.7, phi=0.35, x=0.6,
                      alpha=1.0, lam1=0.4, lam2=1.2)
    jet = jacobian_analytic(cfg)
    q = qfi_matrix(jet)
    c, s = math.cos(0.61), math.sin(0.61)
    o = np.array([[c, s], [-s, c]])
    rotated = ModelJet(
        state=jet.state,
        dcov=tuple(
            o[0, j] * jet.dcov[0] + o[1, j] * jet.dcov[1] for j in range(2)
        ),
        dmean=tuple(
            o[0, j] * jet.dmean[0] + o[1, j] * jet.dmean[1] for j in range(2)
        ),
    )
    q_rot = qfi_matrix(rotated)
    np.testing.assert_allclose(
        np.linalg.eigvalsh(q_rot), np.linalg.eigvalsh(q), atol=1e-9
    )


def test_optimal_configuration_is_phase_covariant():
    # balanced mixer at quarter phase, no displacement: the matrices do
    # not move as the true phase values change
    grids = np.linspace(0.0, 2 * math.pi, 5)
    qs, us = [], []
    for lam1 in grids:
        for lam2 in grids:
            jet = jet_at(r=0.5, x=0.5, theta=math.pi / 2, phi=math.pi / 4,
                         lam1=float(lam1), lam2=float(lam2))
            qs.append(qfi_matrix(jet))
            us.append(uhlmann_matrix(jet))
    q_spread = max(np.max(np.abs(m - qs[0])) for m in qs)
    u_spread = max(np.max(np.abs(m - us[0])) for m in us)
    assert q_spread < 1e-10
    assert u_spread < 1e-10


# -- stacked evaluation ---------------------------------------------------


def _reference_qfi(jet):
    """Per-matrix loop form of the Q formula, one config at a time."""
    cov = jet.state.cov
    A = [np.linalg.solve(cov, d) for d in jet.dcov]
    m = [np.linalg.solve(cov, d) for d in jet.dmean]
    return np.array([
        [0.25 * np.trace(A[j] @ A[k]) + 2.0 * jet.dmean[j] @ m[k] for k in range(2)]
        for j in range(2)
    ])


def _reference_u12(jet):
    cov = jet.state.cov
    Om = np.array([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0.0]])
    d1, d2 = jet.dcov
    comm = Om @ d1 @ Om @ d2 - Om @ d2 @ Om @ d1
    si = [np.linalg.solve(cov, d) for d in jet.dmean]
    return 0.25 * np.trace(Om @ cov @ comm) + 4.0 * si[0] @ Om @ si[1]


def test_stacked_metrology_matches_loop_reference_and_single_calls():
    rng = np.random.default_rng(61)
    configs = [random_config(rng) for _ in range(40)]
    configs += [dataclasses.replace(configs[0], x=0.0)]
    jet = jacobian_analytic(configs)
    Q, q_errors = qfi_matrix(jet)
    U, u_errors = uhlmann_matrix(jet)
    R, r_errors = quantumness_general(Q, U)
    assert q_errors == u_errors == {}
    for i, cfg in enumerate(configs):
        single = jacobian_analytic(cfg)
        q, u = qfi_matrix(single), uhlmann_matrix(single)
        assert np.array_equal(Q[i], q) and np.array_equal(U[i], u)
        scale = max(1.0, np.max(np.abs(q)))
        assert np.max(np.abs(q - _reference_qfi(single))) < 1e-12 * scale
        assert abs(u[0, 1] - _reference_u12(single)) < 1e-12 * scale
        try:
            assert R[i] == quantumness_general(q, u) and i not in r_errors
        except SloppyModelError as exc:
            assert np.isnan(R[i]) and str(r_errors[i]) == str(exc)
    assert isinstance(r_errors[len(configs) - 1], SloppyModelError)


def test_stacked_gates_never_raise_for_one_point():
    good = ModelConfig(r=0.5, q=0.3, x=0.5, alpha=0.4)
    thermal_like = ModelConfig(r=4.0, x=2.0, theta=1.0, phi=0.5)
    jet = jacobian_analytic([good, ModelConfig(r=400.0), thermal_like, good])
    Q, errors = qfi_matrix(jet)
    assert 0 not in errors and 3 not in errors
    assert str(errors[1]) == "state moments must be finite"
    np.testing.assert_array_equal(Q[0], qfi_matrix(jacobian_analytic(good)))
    assert np.isnan(Q[1]).all()
    label = jet.state.physicality.classification[2]
    if label != "pure":
        assert str(errors[2]) == f"qfi_matrix requires a pure model state, got {label}"
        assert np.isnan(Q[2]).all()


def test_stacked_purity_gate_is_per_point():
    vacuum_and_thermal = GaussianState(
        modes=2, mean=np.zeros((2, 4)), cov=np.stack([np.eye(4) / 2, np.eye(4)])
    )
    zeros = np.zeros((2, 4, 4)), np.zeros((2, 4, 4))
    jet = ModelJet(state=vacuum_and_thermal, dcov=zeros, dmean=(np.zeros((2, 4)),) * 2)
    for fn in (qfi_matrix, uhlmann_matrix):
        values, errors = fn(jet)
        assert 0 not in errors and np.array_equal(values[0], np.zeros((2, 2)))
        assert str(errors[1]) == f"{fn.__name__} requires a pure model state, got mixed"
        assert np.isnan(values[1]).all()


class TestSingularGate:
    def test_scale_relative(self):
        # an eigenvalue far above the old absolute floor, yet negligible
        # next to the largest one
        q = np.diag([1e6, 1e-7])
        with pytest.raises(SloppyModelError):
            quantumness_general(q, np.zeros((2, 2)))
        assert quantumness_general(np.diag([1e6, 1e-3]), np.zeros((2, 2))) == 0.0

    def test_stacked_rows_get_their_own_verdict(self):
        Q = np.stack([np.eye(2), np.diag([1.0, 0.0]), np.full((2, 2), np.nan)])
        U = np.zeros((3, 2, 2))
        R, errors = quantumness_general(Q, U)
        assert R[0] == 0.0 and sorted(errors) == [1, 2]
        assert all(isinstance(e, SloppyModelError) for e in errors.values())
        assert np.isnan(R[1:]).all()

    def test_zero_intermediate_squeezing_is_singular_up_to_large_squeezing(self):
        # Q is analytically singular at x = 0; an absolute floor let
        # round-off through once r grew past about 1.2
        rng = np.random.default_rng(67)
        for _ in range(150):
            cfg = dataclasses.replace(random_config(rng), r=rng.uniform(0.1, 2.4), x=0.0)
            jet = jacobian_analytic(cfg)
            with pytest.raises(SloppyModelError):
                quantumness_general(qfi_matrix(jet), uhlmann_matrix(jet))
