"""Information matrix, curvature, quantumness, scalar bounds, sloppiness."""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mzsloppy.exceptions import SloppyModelError
from mzsloppy.metrology import (
    SINGULAR_Q_TOL,
    _SINGULAR_MESSAGE,
    ScalarBounds,
    check_weight,
    default_threshold,
    information_and_curvature,
    qfi_matrix,
    quantumness_general,
    quantumness_two_param,
    scalar_crb,
    sloppiness_report,
    uhlmann_matrix,
)
from mzsloppy.model import ModelConfig, ModelJet, jacobian_analytic
from oracles import complex_gram_information


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


def eigen_quantumness(q, u):
    """The n-parameter definition, the test-side reference of R: the
    largest eigenvalue modulus of Q^-1 U."""
    return float(np.max(np.abs(np.linalg.eigvals(np.linalg.solve(q, u)))))


class TestQuantumness:
    def test_hand_oracle(self):
        # eigenvalues of Q^{-1}U = (1/2)[[0,1],[-1,0]] are +-i/2
        q = 2 * np.eye(2)
        u = np.array([[0.0, 1.0], [-1.0, 0.0]])
        assert quantumness_general(q, u) == pytest.approx(0.5, abs=1e-14)
        assert eigen_quantumness(q, u) == pytest.approx(0.5, abs=1e-14)

    def test_zero_curvature_gives_zero(self):
        q = np.diag([3.0, 7.0])
        assert quantumness_general(q, np.zeros((2, 2))) == 0.0
        assert eigen_quantumness(q, np.zeros((2, 2))) == 0.0

    def test_singular_information_refused(self):
        # refused where the eigenvalue reference cannot solve with Q
        q = np.diag([1.0, 0.0])
        u = np.array([[0.0, 0.1], [-0.1, 0.0]])
        with pytest.raises(SloppyModelError):
            quantumness_general(q, u)
        with pytest.raises(np.linalg.LinAlgError):
            eigen_quantumness(q, u)

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
            two = eigen_quantumness(q, u)
            assert abs(general - two) <= 1e-9 * max(1.0, general)
            assert 0.0 <= general <= 1.0 + 1e-12
            checked += 1

    def test_displaced_models_keep_the_unit_bound(self):
        # with displacement on, Q + iU = 4 conj(G) is a Gram matrix, so
        # R <= 1 (here about 0.418), as the eigenvalue reference agrees
        cfg = ModelConfig(r=0.3, q=1.0, theta=math.pi / 2, phi=math.pi / 4,
                          x=1.0, alpha=math.pi / 2)
        jet = jacobian_analytic(cfg)
        q, u = qfi_matrix(jet), uhlmann_matrix(jet)
        r_displaced = quantumness_general(q, u)
        assert 0.4 < r_displaced <= 1.0
        assert eigen_quantumness(q, u) == pytest.approx(r_displaced, rel=1e-9)
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

    @pytest.mark.parametrize("repetitions", [2.5, True, 0])
    def test_repetitions_must_be_a_positive_integer(self, repetitions):
        # 2.5 once divided c_q by 2.5 and reported 2 repetitions; True read as 1
        with pytest.raises(ValueError, match="^repetitions must be a positive integer$"):
            scalar_crb(np.diag([4.0, 1.0]), np.zeros((2, 2)), np.eye(2), repetitions=repetitions)

    def test_large_rank_one_weights_are_positive_semidefinite(self):
        # outer(v, v) is positive semidefinite; the computed smallest
        # eigenvalue is round-off on the scale of its largest entry
        rng = np.random.default_rng(67)
        for v in rng.normal(0.0, 1e5, size=(2000, 2)):
            check_weight(np.outer(v, v))

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

    def test_vacuum_information_matrix_is_sloppy(self):
        # r = x = q = 0: the output is vacuum whatever the angles, so Q is
        # round-off (about 1e-32); the threshold does not shrink with it
        q = qfi_matrix(jet_at(beta=0.3, theta=0.7, phi=0.4, alpha=1.1, lam1=0.5, lam2=-0.9))
        assert np.abs(q).max() < 1e-20
        report = sloppiness_report(q)
        assert report.threshold == 1e-8
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

    def test_non_finite_input_rejected(self):
        # NaN once read as eigenvalues with sloppy=False, and inf as a threshold of inf
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="^sloppiness_report needs a finite matrix$"):
                sloppiness_report(np.array([[bad, 0.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("shape", [(2, 3), (2,), (2, 2, 2)])
    def test_non_square_input_rejected(self, shape):
        message = f"sloppiness_report needs a square matrix, got shape {shape}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            sloppiness_report(np.ones(shape))


# a U of another 2-D shape was once read at its [0, 1] entry, and a 1-D U
# raised an IndexError
@pytest.mark.parametrize("u_shape", [(3, 3), (2, 3), (2,)])
@pytest.mark.parametrize("function", [
    quantumness_general,
    quantumness_two_param,
    lambda q, u: scalar_crb(q, u, np.eye(2)),
], ids=["quantumness_general", "quantumness_two_param", "scalar_crb"])
def test_curvature_must_have_the_information_shape(function, u_shape):
    message = f"U must have Q's shape, got Q (2, 2) and U {u_shape}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        function(np.array([[2.0, 0.3], [0.3, 1.0]]), np.full(u_shape, 0.2))


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
        forms=tuple(a[0, j] * jet.forms[0] + a[1, j] * jet.forms[1] for j in range(2)),
        shifts=tuple(a[0, j] * jet.shifts[0] + a[1, j] * jet.shifts[1] for j in range(2)),
        symplectic=jet.symplectic,
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
        forms=tuple(o[0, j] * jet.forms[0] + o[1, j] * jet.forms[1] for j in range(2)),
        shifts=tuple(o[0, j] * jet.shifts[0] + o[1, j] * jet.shifts[1] for j in range(2)),
        symplectic=jet.symplectic,
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


def _reference_tensor(jet):
    """Per-matrix loop form of the Wick formula of G in the output frame, one
    config at a time: G_jk = 1/2 Tr[A_j C A_k C^T] + m^T A_j C A_k m, with
    A_j = S^-T F_j S^-1 phase j's generator pushed forward by the circuit."""
    Om = np.array([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0.0]])
    C = jet.state.cov + 0.5j * Om
    m = jet.state.mean
    S_inv = -Om @ jet.symplectic.T @ Om
    A = [S_inv.T @ f @ S_inv for f in jet.forms]
    return np.array([
        [0.5 * np.trace(A[j] @ C @ A[k] @ C.T) + m @ A[j] @ C @ A[k] @ m for k in range(2)]
        for j in range(2)
    ])


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
        g = _reference_tensor(single)
        assert np.max(np.abs(q - 4 * g.real)) < 1e-12 * scale
        assert abs(u[0, 1] + 4 * g[0, 1].imag) < 1e-12 * scale
        try:
            assert R[i] == quantumness_general(q, u) and i not in r_errors
        except SloppyModelError as exc:
            assert np.isnan(R[i]) and str(r_errors[i]) == str(exc)
    assert isinstance(r_errors[len(configs) - 1], SloppyModelError)


def test_stacked_gates_never_raise_for_one_point():
    good = ModelConfig(r=0.5, q=0.3, x=0.5, alpha=0.4)
    # its computed symplectic spectrum reads as impure; Q does not gate on it
    large = ModelConfig(r=4.0, x=2.0, theta=1.0, phi=0.5)
    jet = jacobian_analytic([good, ModelConfig(r=400.0), large, good])
    Q, errors = qfi_matrix(jet)
    assert sorted(errors) == [1]
    assert str(errors[1]) == "state moments must be finite"
    np.testing.assert_array_equal(Q[0], qfi_matrix(jacobian_analytic(good)))
    assert np.isnan(Q[1]).all()
    np.testing.assert_array_equal(Q[2], qfi_matrix(jacobian_analytic(large)))
    assert np.isfinite(Q[2]).all()


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


# -- one reading of Q: its 2x2 invariants against the eigen/solve path -------

EPS = np.finfo(float).eps


def eigen_gate(q):
    """The eigvalsh rule: Q is refused unless it is finite and its smallest
    eigenvalue exceeds SINGULAR_Q_TOL * max(1, largest). Returns (refused,
    distance of the smallest eigenvalue from the threshold, largest)."""
    if not np.isfinite(q).all():
        return True, math.inf, math.nan
    low, top = np.linalg.eigvalsh(q)
    threshold = SINGULAR_Q_TOL * max(1.0, top)
    return low <= threshold, abs(low - threshold), top


@st.composite
def information_rows(draw):
    """(Q, u12): a 2x2 PSD Q at a scale from 1e-150 to 1e300, with exactly
    singular, zero, NaN and inf rows mixed in, and a curvature on its scale."""
    scale = 10.0 ** draw(st.floats(-150.0, 300.0))
    kind = draw(st.sampled_from(("regular",) * 6 + ("singular", "zero", "nan", "inf")))
    if kind == "regular":
        # eigenvalues scale and scale * ratio; some ratios sit at the gate
        ratio = draw(st.one_of(
            st.floats(-20.0, 0.0).map(lambda e: 10.0 ** e),
            st.floats(-1e-2, 1e-2).map(lambda d: SINGULAR_Q_TOL * (1.0 + d)),
        ))
        angle = draw(st.floats(0.0, math.pi))
        c, s = math.cos(angle), math.sin(angle)
        off = scale * c * s * (1.0 - ratio)
        q = np.array([[scale * (c * c + ratio * s * s), off],
                      [off, scale * (s * s + ratio * c * c)]])
    elif kind == "singular":
        q = scale * np.array(draw(st.sampled_from((
            [[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]],
            [[1.0, 1.0], [1.0, 1.0]], [[1.0, -2.0], [-2.0, 4.0]],
        ))))
    elif kind == "zero":
        q = np.zeros((2, 2))
    else:
        q = np.eye(2)
        q[draw(st.integers(0, 1)), draw(st.integers(0, 1))] = math.nan if kind == "nan" else math.inf
    return q, draw(st.floats(-1.0, 1.0)) * scale


@settings(deadline=None, max_examples=300)
@given(rows=st.lists(information_rows(), min_size=1, max_size=8),
       w=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4), reps=st.integers(1, 5))
def test_invariants_agree_with_the_eigen_and_solve_path(rows, w, reps):
    # the retired n-parameter path is the reference: the eigvalsh gate, and
    # R and c_q as max|eig(Q^-1 U)| and Tr[Q^-1 W]/M wherever Q is well
    # conditioned. The gate's verdict may differ only where the smallest
    # eigenvalue is within 1e-6 of the threshold, relative, or within 4 eps
    # times the largest, the round-off of either rule's smallest eigenvalue
    # (they differ by at most 0.6 eps times the largest at the threshold)
    Q = np.array([q for q, _ in rows])
    U = np.zeros_like(Q)
    U[:, 0, 1] = [u12 for _, u12 in rows]
    U[:, 1, 0] = -U[:, 0, 1]
    L = np.array(w).reshape(2, 2)
    W = L @ L.T
    R, errors = quantumness_general(Q, U)
    bounds, crb_errors = scalar_crb(Q, U, W, repetitions=reps)
    assert crb_errors.keys() == errors.keys()
    for i, (q, u) in enumerate(zip(Q, U)):
        refused, distance, top = eigen_gate(q)
        if i in errors:
            assert str(errors[i]) == str(SloppyModelError(_SINGULAR_MESSAGE))
            assert math.isnan(R[i]) and math.isnan(bounds.c_q[i])
            with pytest.raises(SloppyModelError):
                quantumness_two_param(q, u)
        else:
            assert quantumness_two_param(q, u) == R[i]  # bitwise: one implementation
        if distance <= 1e-6 * SINGULAR_Q_TOL * max(1.0, top) + 4 * EPS * top:
            continue
        assert (i in errors) == refused
        if not refused and np.linalg.eigvalsh(q)[0] >= 1e-6 * top:
            r_ref = np.max(np.abs(np.linalg.eigvals(np.linalg.solve(q, u))))
            c_ref = np.trace(np.linalg.solve(q, W)) / reps
            # relative, but for values below the normal floats (tiny curvatures
            # and weights), which keep only absolute precision
            assert R[i] == pytest.approx(r_ref, rel=1e-9, abs=1e-300)
            assert bounds.c_q[i] == pytest.approx(c_ref, rel=1e-9, abs=1e-300)


def test_more_than_two_parameters_are_refused():
    for q in (np.eye(3), np.stack([np.eye(3)] * 2)):
        with pytest.raises(ValueError, match="2x2"):
            quantumness_general(q, np.zeros_like(q))
    with pytest.raises(ValueError, match="2x2"):
        quantumness_two_param(np.eye(3), np.zeros((3, 3)))
    with pytest.raises(ValueError):
        scalar_crb(np.eye(3), np.zeros((3, 3)), np.eye(3))


# -- the geometric tensor up to large squeezing ----------------------------

ANGLES = st.floats(-math.pi, math.pi)


@settings(deadline=None, max_examples=200)
@given(r=st.floats(0.0, 6.0), x=st.floats(0.0, 1.5), q=st.floats(0.0, 1.0), beta=ANGLES,
       theta=ANGLES, phi=ANGLES, alpha=ANGLES, lam1=ANGLES, lam2=ANGLES)
def test_information_and_curvature_form_a_gram_matrix(**fields):
    # Q + iU = 4 conj(G) is positive semidefinite and R <= 1 at every
    # setting, and no point is refused: the output state is pure however
    # large the squeezing, and nothing gates on its symplectic spectrum
    jet = jacobian_analytic([ModelConfig(**fields)])
    Q, U, det, errors = information_and_curvature(jet, determinant=True)
    assert errors == {}
    assert np.isfinite(Q).all() and np.isfinite(U).all() and det[0] >= 0.0
    assert np.linalg.eigvalsh(Q[0] + 1j * U[0])[0] >= -1e-9 * np.trace(Q[0])
    R, r_errors = quantumness_general(Q, U)
    if r_errors:
        assert isinstance(r_errors[0], SloppyModelError)
    else:
        # 1 - R^2 = det(Q + iU) / det Q: the round-off of det(Q + iU), on
        # the scale tr(Q)^2, reaches R divided by det Q. It shows near R = 1,
        # as where R is 1 exactly (theta = phi = q = 0: both tangent vectors
        # lie in the two-photon sector of mode 0, so they are parallel)
        amplification = np.trace(Q[0]) ** 2 / np.linalg.det(Q[0])
        assert 0.0 <= R[0] <= 1.0 + 1e-12 * max(1.0, amplification)


# -- the kernel's real arithmetic against its complex route -------------------

def _kernel_stack(seed: int) -> list:
    # large squeezing and displacement, and x = 0 rows, where U12 is zero (the
    # last two exactly)
    rng = np.random.default_rng(seed)
    configs = [random_config(rng, q_max=1e3, r_max=6.0, x_max=6.0) for _ in range(300)]
    return configs + [dataclasses.replace(c, x=0.0) for c in configs[:30]] + [
        ModelConfig(r=0.5, q=0.3, x=0.0), ModelConfig(r=0.5, q=0.3, beta=0.2, theta=0.3, phi=0.2)]


@pytest.mark.parametrize("seed", [34, 35])
def test_real_kernel_matches_the_complex_route(seed):
    jet = jacobian_analytic(_kernel_stack(seed))
    Q, U, det, errors = information_and_curvature(jet, determinant=True)
    Qc, Uc, det_c, errors_c = complex_gram_information(jet)
    assert errors == errors_c == {}
    tolerance = 4 * np.finfo(float).eps * np.abs(Qc).max(axis=(1, 2))[:, None, None]
    assert (np.abs(Q - Qc) <= tolerance).all() and (np.abs(U - Uc) <= tolerance).all()
    # both read the same [Re V | Im V]: scaled by multiplying with 1/sqrt 8 and
    # 1/sqrt 2, as numpy divides a complex by a real
    assert np.array_equal(det, det_c)


def test_real_kernel_is_exactly_symmetric_and_antisymmetric():
    configs = _kernel_stack(36)
    Q, U, errors = information_and_curvature(jacobian_analytic(configs))
    assert errors == {}
    assert np.array_equal(Q, Q.transpose(0, 2, 1))
    assert np.array_equal(U, -U.transpose(0, 2, 1))
    zero = U == 0.0
    assert zero[:, [0, 1], [0, 1]].all()
    # an exact zero is +0.0 (the JSON writer would print -0.0), as at x = 0
    assert zero[-2:, 0, 1].all() and not np.signbit(U[zero]).any()
