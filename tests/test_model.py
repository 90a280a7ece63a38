"""Interferometer construction, state evaluation, parameter jets."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mzsloppy.gaussian import (
    BeamSplitter,
    Displacement,
    PhaseRotation,
    Squeezer,
    gate_symplectic,
    physicality_check,
    symplectic_form,
)
from mzsloppy.model import (
    MODEL_FIELDS,
    ModelConfig,
    build_mz_model,
    evaluate_state,
    jacobian_analytic,
)
from oracles import FD_STEP_MAX, FD_STEP_MIN, dcov, dmean, jacobian_fd
from rows import columns

ANGLES = st.floats(min_value=-math.pi, max_value=math.pi)


def random_config(rng, q_max=1.0):
    return ModelConfig(
        r=rng.uniform(0.05, 1.2),
        q=rng.uniform(0.0, q_max),
        beta=rng.uniform(0, 2 * math.pi),
        theta=rng.uniform(0, 2 * math.pi),
        phi=rng.uniform(0, math.pi / 2),
        x=rng.uniform(0.05, 1.2),
        alpha=rng.uniform(0, 2 * math.pi),
        lam1=rng.uniform(0, 2 * math.pi),
        lam2=rng.uniform(0, 2 * math.pi),
    )


def jet_distance(jet, fd):
    """Largest gap between a jet's moment derivatives and jacobian_fd's."""
    return max(
        max(np.max(np.abs(dcov(jet)[k] - fd.dcov[k])) for k in range(2)),
        max(np.max(np.abs(dmean(jet)[k] - fd.dmean[k])) for k in range(2)),
    )


class TestConfig:
    def test_gamma_accessor(self):
        cfg = ModelConfig(alpha=0.3, lam1=0.4)
        assert cfg.gamma == pytest.approx(0.3 + 0.8, abs=1e-15)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            ModelConfig(r=math.nan)

    def test_negative_magnitudes_rejected(self):
        for field in ("r", "x", "q"):
            with pytest.raises(ValueError):
                ModelConfig(**{field: -0.1})


class TestBuildModel:
    def test_gate_sequence(self):
        cfg = ModelConfig(
            r=0.5, q=0.7, beta=0.1, theta=0.2, phi=0.3, x=0.4, alpha=0.5,
            lam1=0.6, lam2=0.7,
        )
        gates = build_mz_model(cfg)
        assert [type(g) for g in gates] == [
            Squeezer, Squeezer, Displacement, BeamSplitter,
            PhaseRotation, Squeezer, PhaseRotation,
        ]
        assert (gates[0].mode, gates[0].magnitude, gates[0].angle) == (0, 0.5, 0.0)
        assert (gates[1].mode, gates[1].magnitude, gates[1].angle) == (1, 0.5, 0.0)
        assert (gates[2].mode, gates[2].amplitude, gates[2].angle) == (0, 0.7, 0.1)
        assert gates[3].modes == (0, 1)
        assert (gates[3].mix, gates[3].phase) == (0.3, 0.2)
        assert (gates[4].mode, gates[4].angle) == (0, 0.6)
        assert (gates[5].mode, gates[5].magnitude, gates[5].angle) == (0, 0.4, 0.5)
        assert (gates[6].mode, gates[6].angle) == (0, 0.7)

    def test_trivial_config_gives_vacuum_for_all_phases(self):
        for lam1, lam2 in [(0.0, 0.0), (0.4, -1.1), (2.0, 3.0)]:
            state = evaluate_state(ModelConfig(lam1=lam1, lam2=lam2))
            np.testing.assert_allclose(state.cov, np.eye(4) / 2, atol=1e-14)
            np.testing.assert_allclose(state.mean, np.zeros(4), atol=1e-15)

    def test_baseline_collapses_to_single_phase(self):
        # x = 0: the two bound phases act back to back, only the sum matters
        cfg = ModelConfig(r=0.6, q=0.8, beta=0.2, theta=0.9, phi=0.5, x=0.0,
                          lam1=0.7, lam2=1.1)
        merged = dataclasses.replace(cfg, lam1=cfg.lam1 + cfg.lam2, lam2=0.0)
        a, b = evaluate_state(cfg), evaluate_state(merged)
        np.testing.assert_allclose(a.cov, b.cov, atol=1e-13)
        np.testing.assert_allclose(a.mean, b.mean, atol=1e-13)


def _oracle_cov(cfg):
    """Direct 4x4 matrix propagation, built from scratch.

    Independent of the gaussian layer: symplectics are assembled inline
    and multiplied out, so a transport bug there cannot hide here.
    """
    def rot(a):
        return np.array([[math.cos(a), math.sin(a)], [-math.sin(a), math.cos(a)]])

    def ccw(a):
        return np.array([[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]])

    def sq(x, al):
        return ccw(al / 2) @ np.diag([math.exp(x), math.exp(-x)]) @ ccw(al / 2).T

    def emb(block, mode):
        s = np.eye(4)
        s[2 * mode:2 * mode + 2, 2 * mode:2 * mode + 2] = block
        return s

    c, s_ = math.cos(cfg.phi), math.sin(cfg.phi)
    bs = np.block([[c * np.eye(2), s_ * np.eye(2)], [-s_ * np.eye(2), c * np.eye(2)]])
    bs = bs @ emb(rot(cfg.theta), 1)
    total = (
        emb(rot(cfg.lam2), 0)
        @ emb(sq(cfg.x, cfg.alpha), 0)
        @ emb(rot(cfg.lam1), 0)
        @ bs
        @ emb(sq(cfg.r, 0.0), 0)
        @ emb(sq(cfg.r, 0.0), 1)
    )
    return total @ (np.eye(4) / 2) @ total.T


class TestEvaluateState:
    def test_two_mode_squeezed_cross_correlations(self):
        # balanced mixer at quarter phase turns equal squeezers into
        # two-mode-squeezed-type q-q and p-p correlations
        r = 0.45
        cfg = ModelConfig(r=r, theta=math.pi / 2, phi=math.pi / 4)
        state = evaluate_state(cfg)
        cross = state.cov[0:2, 2:4]
        np.testing.assert_allclose(
            cross, np.diag([-math.sinh(2 * r) / 2, math.sinh(2 * r) / 2]), atol=1e-12
        )
        np.testing.assert_allclose(state.cov, _oracle_cov(cfg), atol=1e-12)

    def test_real_mixer_keeps_squeezed_product(self):
        cfg = ModelConfig(r=0.5, phi=0.3)
        state = evaluate_state(cfg)
        block = 0.5 * np.diag([math.e, 1 / math.e])
        expected = np.block(
            [[block, np.zeros((2, 2))], [np.zeros((2, 2)), block]]
        )
        np.testing.assert_allclose(state.cov, expected, atol=1e-12)

    def test_oracle_on_random_configs(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            cfg = random_config(rng, q_max=0.0)
            np.testing.assert_allclose(
                evaluate_state(cfg).cov, _oracle_cov(cfg), atol=1e-11
            )

    def test_output_pure(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            state = evaluate_state(random_config(rng))
            det = np.linalg.det(state.cov)
            assert abs(det - 1 / 16) < 1e-9 / 16
            assert physicality_check(state).classification == "pure"

    def test_output_pure_at_large_squeezing(self):
        # the computed spectrum loses digits like cond(cov), about e^{4(r+x)};
        # the label's tolerances widen with it, so no pure state reads
        # "unphysical" or "mixed"
        rng = np.random.default_rng(7)
        params = rng.uniform(-math.pi, math.pi, size=(3000, 9))
        for name, top in (("r", 6.0), ("x", 3.0), ("q", 1.0)):
            params[:, MODEL_FIELDS.index(name)] = rng.uniform(0.0, top, 3000)
        state = jacobian_analytic(columns(params)).state
        assert state.errors == {}
        assert set(physicality_check(state).classification) == {"pure"}

    def test_phase_periodicity(self):
        cfg = ModelConfig(r=0.7, q=0.4, theta=1.0, phi=0.6, x=0.3, lam1=0.2, lam2=0.9)
        shifted = dataclasses.replace(cfg, lam1=cfg.lam1 + 2 * math.pi)
        a, b = evaluate_state(cfg), evaluate_state(shifted)
        np.testing.assert_allclose(a.cov, b.cov, atol=1e-12)
        np.testing.assert_allclose(a.mean, b.mean, atol=1e-13)


class TestJacobianAnalytic:
    def test_baseline_derivatives_coincide(self):
        # x = 0: nothing separates the two rotations, so the jets match
        jet = jacobian_analytic(
            ModelConfig(r=0.8, q=0.5, beta=0.3, theta=1.2, phi=0.4, x=0.0,
                        lam1=0.6, lam2=1.4)
        )
        np.testing.assert_allclose(*dcov(jet), atol=1e-13)
        np.testing.assert_allclose(*dmean(jet), atol=1e-14)

    def test_vacuum_derivatives_vanish(self):
        jet = jacobian_analytic(ModelConfig(lam1=0.7, lam2=-0.2))
        for k in range(2):
            np.testing.assert_allclose(dcov(jet)[k], np.zeros((4, 4)), atol=1e-15)
            np.testing.assert_allclose(dmean(jet)[k], np.zeros(4), atol=1e-15)

    def test_agrees_with_finite_differences(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            cfg = random_config(rng)
            assert jet_distance(jacobian_analytic(cfg), jacobian_fd(cfg)) < 1e-6

    def test_jet_is_the_commutator_with_each_phase_generator(self):
        # each phase is generated by the mode-0 number operator; in the output
        # frame its generator is A2 = P0 for lam2 (the last gate) and
        # A1 = S_t^-T P0 S_t^-1 for lam1, with S_t the squeezer-then-lam2 tail,
        # so dcov_j = Om A_j cov - cov A_j Om and dmean_j = Om A_j mean
        om = symplectic_form(2)
        p0 = np.diag([1.0, 1.0, 0.0, 0.0])
        rng = np.random.default_rng(31)
        for _ in range(200):
            cfg = random_config(rng, q_max=2.0)
            cfg = dataclasses.replace(cfg, r=rng.uniform(0, 2), x=rng.uniform(0, 2))
            squeezer, rotation = build_mz_model(cfg)[-2:]
            s_t = gate_symplectic(rotation, 2)[0] @ gate_symplectic(squeezer, 2)[0]
            s_t_inv = -om @ s_t.T @ om
            jet = jacobian_analytic(cfg)
            cov, mean = jet.state.cov, jet.state.mean
            for a, dc, dm in zip((s_t_inv.T @ p0 @ s_t_inv, p0), dcov(jet), dmean(jet)):
                for got, want in ((dc, om @ a @ cov - cov @ a @ om), (dm, om @ a @ mean)):
                    np.testing.assert_allclose(got, want, rtol=0, atol=1e-10 * np.abs(want).max())

    def test_forms_and_shifts_pull_each_phase_generator_back_to_the_input(self):
        # the output-frame generators A_j of the test above, read on the
        # input vacuum: F_j = S^T A_j S and u_j = S^T A_j mean
        om = symplectic_form(2)
        p0 = np.diag([1.0, 1.0, 0.0, 0.0])
        rng = np.random.default_rng(37)
        for _ in range(200):
            cfg = random_config(rng, q_max=2.0)
            cfg = dataclasses.replace(cfg, r=rng.uniform(0, 2), x=rng.uniform(0, 2))
            squeezer, rotation = build_mz_model(cfg)[-2:]
            s_t = gate_symplectic(rotation, 2)[0] @ gate_symplectic(squeezer, 2)[0]
            s_t_inv = -om @ s_t.T @ om
            jet = jacobian_analytic(cfg)
            S, mean = jet.symplectic, jet.state.mean
            for a, form, shift in zip((s_t_inv.T @ p0 @ s_t_inv, p0), jet.forms, jet.shifts):
                for got, want in ((form, S.T @ a @ S), (shift, S.T @ a @ mean)):
                    np.testing.assert_allclose(got, want, rtol=0, atol=1e-10 * np.abs(want).max())

    def test_dcov_symmetric(self):
        rng = np.random.default_rng(29)
        for _ in range(5):
            jet = jacobian_analytic(random_config(rng))
            for dc in dcov(jet):
                assert np.max(np.abs(dc - dc.T)) < 1e-10


class TestJacobianFd:
    def test_step_range_enforced(self):
        cfg = ModelConfig(r=0.5, x=0.5)
        for bad in (0.0, 1e-9, 2e-3, -1e-5, math.nan):
            with pytest.raises(ValueError):
                jacobian_fd(cfg, step=bad)
        jacobian_fd(cfg, step=FD_STEP_MIN)
        jacobian_fd(cfg, step=FD_STEP_MAX)

    def test_fd_dcov_symmetric(self):
        jet = jacobian_fd(
            ModelConfig(r=0.6, q=0.4, beta=1.0, theta=0.7, phi=0.5, x=0.8,
                        alpha=0.9, lam1=0.3, lam2=1.7)
        )
        for k in range(2):
            assert np.max(np.abs(jet.dcov[k] - jet.dcov[k].T)) < 1e-10

    def test_second_order_convergence(self):
        # central differences: halving the step divides the error by ~4
        rng = np.random.default_rng(41)
        ratios = []
        for _ in range(6):
            cfg = random_config(rng)
            exact = jacobian_analytic(cfg)
            coarse = jet_distance(exact, jacobian_fd(cfg, step=1e-3))
            fine = jet_distance(exact, jacobian_fd(cfg, step=5e-4))
            if fine > 1e-13:
                ratios.append(coarse / fine)
        assert ratios, "all samples hit the noise floor"
        for ratio in ratios:
            assert 3.2 < ratio < 4.8


# -- symmetry properties ----------------------------------------------------


@settings(deadline=None, max_examples=30)
@given(delta=ANGLES, lam1=ANGLES, lam2=ANGLES)
def test_baseline_depends_on_phase_sum_only(delta, lam1, lam2):
    cfg = ModelConfig(r=0.7, q=0.6, beta=0.4, theta=1.1, phi=0.5, x=0.0,
                      lam1=lam1, lam2=lam2)
    shifted = dataclasses.replace(cfg, lam1=lam1 + delta, lam2=lam2 - delta)
    a, b = evaluate_state(cfg), evaluate_state(shifted)
    assert np.max(np.abs(a.cov - b.cov)) < 1e-12
    assert np.max(np.abs(a.mean - b.mean)) < 1e-12


@settings(deadline=None, max_examples=60)
@given(r=st.floats(0.0, 1.0), x=st.floats(0.0, 1.0), q=st.floats(0.0, 2.0), beta=ANGLES,
       theta=ANGLES, phi=ANGLES, alpha=ANGLES, lam1=ANGLES, lam2=ANGLES, d=ANGLES, e=ANGLES)
def test_squeezer_phase_combination_invariance(d, e, **fields):
    # the squeezer at angle alpha is a rotation by -alpha/2 of mode 0, the
    # squeezer at angle 0 and the rotation back, between the lam1 and lam2
    # rotations of that mode: (alpha, lam1, lam2) -> (alpha - 2d, lam1 + d,
    # lam2 - d) rebuilds the same mode-0 operator gate by gate, so the full
    # state is unchanged, and the model around it, so Q and U. Shifting lam2
    # alone rotates the state by the gate whose generator it is, which
    # leaves Q and U too
    from mzsloppy.metrology import information_and_curvature

    cfg = ModelConfig(**fields)
    moved = dataclasses.replace(cfg, alpha=cfg.alpha - 2 * d, lam1=cfg.lam1 + d, lam2=cfg.lam2 - d)
    last = dataclasses.replace(cfg, lam2=cfg.lam2 + e)
    jet = jacobian_analytic([cfg, moved, last])
    a, b = jet.state.cov, jet.state.mean
    assert np.max(np.abs(a[1] - a[0])) < 1e-12
    assert np.max(np.abs(b[1] - b[0])) < 1e-12
    Q, U, errors = information_and_curvature(jet)
    assert errors == {}
    scale = np.abs(a[0]).max()
    tolerance = 1e-12 * max(np.abs(Q[0]).max(), scale ** 2)  # terms of Q's sums, as at vacuum
    for k in (1, 2):
        assert np.abs(Q[k] - Q[0]).max() <= tolerance
        assert np.abs(U[k] - U[0]).max() <= tolerance


@settings(deadline=None, max_examples=20)
@given(delta=st.floats(min_value=-1.0, max_value=1.0))
def test_pair_shift_leaves_information_content_invariant(delta):
    # (alpha + 2d, lam1 - d) alone changes the state by a fixed rotation
    # on mode 0 (so raw covariances differ), but every quantity downstream
    # of the jet that is symplectic-congruence invariant must agree; the
    # jets themselves are related by that rotation
    from mzsloppy.metrology import qfi_matrix, uhlmann_matrix

    cfg = ModelConfig(r=0.5, q=0.7, beta=0.3, theta=0.9, phi=0.4, x=0.6,
                      alpha=0.8, lam1=0.2, lam2=1.0)
    shifted = dataclasses.replace(cfg, alpha=cfg.alpha + 2 * delta,
                                  lam1=cfg.lam1 - delta)
    ja, jb = jacobian_analytic(cfg), jacobian_analytic(shifted)
    np.testing.assert_allclose(qfi_matrix(ja), qfi_matrix(jb), atol=1e-9)
    np.testing.assert_allclose(uhlmann_matrix(ja), uhlmann_matrix(jb), atol=1e-9)


def test_reparametrization_chain_rule():
    # jets pulled back to (u, v) = (lam1 + lam2, lam1 - lam2) must match
    # direct central differences taken in the new coordinates
    cfg = ModelConfig(r=0.6, q=0.5, beta=0.7, theta=1.3, phi=0.45, x=0.9,
                      alpha=0.2, lam1=0.8, lam2=0.3)
    d1, d2 = dcov(jacobian_analytic(cfg))
    # d/du = (d/dlam1 + d/dlam2)/2, d/dv = (d/dlam1 - d/dlam2)/2
    pulled = {"u": (d1 + d2) / 2, "v": (d1 - d2) / 2}
    h = 1e-5
    u0, v0 = cfg.lam1 + cfg.lam2, cfg.lam1 - cfg.lam2

    def state_uv(u, v):
        return evaluate_state(
            dataclasses.replace(cfg, lam1=(u + v) / 2, lam2=(u - v) / 2)
        ).cov

    fd_u = (state_uv(u0 + h, v0) - state_uv(u0 - h, v0)) / (2 * h)
    fd_v = (state_uv(u0, v0 + h) - state_uv(u0, v0 - h)) / (2 * h)
    np.testing.assert_allclose(pulled["u"], fd_u, atol=1e-6)
    np.testing.assert_allclose(pulled["v"], fd_v, atol=1e-6)


# -- stacked evaluation -----------------------------------------------------

CONFIGS = st.builds(
    ModelConfig,
    r=st.floats(min_value=0.05, max_value=1.2),
    q=st.floats(min_value=0.0, max_value=1.0),
    beta=ANGLES,
    theta=ANGLES,
    phi=st.floats(min_value=0.0, max_value=math.pi / 2),
    x=st.floats(min_value=0.0, max_value=1.2),
    alpha=ANGLES,
    lam1=ANGLES,
    lam2=ANGLES,
)


@settings(deadline=None, max_examples=25)
@given(configs=st.lists(CONFIGS, min_size=1, max_size=6))
def test_stacked_jet_is_bitwise_its_single_jets(configs):
    jet = jacobian_analytic(configs)
    assert jet.state.cov.shape == (len(configs), 4, 4)
    assert jet.state.errors == {}
    for i, cfg in enumerate(configs):
        single = jacobian_analytic(cfg)
        assert np.array_equal(jet.state.cov[i], single.state.cov)
        assert np.array_equal(jet.state.mean[i], single.state.mean)
        assert np.array_equal(jet.symplectic[i], single.symplectic)
        for k in range(2):
            assert np.array_equal(jet.forms[k][i], single.forms[k])
            assert np.array_equal(jet.shifts[k][i], single.shifts[k])
            assert np.array_equal(dcov(jet)[k][i], dcov(single)[k])
            assert np.array_equal(dmean(jet)[k][i], dmean(single)[k])
        assert jet_distance(single, jacobian_fd(cfg)) < 1e-6


def test_overflowing_point_is_an_error_of_its_own(recwarn):
    good = ModelConfig(r=0.5, x=0.5)
    jet = jacobian_analytic([good, ModelConfig(r=400.0), good])
    assert {i: str(e) for i, e in jet.state.errors.items()} == {
        1: "state moments must be finite",
    }
    np.testing.assert_array_equal(jet.state.cov[0], jacobian_analytic(good).state.cov)
    with pytest.raises(ValueError, match="state moments must be finite"):
        jacobian_analytic(ModelConfig(r=400.0))
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_empty_stack():
    jet = jacobian_analytic([])
    assert jet.state.cov.shape == (0, 4, 4)
    assert dmean(jet)[1].shape == (0, 4)
    assert jet.state.errors == {}
