"""State construction, gate symplectics, circuit transport, physicality."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mzsloppy.gaussian import (
    BeamSplitter,
    Displacement,
    GaussianState,
    PhaseRotation,
    Squeezer,
    apply_circuit,
    apply_gate,
    check_positive_integer,
    gate_symplectic,
    physicality_check,
    symplectic_eigenvalues,
    symplectic_form,
)
from oracles import vacuum_state

ANGLES = st.floats(min_value=-math.pi, max_value=math.pi)
MAGNITUDES = st.floats(min_value=0.0, max_value=2.0)


def rot2(a):
    return np.array([[math.cos(a), math.sin(a)], [-math.sin(a), math.cos(a)]])


def ccw2(a):
    # counterclockwise rotation, used by the squeezer angle decomposition
    return np.array([[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]])


class TestVacuum:
    def test_single_mode(self):
        st_ = vacuum_state(1)
        np.testing.assert_array_equal(st_.mean, np.zeros(2))
        np.testing.assert_array_equal(st_.cov, np.eye(2) / 2)

    def test_two_modes(self):
        st_ = vacuum_state(2)
        np.testing.assert_array_equal(st_.mean, np.zeros(4))
        np.testing.assert_array_equal(st_.cov, np.eye(4) / 2)

    def test_symplectic_eigenvalues_are_half(self):
        nus = symplectic_eigenvalues(vacuum_state(3).cov)
        np.testing.assert_allclose(nus, [0.5, 0.5, 0.5], atol=1e-14)

    def test_zero_modes_rejected(self):
        with pytest.raises(ValueError):
            vacuum_state(0)


class TestSymplecticForm:
    def test_antisymmetric_and_squares_to_minus_identity(self):
        for m in (1, 2, 3):
            omega = symplectic_form(m)
            np.testing.assert_array_equal(omega, -omega.T)
            np.testing.assert_allclose(omega @ omega, -np.eye(2 * m), atol=0)


@pytest.mark.parametrize("modes", [True, 2.0, 0, -1, "2"])
def test_mode_count_must_be_a_positive_integer(modes):
    # both mode-count checks refuse a bool and a float alike
    with pytest.raises(ValueError, match="^modes must be a positive integer$"):
        symplectic_form(modes)
    with pytest.raises(ValueError, match="^modes must be a positive integer$"):
        GaussianState(modes=modes, mean=np.zeros(4), cov=np.eye(4) / 2)


def test_numpy_integer_mode_count_is_taken():
    assert check_positive_integer(np.int64(2), "modes") == 2
    np.testing.assert_array_equal(symplectic_form(np.int64(2)), symplectic_form(2))
    state = GaussianState(modes=np.int64(2), mean=np.zeros(4), cov=np.eye(4) / 2)
    np.testing.assert_array_equal(state.cov, np.eye(4) / 2)


class TestGateSymplectic:
    def test_rotation_block(self):
        lam = 0.7312
        s, shift = gate_symplectic(PhaseRotation(mode=0, angle=lam), modes=1)
        np.testing.assert_allclose(s, rot2(lam), atol=1e-15)
        np.testing.assert_array_equal(shift, np.zeros(2))

    def test_squeezer_zero_angle_on_vacuum(self):
        r = 0.83
        out = apply_gate(vacuum_state(1), Squeezer(mode=0, magnitude=r))
        np.testing.assert_allclose(
            out.cov, 0.5 * np.diag([math.exp(2 * r), math.exp(-2 * r)]), rtol=1e-14
        )

    def test_squeezer_angle_decomposition(self):
        # half-angle sandwich, explicit matrix-product oracle
        x, alpha = 0.6, 1.1
        s, _ = gate_symplectic(Squeezer(mode=0, magnitude=x, angle=alpha), modes=1)
        expected = (
            ccw2(alpha / 2)
            @ np.diag([math.exp(x), math.exp(-x)])
            @ ccw2(alpha / 2).T
        )
        np.testing.assert_allclose(s, expected, atol=1e-14)

    def test_rotation_on_vacuum_is_identity(self):
        for lam in (0.0, 0.3, -2.0, math.pi):
            out = apply_gate(vacuum_state(1), PhaseRotation(mode=0, angle=lam))
            np.testing.assert_allclose(out.cov, np.eye(2) / 2, atol=1e-15)

    def test_balanced_splitter_is_symplectic(self):
        s, _ = gate_symplectic(BeamSplitter(mix=math.pi / 4, phase=0.0), modes=2)
        omega = symplectic_form(2)
        np.testing.assert_allclose(s @ omega @ s.T, omega, atol=1e-12)

    def test_displacement_shift_and_identity(self):
        s, shift = gate_symplectic(
            Displacement(mode=0, amplitude=1.3, angle=0.4), modes=1
        )
        np.testing.assert_array_equal(s, np.eye(2))
        # the coherent state (1.3/sqrt 2) e^{0.4i}: <q> = sqrt 2 Re alpha
        # (the Fock oracle's output moments pin this convention)
        np.testing.assert_allclose(
            shift, 1.3 * np.array([math.cos(0.4), math.sin(0.4)]), atol=1e-15,
        )

    def test_nonfinite_parameter_rejected(self):
        with pytest.raises(ValueError):
            gate_symplectic(PhaseRotation(mode=0, angle=math.nan), modes=1)
        with pytest.raises(ValueError):
            gate_symplectic(Squeezer(mode=0, magnitude=math.inf), modes=1)

    def test_out_of_range_mode_rejected(self):
        with pytest.raises(ValueError):
            gate_symplectic(PhaseRotation(mode=2, angle=0.1), modes=2)
        with pytest.raises(ValueError):
            gate_symplectic(BeamSplitter(modes=(0, 3), mix=0.1), modes=2)

    def test_identical_beamsplitter_modes_rejected(self):
        with pytest.raises(ValueError):
            BeamSplitter(modes=(1, 1), mix=0.1)


class TestApplyGate:
    def test_real_splitter_fixes_equal_squeezed_pair(self):
        # two identically squeezed vacua: direct matrix-product oracle says
        # a zero-phase splitter of any mix angle leaves the state invariant
        state = vacuum_state(2)
        for mode in (0, 1):
            state = apply_gate(state, Squeezer(mode=mode, magnitude=0.7))
        for mix in (0.2, math.pi / 4, 1.1):
            s, _ = gate_symplectic(BeamSplitter(mix=mix, phase=0.0), modes=2)
            np.testing.assert_allclose(s @ state.cov @ s.T, state.cov, atol=1e-12)
            out = apply_gate(state, BeamSplitter(mix=mix, phase=0.0))
            np.testing.assert_allclose(out.cov, state.cov, atol=1e-12)

    def test_unit_displacement_on_vacuum(self):
        out = apply_gate(vacuum_state(1), Displacement(mode=0, amplitude=1.0))
        np.testing.assert_allclose(out.mean, [1.0, 0.0], atol=1e-15)
        np.testing.assert_array_equal(out.cov, np.eye(2) / 2)

    def test_balanced_splitter_fixes_vacuum(self):
        out = apply_gate(vacuum_state(2), BeamSplitter(mix=math.pi / 4))
        np.testing.assert_allclose(out.cov, np.eye(4) / 2, atol=1e-14)
        np.testing.assert_allclose(out.mean, np.zeros(4), atol=1e-15)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            apply_gate(vacuum_state(1), BeamSplitter(modes=(0, 1), mix=0.3))


class TestApplyCircuit:
    def test_empty_circuit_is_identity(self):
        state = vacuum_state(2)
        out = apply_circuit(state, [])
        np.testing.assert_array_equal(out.cov, state.cov)
        np.testing.assert_array_equal(out.mean, state.mean)

    def test_squeeze_then_rotate(self):
        r, lam = 0.9, 0.37
        out = apply_circuit(
            vacuum_state(1),
            [Squeezer(mode=0, magnitude=r), PhaseRotation(mode=0, angle=lam)],
        )
        expected = rot2(lam) @ (0.5 * np.diag([math.exp(2 * r), math.exp(-2 * r)])) @ rot2(lam).T
        np.testing.assert_allclose(out.cov, expected, atol=1e-14)

    def test_long_composition_stays_symplectic(self):
        gates = [
            Squeezer(mode=0, magnitude=0.4, angle=0.3),
            PhaseRotation(mode=1, angle=1.2),
            BeamSplitter(mix=0.6, phase=0.8),
            Squeezer(mode=1, magnitude=0.9, angle=-0.5),
            PhaseRotation(mode=0, angle=-2.2),
        ]
        total = np.eye(4)
        for gate in gates:
            s, _ = gate_symplectic(gate, modes=2)
            total = s @ total
        omega = symplectic_form(2)
        assert np.max(np.abs(total @ omega @ total.T - omega)) < 1e-11 * len(gates)


class TestPhysicality:
    def test_vacuum_pure(self):
        rep = physicality_check(vacuum_state(2))
        assert rep.classification == "pure"
        np.testing.assert_allclose(rep.symplectic_eigenvalues, [0.5, 0.5], atol=1e-12)

    def test_unit_covariance_mixed(self):
        state = GaussianState(modes=1, mean=np.zeros(2), cov=np.eye(2))
        rep = physicality_check(state)
        assert rep.classification == "mixed"
        np.testing.assert_allclose(rep.symplectic_eigenvalues, [1.0], atol=1e-12)

    def test_below_vacuum_unphysical(self):
        # a singular cov has cond(cov) infinite: no round-off slack makes it a state
        for cov in (np.eye(2) / 4, np.zeros((2, 2)), np.diag([1.0, 0.0])):
            state = GaussianState(modes=1, mean=np.zeros(2), cov=cov)
            assert physicality_check(state).classification == "unphysical"

    def test_asymmetric_covariance_rejected(self):
        cov = np.array([[0.5, 0.1], [0.0, 0.5]])
        with pytest.raises(ValueError):
            GaussianState(modes=1, mean=np.zeros(2), cov=cov)

    def test_state_arrays_frozen(self):
        state = vacuum_state(1)
        with pytest.raises(ValueError):
            state.cov[0, 0] = 3.0


# -- properties over random gate parameters --------------------------------


def _random_gates(angle, mix, mag):
    return [
        PhaseRotation(mode=0, angle=angle),
        Squeezer(mode=1, magnitude=mag, angle=angle),
        BeamSplitter(modes=(0, 1), mix=mix, phase=angle),
        Displacement(mode=0, amplitude=mag, angle=angle),
    ]


@settings(deadline=None)
@given(angle=ANGLES, mix=ANGLES, mag=MAGNITUDES)
def test_every_gate_is_symplectic(angle, mix, mag):
    omega = symplectic_form(2)
    for gate in _random_gates(angle, mix, mag):
        s, _ = gate_symplectic(gate, modes=2)
        assert np.max(np.abs(s @ omega @ s.T - omega)) < 1e-12


@settings(deadline=None)
@given(angle=ANGLES, mix=ANGLES, mag=MAGNITUDES, r=MAGNITUDES)
def test_circuits_preserve_purity(angle, mix, mag, r):
    out = apply_circuit(
        vacuum_state(2),
        [
            Squeezer(mode=0, magnitude=r, angle=angle),
            Displacement(mode=1, amplitude=mag, angle=angle),
            BeamSplitter(mix=mix, phase=angle),
            PhaseRotation(mode=1, angle=angle),
        ],
    )
    det = np.linalg.det(out.cov)
    assert abs(det - 0.25**2) < 1e-9 * 0.25**2
    assert physicality_check(out).classification == "pure"


@settings(deadline=None)
@given(angle=ANGLES, mix=ANGLES, mag=MAGNITUDES)
def test_gate_inverse_roundtrip(angle, mix, mag):
    state = apply_circuit(
        vacuum_state(2),
        [Squeezer(mode=0, magnitude=0.8, angle=0.2), BeamSplitter(mix=0.5, phase=0.1)],
    )
    pairs = [
        (PhaseRotation(0, angle), PhaseRotation(0, -angle)),
        (Squeezer(1, mag, angle), Squeezer(1, -mag, angle)),
        (Displacement(0, mag, angle), Displacement(0, -mag, angle)),
        # zero-phase mixer inverts by negating the mix angle
        (BeamSplitter(mix=mix, phase=0.0), BeamSplitter(mix=-mix, phase=0.0)),
    ]
    for gate, inverse in pairs:
        back = apply_gate(apply_gate(state, gate), inverse)
        assert np.max(np.abs(back.cov - state.cov)) < 1e-10
        assert np.max(np.abs(back.mean - state.mean)) < 1e-10


@settings(deadline=None)
@given(a=MAGNITUDES, b=MAGNITUDES, beta=ANGLES)
def test_displacements_add_linearly(a, b, beta):
    one = apply_gate(vacuum_state(1), Displacement(0, a + b, beta))
    two = apply_gate(
        apply_gate(vacuum_state(1), Displacement(0, a, beta)), Displacement(0, b, beta)
    )
    assert np.max(np.abs(one.mean - two.mean)) < 1e-12
    np.testing.assert_array_equal(one.cov, two.cov)


class TestLiteralConvention:
    """The mix field, not the phase field, sets a squeezed input's energy
    split."""

    def test_energy_split_follows_mix_field_by_default(self):
        phi = 0.6
        state = apply_gate(vacuum_state(2), Squeezer(mode=0, magnitude=0.9))
        e_in = (state.cov[0, 0] + state.cov[1, 1] - 1.0) / 2.0
        out = apply_gate(state, BeamSplitter(mix=phi, phase=1.3))
        e_out = (out.cov[0, 0] + out.cov[1, 1] - 1.0) / 2.0
        assert abs(e_out - e_in * math.cos(phi) ** 2) < 1e-12


# -- stacks -------------------------------------------------------------------


class TestStacks:
    def test_gate_with_array_parameters_stacks_matrices(self):
        angles = np.array([0.1, 0.7, -2.0])
        S, shift = gate_symplectic(Squeezer(mode=1, magnitude=0.4, angle=angles), 2)
        assert S.shape == (3, 4, 4) and shift.shape == (3, 4)
        for i, a in enumerate(angles):
            one, _ = gate_symplectic(Squeezer(mode=1, magnitude=0.4, angle=float(a)), 2)
            np.testing.assert_array_equal(S[i], one)

    def test_apply_gate_on_a_stack_matches_each_point(self):
        state = apply_gate(vacuum_state(2), Squeezer(mode=0, magnitude=0.5))
        angles = np.array([0.3, -1.2])
        stacked = apply_gate(state, BeamSplitter(mix=0.4, phase=angles))
        assert stacked.cov.shape == (2, 4, 4) and stacked.mean.shape == (2, 4)
        for i, a in enumerate(angles):
            one = apply_gate(state, BeamSplitter(mix=0.4, phase=float(a)))
            np.testing.assert_allclose(stacked.cov[i], one.cov, atol=1e-15)

    def test_stacked_state_records_bad_points(self):
        cov = np.stack([np.eye(2) / 2, np.array([[1.0, 0.2], [0.0, 1.0]]), np.eye(2)])
        mean = np.zeros((3, 2))
        mean[2, 0] = np.inf
        state = GaussianState(modes=1, mean=mean, cov=cov)
        assert {i: str(e) for i, e in state.errors.items()} == {
            1: "cov must be symmetric", 2: "state moments must be finite",
        }

    def test_stacked_physicality_labels(self):
        cov = np.stack([np.eye(2) / 2, np.eye(2), np.eye(2) / 4, np.full((2, 2), np.nan)])
        state = GaussianState(modes=1, mean=np.zeros((4, 2)), cov=cov)
        phys = physicality_check(state)
        assert phys.classification == ("pure", "mixed", "unphysical", "unphysical")
        assert phys.symplectic_eigenvalues.shape == (4, 1)
        assert np.isnan(phys.symplectic_eigenvalues[3, 0])

    @pytest.mark.parametrize("fn", ["eigvals", "cond"])
    def test_linalg_failure_stays_with_its_state(self, monkeypatch, fn):
        # numpy raises LinAlgError for a whole stack when one matrix fails;
        # the state is retried alone, and only it reads unphysical
        cov = np.stack([np.eye(2) / 2, np.eye(2), np.diag([2.0, 1.0])])
        state = GaussianState(modes=1, mean=np.zeros((3, 2)), cov=cov)
        clean = physicality_check(state)
        original = getattr(np.linalg, fn)

        def failing(a, *args, **kwargs):
            # the third state's cov, and Omega cov, are the only ones with a 2
            if (np.abs(np.asarray(a)) == 2.0).any():
                raise np.linalg.LinAlgError("fails on the third state")
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, fn, failing)
        phys = physicality_check(state)
        assert clean.classification == ("pure", "mixed", "mixed")
        assert phys.classification == ("pure", "mixed", "unphysical")
        nus = phys.symplectic_eigenvalues
        np.testing.assert_array_equal(nus[:2], clean.symplectic_eigenvalues[:2])
        if fn == "eigvals":  # no spectrum: NaN eigenvalues
            assert np.isnan(nus[2]).all()
        else:  # the spectrum stands, the unknown cond makes it unphysical
            np.testing.assert_array_equal(nus[2], clean.symplectic_eigenvalues[2])
        single = physicality_check(GaussianState(modes=1, mean=np.zeros(2), cov=cov[2]))
        assert single.classification == "unphysical"
