"""Reference expressions: values, identities, parities, cross-check engine."""

import dataclasses
import itertools
import math
import types
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mzsloppy import closed_forms
from mzsloppy.closed_forms import (
    ENTRIES,
    LAYERS,
    Comparison,
    closed_q_matrix,
    compare,
    f12,
    f22,
    landmarks,
    layer_matrices,
    q11_closed,
    q12_closed,
    q22_closed,
    u12_closed,
)
from mzsloppy.model import MODEL_FIELDS, ModelColumns, ModelConfig
from mzsloppy.optimize import (
    OBJECTIVE_LAYERS,
    Objective,
    SearchSpec,
    _supremum,
    error_message,
    grid_scan,
)
from oracles import det_ratio, f22_optimal
import rows

OPT = {"theta": math.pi / 2, "phi": math.pi / 4}
GRID = [0.25 * k for k in range(9)]  # 0 .. 2


class TestPhaseSum:
    def test_alpha_and_lam1_enter_only_through_gamma(self):
        # moving part of the squeezer phase from alpha to lam1 at fixed
        # gamma = alpha + 2 lam1 must not change a single bit
        rng = np.random.default_rng(61)
        for _ in range(20):
            fixed = dict(
                r=float(rng.uniform(0, 1.5)), q=float(rng.uniform(0, 1.5)),
                beta=float(rng.uniform(-math.pi, math.pi)),
                theta=float(rng.uniform(-math.pi, math.pi)),
                phi=float(rng.uniform(0, math.pi / 2)), x=float(rng.uniform(0, 1.5)),
                lam2=float(rng.uniform(-math.pi, math.pi)),
            )
            a, d = (float(v) for v in rng.uniform(-2 * math.pi, 2 * math.pi, size=2))
            on_alpha = ModelConfig(alpha=a + 2 * d, lam1=0.0, **fixed)
            on_lam1 = ModelConfig(alpha=a, lam1=d, **fixed)
            for fn in (q11_closed, q22_closed, q12_closed, f22, f12, u12_closed):
                assert fn(on_alpha).hex() == fn(on_lam1).hex(), fn.__name__
            assert closed_q_matrix(on_alpha).tobytes() == closed_q_matrix(on_lam1).tobytes()


class TestQ11:
    def test_no_displacement_is_angle_independent(self):
        expected = 2 * math.cosh(1.0) ** 2
        for beta, theta, phi in [(0, 0, 0), (0.3, 1.0, 0.7), (2.0, -0.5, 0.2)]:
            inp = ModelConfig(r=0.5, q=0.0, beta=beta, theta=theta, phi=phi)
            assert q11_closed(inp) == pytest.approx(expected, rel=1e-14)

    def test_unit_displacement_at_maximizing_angles(self):
        inp = ModelConfig(r=0.5, q=1.0)
        expected = 2 * math.cosh(1.0) ** 2 + 2 * math.e
        assert q11_closed(inp) == pytest.approx(expected, rel=1e-14)

    def test_no_input_squeezing(self):
        for q in (0.0, 0.5, 1.3):
            for angles in [(0, 0, 0), (0.7, 1.1, 0.4)]:
                inp = ModelConfig(r=0.0, q=q, beta=angles[0],
                                  theta=angles[1], phi=angles[2])
                assert q11_closed(inp) == pytest.approx(2 + 2 * q * q, rel=1e-14)


class TestQ22Q12:
    def test_maximum_configuration_value(self):
        inp = ModelConfig(r=0.5, x=0.5)
        assert q22_closed(inp) == pytest.approx(2 * math.cosh(2.0) ** 2, rel=1e-14)

    def test_optimal_configuration_value(self):
        inp = ModelConfig(r=0.5, x=0.5, **OPT)
        expected = 2 * math.cosh(1.0) ** 2 * math.cosh(1.0) ** 2
        assert q22_closed(inp) == pytest.approx(expected, rel=1e-13)

    def test_q12_at_optimal_configuration(self):
        inp = ModelConfig(r=0.5, x=0.5, **OPT)
        expected = 2 * math.cosh(1.0) ** 2 + 2 * math.sinh(1.0) ** 2 * math.sinh(0.5) ** 2
        assert q12_closed(inp) == pytest.approx(expected, rel=1e-13)

    def test_maximum_identity_on_grid(self):
        for r in GRID:
            for x in GRID:
                inp = ModelConfig(r=r, x=x)
                assert q22_closed(inp) == pytest.approx(
                    2 * math.cosh(2 * (r + x)) ** 2, rel=1e-12
                )

    def test_optimal_identity_on_grid(self):
        for r in GRID:
            for x in GRID:
                inp = ModelConfig(r=r, x=x, **OPT)
                assert q22_closed(inp) == pytest.approx(
                    2 * math.cosh(2 * r) ** 2 * math.cosh(2 * x) ** 2, rel=1e-12
                )

    def test_baseline_entries_coincide_for_any_displacement(self):
        # x = 0 collapses all three entries, q-terms included
        for q in (0.0, 0.7, 1.4):
            inp = ModelConfig(r=0.8, q=q, beta=0.9, theta=1.7, phi=0.35,
                              x=0.0, alpha=2.2, lam2=0.4)
            a, b, c = q11_closed(inp), q22_closed(inp), q12_closed(inp)
            assert a == pytest.approx(b, rel=1e-12)
            assert a == pytest.approx(c, rel=1e-12)


class TestDisplacementCoefficients:
    def test_f22_at_maximizing_angles(self):
        assert f22(ModelConfig(r=0.5, x=0.5)) == pytest.approx(
            math.exp(3.0), rel=1e-13
        )
        for r in (0.0, 0.3, 1.1):
            for x in (0.0, 0.6, 1.5):
                assert f22(ModelConfig(r=r, x=x)) == pytest.approx(
                    math.exp(2 * r + 4 * x), rel=1e-12
                )

    def test_f22_ratio_identity_on_grid(self):
        for r in GRID[1:]:
            for x in GRID[1:]:
                opt = f22(ModelConfig(r=r, x=x, **OPT))
                top = f22(ModelConfig(r=r, x=x))
                expected = (1 + math.exp(-4 * x)) * (1 + math.exp(-4 * r)) / 4
                assert opt / top == pytest.approx(expected, rel=1e-12)

    def test_values_at_origin(self):
        origin = ModelConfig()
        assert f22(origin) == pytest.approx(1.0, abs=1e-15)
        assert f12(origin) == pytest.approx(1.0, abs=1e-15)

    def test_optimal_display_matches_general_expression(self):
        # the specialized balanced-mixer display must agree with the full
        # f22 evaluated at theta = pi/2, phi = pi/4
        for r in (0.3, 0.8):
            for x in (0.4, 1.2):
                for beta in (0.0, 0.7, 2.1):
                    for gamma in (0.0, 1.3, -0.9):
                        general = f22(ModelConfig(
                            r=r, x=x, beta=beta, alpha=gamma, **OPT
                        ))
                        display = f22_optimal(r, x, beta, gamma)
                        assert general == pytest.approx(display, rel=1e-12)


class TestU12:
    def test_vanishes_at_optimal_configuration(self):
        for gamma in np.linspace(0, 2 * math.pi, 7):
            for r, x in [(0.2, 0.9), (1.0, 0.4), (1.5, 1.5)]:
                inp = ModelConfig(r=r, x=x, alpha=float(gamma), **OPT)
                assert abs(u12_closed(inp)) < 1e-12 * max(1.0, r * x)

    def test_vanishes_without_intermediate_squeezer(self):
        inp = ModelConfig(r=0.9, q=0.8, beta=0.4, theta=1.2, phi=0.5,
                          x=0.0, alpha=0.7, lam2=0.2)
        assert u12_closed(inp) == 0.0

    def test_transmissive_quarter_phase_value(self):
        inp = ModelConfig(r=0.5, x=0.5, alpha=math.pi / 2)
        assert u12_closed(inp) == pytest.approx(-2 * math.sinh(1.0) ** 2, rel=1e-13)


class TestParities:
    def test_even_entries_under_angle_reflection(self):
        # q-independent parts of Q22 and Q12 are even in (gamma, beta, theta)
        base = dict(r=0.7, x=0.9, q=0.0, phi=0.4)
        for gamma, beta, theta in [(0.5, 0.3, 1.1), (2.0, -0.8, 0.6)]:
            plus = ModelConfig(beta=beta, theta=theta, alpha=gamma, **base)
            minus = ModelConfig(beta=-beta, theta=-theta, alpha=-gamma, **base)
            assert q22_closed(plus) == pytest.approx(q22_closed(minus), rel=1e-12)
            assert q12_closed(plus) == pytest.approx(q12_closed(minus), rel=1e-12)

    def test_curvature_is_odd(self):
        base = dict(r=0.7, x=0.9, q=0.6, phi=0.4, lam2=0.0)
        for gamma, beta, theta in [(0.5, 0.3, 1.1), (2.0, -0.8, 0.6)]:
            plus = ModelConfig(beta=beta, theta=theta, alpha=gamma, **base)
            minus = ModelConfig(beta=-beta, theta=-theta, alpha=-gamma, **base)
            assert u12_closed(plus) == pytest.approx(-u12_closed(minus), rel=1e-12)


class TestLandmarks:
    def test_ratio_opt_max_bounds(self):
        for r in GRID:
            for x in GRID:
                lm = landmarks(r, x)
                assert 0.25 - 1e-12 <= lm["ratio_opt_max"] <= 1.0 + 1e-12
                assert lm["ratio_opt_max"] == pytest.approx(
                    math.cosh(2 * r) ** 2 * math.cosh(2 * x) ** 2
                    / math.cosh(2 * (r + x)) ** 2,
                    rel=1e-12,
                )

    def test_ratio_opt_max_is_one_on_axes(self):
        for v in (0.0, 0.5, 1.7):
            assert landmarks(0.0, v)["ratio_opt_max"] == pytest.approx(1.0, abs=1e-12)
            assert landmarks(v, 0.0)["ratio_opt_max"] == pytest.approx(1.0, abs=1e-12)

    def test_equal_squeezing_half(self):
        lm = landmarks(0.5, 0.5)
        assert lm["q22_inf"] == pytest.approx(2.0, abs=1e-12)
        expected = (math.tanh(1.0) ** 2 - 1) ** 2
        assert lm["ratio_inf_opt"] == pytest.approx(expected, rel=1e-13)
        # consistency: the ratio really is inf over opt
        assert lm["q22_inf"] / lm["q22_opt"] == pytest.approx(expected, rel=1e-12)

    def test_inf_over_opt_identity_on_grid(self):
        for r in GRID:
            for x in GRID:
                lm = landmarks(r, x)
                expected = (math.tanh(2 * x) * math.tanh(2 * r) - 1) ** 2
                assert lm["q22_inf"] / lm["q22_opt"] == pytest.approx(
                    expected, rel=1e-12
                )

    def test_degenerate_origin(self):
        lm = landmarks(0.0, 0.0)
        for key in ("q22_max", "q22_opt", "q22_inf", "q11_max"):
            assert lm[key] == pytest.approx(2.0, abs=1e-14)
        assert lm["ratio_opt_max"] == pytest.approx(1.0, abs=1e-14)
        assert lm["ratio_inf_opt"] == pytest.approx(1.0, abs=1e-14)

    def test_q11_landmark_includes_displacement(self):
        lm = landmarks(0.5, 0.0, q=1.0)
        assert lm["q11_max"] == pytest.approx(
            2 * math.cosh(1.0) ** 2 + 2 * math.e, rel=1e-14
        )


class TestDetRatio:
    def test_undefined_at_baseline(self):
        assert math.isnan(det_ratio(0.5, 0.0))
        assert math.isnan(det_ratio(0.0, 0.0))

    def test_decays_at_large_input_squeezing(self):
        assert det_ratio(2.0, 0.5) < 0.5

    def test_bounded_between_zero_and_two_on_grid(self):
        for r in GRID[1:]:
            for x in GRID[1:]:
                value = det_ratio(r, x)
                assert 0.0 < value < 2.0

    def test_negative_arguments_rejected(self):
        with pytest.raises(ValueError):
            det_ratio(-0.1, 0.5)


class TestCompare:
    def test_report_is_complete(self):
        comparison = compare(ModelConfig(r=0.5, x=0.5, theta=0.3, phi=0.2))
        assert ENTRIES == ("Q11", "Q22", "Q12", "U12")
        for table in ("closed_form", "numeric", "abs_difference", "rel_difference"):
            assert getattr(comparison, table).shape == (1, 4)
        for flag in ("max_abs_difference", "max_rel_difference", "q_offset_shared",
                     "q_offset_value", "u12_abs_difference"):
            assert getattr(comparison, flag).shape == (1,)
        np.testing.assert_allclose(
            comparison.abs_difference, abs(comparison.closed_form - comparison.numeric),
            rtol=1e-12, atol=0,
        )

    def test_constant_offset_surfaced_not_hidden(self):
        # fully transmitting mixer: reference says 2 cosh^2(2r), the
        # engine says 2 sinh^2(2r); the gap of exactly 2 must be reported
        comparison = compare(ModelConfig(r=0.5, x=0.0))
        assert comparison.closed_form[0, 0] == pytest.approx(2 * math.cosh(1.0) ** 2, rel=1e-13)
        assert comparison.numeric[0, 0] == pytest.approx(2 * math.sinh(1.0) ** 2, rel=1e-12)
        assert comparison.abs_difference[0, 0] == pytest.approx(2.0, abs=1e-9)

    def test_offset_shared_across_entries_without_displacement(self):
        rng = np.random.default_rng(59)
        configs = [
            ModelConfig(
                r=rng.uniform(0.1, 1.2), q=0.0, beta=rng.uniform(0, 2 * math.pi),
                theta=rng.uniform(0, 2 * math.pi), phi=rng.uniform(0, math.pi / 2),
                x=rng.uniform(0.1, 1.2), alpha=rng.uniform(0, 2 * math.pi),
                lam1=rng.uniform(0, 2 * math.pi), lam2=rng.uniform(0, 2 * math.pi),
            )
            for _ in range(10)
        ]
        comparison = compare(rows.columns(rows.parameters(configs)))
        assert comparison.q_offset_shared.dtype == bool
        assert comparison.q_offset_shared.tolist() == [True] * 10

    def test_phi_zero_offset_is_two(self):
        configs = [ModelConfig(r=0.7, theta=theta, phi=0.0, x=x, alpha=0.3)
                   for theta, x in [(0.0, 0.0), (1.1, 0.5), (2.3, 1.0)]]
        comparison = compare(rows.columns(rows.parameters(configs)))
        for value in comparison.q_offset_value:
            assert value == pytest.approx(2.0, abs=1e-9)

    def test_offset_value_of_huge_finite_differences_is_finite(self):
        # the three Q differences are finite, 5.7e307 to 8.6e307, but their
        # sum is not: the mean must be taken without forming it
        comparison = compare(ModelConfig(r=0.9, q=4.6e153, beta=-2.7, theta=-2.2, phi=-1.1, x=0.4))
        diffs = (comparison.closed_form[0, :3] - comparison.numeric[0, :3]).tolist()
        assert all(math.isfinite(d) for d in diffs) and not math.isfinite(sum(diffs))
        exact = float(sum(map(Fraction, diffs)) / 3)
        assert comparison.q_offset_value[0] == pytest.approx(exact, rel=1e-15)
        assert exact == pytest.approx(7.14e307, rel=1e-3)

    def test_displacement_calibration_at_transmissive_angles(self):
        # q-dependent part of Q11 at theta = phi = 0 agrees between layers
        fields = {**dataclasses.asdict(ModelConfig(r=0.5)), "q": [0.0, 0.5, 1.0]}
        comparison = compare(ModelColumns(fields))
        gap = comparison.closed_form[:, 0] - comparison.numeric[:, 0]
        assert np.all(abs(gap[1:] - gap[0]) < 1e-8)

    def test_curvature_agrees_at_optimal_configuration(self):
        comparison = compare(ModelConfig(r=0.5, x=0.5, theta=math.pi / 2,
                                         phi=math.pi / 4, alpha=1.3))
        assert abs(comparison.closed_form[0, 3]) < 1e-12
        assert abs(comparison.numeric[0, 3]) < 1e-10
        assert comparison.u12_abs_difference[0] < 1e-10

    def test_curvature_normalization_gap_documented(self):
        # the gap is closed: without displacement the reference curvature
        # equals the engine's -4 Im G, which the Fock oracle confirms
        # (tests/test_fock_oracle.py)
        comparison = compare(rows.columns(rows.parameters([
            ModelConfig(r=0.5, x=0.5, theta=0.0, phi=0.0, alpha=math.pi / 2),
            ModelConfig(r=0.8, x=0.6, theta=0.9, phi=0.3, alpha=1.7, lam1=0.4),
        ])))
        np.testing.assert_allclose(comparison.numeric[:, 3], comparison.closed_form[:, 3],
                                   rtol=1e-9, atol=0)

    def test_displacement_curvature_law_disagrees(self):
        # at the balanced setting with beta = lam2 = 0 the reference q-term
        # vanishes, while the engine follows the Fock law
        # 4 Im G12 = q^2 sinh(2x) sin(gamma - 2 beta), so U12 = -q^2 sinh(2x)
        # sin(gamma); the reference term's lam2 dependence is its defect
        r, x, q, gamma = 0.5, 0.7, 0.9, 1.1
        cfg = ModelConfig(r=r, q=q, x=x, alpha=gamma,
                          theta=math.pi / 2, phi=math.pi / 4)
        comparison = compare(cfg)
        assert abs(comparison.closed_form[0, 3]) < 1e-12
        assert comparison.numeric[0, 3] == pytest.approx(
            -q * q * math.sinh(2 * x) * math.sin(gamma), rel=1e-9
        )
        assert comparison.u12_abs_difference[0] > 1.0

    def test_sequence_is_its_single_reports(self):
        # one stacked engine pass gives every row exactly one config's comparison
        rng = np.random.default_rng(2026)
        pi = math.pi
        configs = [
            ModelConfig(
                r=rng.uniform(0.0, 1.2), q=rng.uniform(0.05, 2.0), beta=rng.uniform(-pi, pi),
                theta=rng.uniform(-pi, pi), phi=rng.uniform(0.0, pi / 2),
                x=rng.uniform(0.0, 1.2), alpha=rng.uniform(-pi, pi),
                lam1=rng.uniform(-pi, pi), lam2=rng.uniform(-pi, pi),
            )
            for _ in range(40)
        ]
        comparison = compare(rows.columns(rows.parameters(configs)))
        assert comparison.closed_form.shape == (len(configs), 4)
        for i, config in enumerate(configs):
            single = compare(config)
            assert rows.parameters(configs)[i].tolist() == [
                getattr(single.points, name)[0] for name in MODEL_FIELDS]
            for name in COMPARISON_ARRAYS:
                row = getattr(comparison, name)[i:i + 1]
                assert getattr(single, name).tobytes() == row.tobytes()

    def test_sequence_raises_the_first_failing_config(self):
        # the first config's closed forms overflow; the second one's engine
        # moments do too, but it comes later in the rows
        configs = [ModelConfig(r=0.5, q=1e160, x=x) for x in (0.0, 400.0)]
        with pytest.raises(ValueError, match="state moments must be finite"):
            compare(configs[1])
        with pytest.raises(OverflowError):
            compare(rows.columns(rows.parameters(configs)))

    def test_closed_form_errors_read_as_the_objectives_do(self):
        # math.cos(inf) leaves math's domain: the overflow of a scan row;
        # a non-finite gamma keeps its own error
        for config, error, message in (
            (ModelConfig(r=0.5, x=0.5, phi=1e308), OverflowError, "math range error"),
            (ModelConfig(r=0.5, x=0.5, alpha=1e308, lam1=1e308), ValueError, "gamma"),
        ):
            with pytest.raises(error, match=message):
                compare(config)

    def test_engine_overflow_with_finite_closed_forms_raises(self):
        # the closed forms are finite here, the engine's Q22 overflows
        config = ModelConfig(r=0.35, q=5.22e153, beta=5.3, theta=0.6, phi=0.13, x=0.6,
                             alpha=0.67, lam1=1.14, lam2=0.57)
        with pytest.raises(OverflowError, match="math range error"):
            compare(config)


# every array of a Comparison, each with a row per configuration: the fields after its points
COMPARISON_ARRAYS = tuple(field.name for field in dataclasses.fields(Comparison))[1:]
GRID_VALUES = st.sampled_from([0.0, -0.0, 0.3, 0.5, 1.0, 2.5])


@settings(deadline=None, max_examples=100)
@given(base=st.builds(ModelConfig, r=st.floats(0, 2), q=st.floats(0, 2), beta=st.floats(-4, 4),
                      theta=st.floats(-4, 4), phi=st.floats(-4, 4), x=st.floats(0, 2),
                      alpha=st.floats(-4, 4), lam1=st.floats(-4, 4), lam2=st.floats(-4, 4)),
       names=st.permutations(["q", "phi", "x", "theta", "lam2"]).map(lambda p: p[:3]),
       values=st.lists(st.lists(GRID_VALUES, min_size=1, max_size=3), min_size=3, max_size=3))
def test_compare_on_a_grid_is_its_rows(base, names, values):
    # the grid form of a compare grid (cli.run_compare's) gives every array
    # bit for bit as the (N,) rows of its grid product, and the same error
    axes = list(zip(names, values))
    grid = ModelColumns.grid(base, axes)
    product = [dataclasses.replace(base, **dict(zip(names, row)))
               for row in itertools.product(*values)]
    outcomes = []
    for points in (grid, rows.columns(rows.parameters(product))):
        try:
            comparison = compare(points)
        except (ValueError, ArithmeticError) as exc:
            outcomes.append((type(exc), str(exc)))
        else:
            outcomes.append([getattr(comparison, name).tobytes() for name in COMPARISON_ARRAYS])
    assert outcomes[0] == outcomes[1]


ANGLES = st.floats(-1e308, 1e308)


@settings(deadline=None, max_examples=200)
@given(config=st.builds(ModelConfig, r=st.floats(0, 400), q=st.floats(0, 1e200),
                        beta=ANGLES, theta=ANGLES, phi=ANGLES, x=st.floats(0, 400),
                        alpha=ANGLES, lam1=ANGLES, lam2=ANGLES))
def test_compare_fails_as_the_scan_row_does(config):
    # compare raises exactly where the one-point Q11 row fails on the
    # numeric layer, else on the closed-form layer, with that row's error
    spec = SearchSpec(base=config, axes=())
    errors = [grid_scan(spec, Objective(kind="Q11", layer=layer)).errors.get(0)
              for layer in ("numeric", "closed_form")]
    expected = next((e for e in errors if e is not None), None)
    try:
        compare(config)
    except (ValueError, ArithmeticError) as exc:
        assert error_message(exc) == expected
    else:
        assert expected is None


WIDE_ANGLES = st.floats(-1e6, 1e6)


@settings(deadline=None, max_examples=200)
@given(configs=st.lists(
    st.builds(ModelConfig, r=st.floats(0, 3), x=st.floats(0, 3), beta=WIDE_ANGLES,
              theta=WIDE_ANGLES, phi=WIDE_ANGLES, alpha=WIDE_ANGLES, lam1=WIDE_ANGLES,
              lam2=WIDE_ANGLES),
    min_size=1, max_size=8))
def test_q22_without_displacement_never_exceeds_its_landmark_maximum(configs):
    # q22_closed = 2 base^2 with |_mix_trig| <= 1 (Cauchy-Schwarz), so
    # base <= cosh 2(r + x) at every angle: the bound the search's Q22
    # polish stops at, on one config (math) and on columns (numpy) alike
    bounds = np.array([landmarks(c.r, c.x)["q22_max"] for c in configs])
    single = np.array([q22_closed(c) for c in configs])
    columns = q22_closed(rows.columns(rows.parameters(configs)))
    for values in (single, columns):
        assert np.all(values <= bounds * (1 + 1e-12))


# two periods of every angle, with the landmark angles drawn often
PERIODS = st.one_of(st.sampled_from((0.0, math.pi / 2, math.pi)),
                    st.floats(-4 * math.pi, 4 * math.pi))


def _q22_supremum(config):
    return _supremum(SearchSpec(base=config, axes=()), Objective(kind="Q22"))


@settings(deadline=None, max_examples=200)
@given(configs=st.lists(
    st.builds(ModelConfig, r=st.floats(0, 3), q=st.floats(0, 2), x=st.floats(0, 3),
              beta=PERIODS, theta=PERIODS, phi=PERIODS, alpha=PERIODS, lam1=PERIODS,
              lam2=PERIODS),
    min_size=1, max_size=8))
def test_displaced_q22_never_exceeds_its_supremum(configs):
    # 2 base^2 <= q22_max and f22 <= e^(2r + 4x) at every angle (the proof
    # is _supremum's): the bound the search's Q22 polish stops at for any q,
    # on one config (math) and on columns (numpy) alike
    bounds = np.array([_q22_supremum(c) for c in configs])
    single = np.array([q22_closed(c) for c in configs])
    columns = q22_closed(rows.columns(rows.parameters(configs)))
    for values in (single, columns):
        assert np.all(values <= bounds * (1 + 1e-12))


@settings(deadline=None, max_examples=200)
@given(r=st.floats(0, 3), x=st.floats(0, 3), q=st.floats(0, 2))
def test_q22_supremum_is_reached_at_the_transmissive_setting(r, x, q):
    # theta = phi = gamma = beta = 0, a point of the find-known grid
    config = ModelConfig(r=r, x=x, q=q)
    assert math.isclose(q22_closed(config), _q22_supremum(config), rel_tol=2**-48)


def _lemma_squares(config, xp=math):
    """The two squares of _supremum's lemma, K - P = 2 (w1^2 + w2^2)."""
    C, S = xp.cosh(2 * config.x), xp.sinh(2 * config.x)
    b, t, f, g = config.beta, config.theta, config.phi, config.gamma
    E = C * xp.sin(b) + S * xp.sin(g - b)
    H = C * xp.cos(b) + S * xp.cos(g - b)
    w1 = xp.sin(f) ** 2 * xp.cos(b) + xp.cos(f) ** 2 * E
    w2 = xp.sin(f) * xp.cos(f) * ((xp.cos(b) - E) * xp.cos(t) - (xp.sin(b) + H) * xp.sin(t))
    return w1, w2


@settings(deadline=None, max_examples=300)
@given(config=st.builds(ModelConfig, x=st.floats(0, 3), beta=PERIODS, theta=PERIODS,
                        phi=PERIODS, alpha=PERIODS, lam1=PERIODS, lam2=PERIODS))
def test_displacement_coefficient_lemma(config):
    # f22 = cosh(2r) K + sinh(2r) P with K and P free of r, read off the
    # printed f22 at r = 0 and r = 1/2; then P <= K <= e^(4x), the
    # lemma behind f22 <= e^(2r) K <= e^(2r + 4x)
    k = f22(config)
    p = (f22(dataclasses.replace(config, r=0.5)) - math.cosh(1.0) * k) / math.sinh(1.0)
    w1, w2 = _lemma_squares(config)
    scale = math.exp(4 * config.x)
    assert k - p == pytest.approx(2 * (w1**2 + w2**2), abs=1e-12 * scale)
    assert p <= k + 1e-12 * scale
    assert k <= scale * (1 + 1e-12)


def test_displacement_coefficient_lemma_is_an_identity(monkeypatch):
    # the printed f22, evaluated in sympy, is e^(2r) K - 2 sinh(2r) (w1^2 + w2^2)
    # with K = s + c |C + S e^(i (gamma - 2 beta))|^2, exactly; cosh 2r and
    # sinh 2r stand as the symbols ch and sh, e^(2r) = ch + sh
    sympy = pytest.importorskip("sympy")
    r, beta, theta, phi, x, gamma, ch, sh = sympy.symbols(
        "r beta theta phi x gamma ch sh", real=True)
    inp = types.SimpleNamespace(r=r, beta=beta, theta=theta, phi=phi, x=x, gamma=gamma)
    monkeypatch.setattr(closed_forms, "_xp", lambda inp: sympy)
    printed = f22(inp).subs({sympy.cosh(2 * r): ch, sympy.sinh(2 * r): sh})
    C, S, c, s = sympy.cosh(2 * x), sympy.sinh(2 * x), sympy.cos(phi) ** 2, sympy.sin(phi) ** 2
    delta = gamma - 2 * beta
    k = s + c * ((C + S * sympy.cos(delta)) ** 2 + (S * sympy.sin(delta)) ** 2)
    w1, w2 = _lemma_squares(inp, sympy)
    proof = (ch + sh) * k - 2 * sh * (w1**2 + w2**2)
    assert r not in printed.free_symbols
    assert sympy.expand((printed - proof).rewrite(sympy.exp)) == 0


def test_one_config_reads_the_math_closed_forms():
    # one ModelConfig takes its entries straight from math, and fails as a
    # scan row does: math's overflow, or the gamma error
    config = ModelConfig(r=0.7, q=0.8, beta=0.3, theta=0.4, phi=0.2, x=0.6, alpha=1.1,
                         lam1=0.2, lam2=0.5)
    q, u, errors = layer_matrices(config, "closed_form")
    q12, u12 = q12_closed(config), u12_closed(config)
    assert errors == {}
    assert q.tolist() == [[[q11_closed(config), q12], [q12, q22_closed(config)]]]
    assert u.tolist() == [[[0.0, u12], [-u12, 0.0]]]
    for config, error, message in (
        (ModelConfig(r=0.5, x=0.5, phi=1e308), OverflowError, "math range error"),
        (ModelConfig(r=0.5, x=0.5, alpha=1e308, lam1=1e308), ValueError, "gamma"),
    ):
        q, u, errors = layer_matrices(config, "closed_form")
        assert list(errors) == [0] and isinstance(errors[0], error)
        assert message in str(errors[0])
        scan = grid_scan(SearchSpec(base=config, axes=()), Objective(kind="Q22"))
        assert scan.errors[0] == error_message(errors[0])


@pytest.mark.parametrize("layer", ["Numeric", "closed-form", ""])
def test_unknown_layer_is_refused_before_any_work(monkeypatch, layer):
    # a misspelt layer must not fall through to the closed forms
    def no_work(*args, **kwargs):
        raise AssertionError("evaluated a layer")

    for name in ("jacobian_analytic", "_point_matrices", "closed_q_matrix", "u12_closed"):
        monkeypatch.setattr(closed_forms, name, no_work)
    config = ModelConfig(r=0.5, x=0.5)
    for points in (config, ModelColumns.from_configs([config, config])):
        with pytest.raises(ValueError, match=f"^unknown layer {layer!r}; expected one of"):
            layer_matrices(points, layer)
    assert OBJECTIVE_LAYERS is LAYERS  # one list of layer names
