"""Grid scan, refinement, angle folding, and landmark recovery."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mzsloppy.exceptions import SloppyModelError
from mzsloppy.model import MODEL_FIELDS, ModelConfig
from mzsloppy.optimize import (
    OBJECTIVE_KINDS,
    OBJECTIVE_LAYERS,
    Axis,
    Objective,
    SearchSpec,
    error_message,
    find_known_configurations,
    fold_angles,
    grid_scan,
    objective_value,
    refine_local,
)

PI = math.pi
HALF_GRID = tuple(i * PI / 8 for i in range(9))  # [0, pi] inclusive


def q22_spec(r=0.5, x=0.5, q=0.0):
    base = ModelConfig(r=r, x=x, q=q)
    axes = (
        Axis("theta", HALF_GRID),
        Axis("phi", tuple(i * PI / 8 for i in range(5))),
        Axis("alpha", HALF_GRID),
    )
    return SearchSpec(base=base, axes=axes)


class TestObjective:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            Objective(kind="Q33")

    def test_unknown_layer_rejected(self):
        with pytest.raises(ValueError, match="layer"):
            Objective(kind="Q22", layer="symbolic")

    def test_weight_only_for_scalar_bound(self):
        with pytest.raises(ValueError, match="weight"):
            Objective(kind="Q22", weight=((1.0, 0.0), (0.0, 1.0)))
        with pytest.raises(ValueError, match="weight"):
            Objective(kind="weighted_CQ_inverse")

    def test_repetitions_positive(self):
        with pytest.raises(ValueError, match="repetitions"):
            Objective(kind="Q22", repetitions=0)

    def test_malformed_weight_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            Objective(kind="weighted_CQ_inverse", weight=((1.0, 0.2), (0.0, 1.0)))
        with pytest.raises(ValueError, match="positive semidefinite"):
            Objective(kind="weighted_CQ_inverse", weight=((1.0, 0.0), (0.0, -0.5)))
        with pytest.raises(ValueError, match="finite entries"):
            Objective(kind="weighted_CQ_inverse", weight=((math.nan, 0.0), (0.0, 1.0)))

    def test_layers_agree_where_no_known_tension(self):
        # Q22 at the landmark maximum: both layers give 2 cosh^2(2(r+x))
        # only at q = 0 shifted by the constant offset; check the numeric
        # layer lands exactly 2 below the closed one there
        cfg = ModelConfig(r=0.5, x=0.5)
        closed = objective_value(cfg, Objective(kind="Q22"))
        numeric = objective_value(cfg, Objective(kind="Q22", layer="numeric"))
        assert closed == pytest.approx(2 * math.cosh(2.0) ** 2, rel=1e-13)
        assert closed - numeric == pytest.approx(2.0, abs=1e-9)

    def test_weighted_objective_is_inverse_bound(self):
        cfg = ModelConfig(r=0.5, x=0.5, theta=PI / 2, phi=PI / 4)
        w = ((1.0, 0.0), (0.0, 1.0))
        obj = Objective(kind="weighted_CQ_inverse", weight=w, repetitions=10)
        value = objective_value(cfg, obj)
        assert value > 0
        # doubling repetitions doubles the precision objective
        obj2 = Objective(kind="weighted_CQ_inverse", weight=w, repetitions=20)
        assert objective_value(cfg, obj2) == pytest.approx(2 * value, rel=1e-12)


class TestAxes:
    def test_axis_rejects_unknown_field(self):
        with pytest.raises(ValueError, match="axis"):
            Axis("waist", (0.0, 1.0))

    def test_axis_rejects_empty_and_nonfinite(self):
        with pytest.raises(ValueError, match="no values"):
            Axis("theta", ())
        with pytest.raises(ValueError, match="non-finite"):
            Axis("theta", (0.0, float("inf")))

    def test_spec_rejects_duplicate_axes(self):
        with pytest.raises(ValueError, match="distinct"):
            SearchSpec(
                base=ModelConfig(),
                axes=(Axis("theta", (0.0,)), Axis("theta", (1.0,))),
            )


class TestGridScan:
    def test_finds_information_maximum_at_origin(self):
        result = grid_scan(q22_spec(), Objective(kind="Q22"))
        assert result.best is not None
        assert result.best.point == {"theta": 0.0, "phi": 0.0, "alpha": 0.0}
        assert result.best.value == pytest.approx(2 * math.cosh(2.0) ** 2, rel=1e-12)
        assert len(result.rows) == 9 * 5 * 9

    def test_rows_are_lexicographic(self):
        spec = SearchSpec(
            base=ModelConfig(r=0.5, x=0.5),
            axes=(Axis("theta", (0.0, 1.0)), Axis("phi", (0.0, 0.5))),
        )
        result = grid_scan(spec, Objective(kind="Q22"))
        points = [(row.point["theta"], row.point["phi"]) for row in result.rows]
        assert points == [(0.0, 0.0), (0.0, 0.5), (1.0, 0.0), (1.0, 0.5)]

    def test_no_axes_evaluates_base_only(self):
        spec = SearchSpec(base=ModelConfig(r=0.5, x=0.5), axes=())
        result = grid_scan(spec, Objective(kind="Q22"))
        assert len(result.rows) == 1
        assert result.rows[0].point == {}
        assert result.best.value == pytest.approx(2 * math.cosh(2.0) ** 2, rel=1e-12)

    def test_quantumness_free_point_on_grid(self):
        # the incompatibility reaches zero, and it does so at the
        # balanced-mixer setting for EVERY scanned squeezer phase; other
        # zero rows exist only at special phases, and the tie-break hands
        # the best row to the smallest such tuple
        result = grid_scan(q22_spec(), Objective(kind="minus_R"))
        assert result.best.value == pytest.approx(0.0, abs=1e-9)
        balanced = [
            row
            for row in result.rows
            if row.point["theta"] == PI / 2 and row.point["phi"] == PI / 4
        ]
        assert len(balanced) == 9
        for row in balanced:
            assert row.error is None
            assert row.value == pytest.approx(0.0, abs=1e-9)
        off_balance = [
            row
            for row in result.rows
            if row.point["phi"] == PI / 8 and row.point["alpha"] == PI / 2
        ]
        assert any(row.value is not None and row.value < -1e-3 for row in off_balance)

    def test_error_rows_recorded_not_raised(self):
        # x = 0 makes the information matrix singular: quantumness is
        # undefined there, yet the scan must carry on
        spec = SearchSpec(
            base=ModelConfig(r=0.5, theta=PI / 2, phi=PI / 4),
            axes=(Axis("x", (0.0, 0.5, 1.0)),),
        )
        result = grid_scan(spec, Objective(kind="minus_R"))
        assert result.rows[0].value is None
        assert result.rows[0].error is not None
        assert result.rows[1].error is None
        assert result.best is not None
        assert result.best.point["x"] in (0.5, 1.0)

    def test_deterministic_and_worker_independent(self):
        spec = q22_spec()
        obj = Objective(kind="Q22")
        first = grid_scan(spec, obj)
        second = grid_scan(spec, obj)
        parallel = grid_scan(spec, obj, workers=4)
        assert repr(first) == repr(second) == repr(parallel)

    def test_tie_break_smallest_point(self):
        # constant objective: every grid point ties, the first
        # lexicographic point must win
        spec = SearchSpec(
            base=ModelConfig(r=0.5),
            axes=(Axis("beta", (1.0, 0.5, 2.0)), Axis("lam2", (3.0, -1.0))),
        )
        result = grid_scan(spec, Objective(kind="Q11"))
        assert result.best.point == {"beta": 0.5, "lam2": -1.0}

    def test_workers_validation(self):
        with pytest.raises(ValueError, match="workers"):
            grid_scan(q22_spec(), Objective(kind="Q22"), workers=0)


class TestRefine:
    def test_converges_to_reference_point(self):
        spec = q22_spec()
        obj = Objective(kind="Q22")
        start = {"theta": 0.1, "phi": 0.1, "alpha": 0.1}
        refined = refine_local(spec, obj, start)
        assert refined.improved
        for key in start:
            assert abs(refined.point[key]) < 1e-4
        assert refined.value == pytest.approx(2 * math.cosh(2.0) ** 2, rel=1e-9)

    def test_never_worse_than_start(self):
        spec = q22_spec()
        obj = Objective(kind="Q22")
        for start in (
            {"theta": 0.0, "phi": 0.0, "alpha": 0.0},
            {"theta": 1.3, "phi": 0.4, "alpha": 2.0},
            {"theta": PI / 2, "phi": PI / 4, "alpha": 0.9},
        ):
            refined = refine_local(spec, obj, start)
            start_value = refined.start_value
            assert refined.value >= start_value - 1e-12 * max(1.0, abs(start_value))

    def test_exact_optimum_left_alone(self):
        spec = q22_spec()
        refined = refine_local(
            spec, Objective(kind="Q22"), {"theta": 0.0, "phi": 0.0, "alpha": 0.0}
        )
        assert not refined.improved
        assert refined.point == {"theta": 0.0, "phi": 0.0, "alpha": 0.0}
        assert refined.value == refined.start_value

    def test_missing_axis_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            refine_local(q22_spec(), Objective(kind="Q22"), {"theta": 0.0})

    def test_iteration_cap_reported(self):
        refined = refine_local(
            q22_spec(),
            Objective(kind="Q22"),
            {"theta": 0.7, "phi": 0.3, "alpha": 1.1},
            max_iterations=2,
        )
        assert refined.capped
        assert refined.iterations <= 2


class TestFoldAngles:
    def test_theta_mod_pi(self):
        assert fold_angles({"theta": PI + 0.25})["theta"] == pytest.approx(0.25)
        assert fold_angles({"theta": -0.25})["theta"] == pytest.approx(PI - 0.25)

    def test_phi_reflects_into_quarter(self):
        assert fold_angles({"phi": PI / 2 + 0.1})["phi"] == pytest.approx(PI / 2 - 0.1)
        assert fold_angles({"phi": PI + 0.2})["phi"] == pytest.approx(0.2)

    def test_phase_mod_two_pi(self):
        assert fold_angles({"alpha": 2 * PI + 0.3})["alpha"] == pytest.approx(0.3)
        assert fold_angles({"gamma": -0.3})["gamma"] == pytest.approx(2 * PI - 0.3)

    def test_untracked_fields_pass_through(self):
        assert fold_angles({"r": 7.0})["r"] == 7.0

    def test_folding_preserves_objective(self):
        spec = q22_spec()
        obj = Objective(kind="Q22")
        raw = {"theta": PI + 0.3, "phi": PI / 2 + 0.2, "alpha": 2 * PI + 1.0}
        folded = fold_angles(raw)
        cfg_raw = ModelConfig(r=0.5, x=0.5, **raw)
        cfg_fold = ModelConfig(r=0.5, x=0.5, **folded)
        assert objective_value(cfg_raw, obj) == pytest.approx(
            objective_value(cfg_fold, obj), rel=1e-12
        )
        del spec


class TestFindKnownConfigurations:
    def test_recovers_both_reference_settings(self):
        found = find_known_configurations(0.5, 0.5)
        mx = found["maximum"]
        assert mx["label"] == "maximum"
        for key in ("theta", "phi", "gamma"):
            assert abs(mx["point"][key]) < 1e-3
        assert mx["value"] == pytest.approx(2 * math.cosh(2.0) ** 2, rel=1e-6)
        assert mx["value"] == pytest.approx(mx["landmark_value"], rel=1e-6)

        opt = found["optimal"]
        assert opt["label"] == "optimal"
        assert opt["point"]["theta"] == pytest.approx(PI / 2, abs=1e-3)
        assert opt["point"]["phi"] == pytest.approx(PI / 4, abs=1e-3)
        assert opt["worst_case_quantumness"] <= 1e-6

        assert found["landmarks"]["q22_max"] == pytest.approx(
            2 * math.cosh(2.0) ** 2, rel=1e-13
        )

    def test_no_input_squeezing_reports_flat_axes(self):
        # r = 0: the information entry depends only on x, every scanned
        # angle axis is degenerate and the quantumness-free setting loses
        # its distinguishing property
        found = find_known_configurations(0.0, 0.5)
        mx = found["maximum"]
        assert set(mx["degenerate_axes"]) == {"theta", "phi", "alpha"}
        assert mx["value"] == pytest.approx(2 * math.cosh(1.0) ** 2, rel=1e-9)

    def test_no_intermediate_squeezing_optimal_undefined(self):
        # x = 0: information matrix singular everywhere, the quantumness
        # score cannot be evaluated
        found = find_known_configurations(0.5, 0.0)
        assert found["optimal"]["label"] == "undefined"
        assert found["optimal"]["reason"]

    def test_large_squeezing_optimal_despite_failed_grid_rows(self):
        # r = 8: the theta = 0 rows of the worst-case scan fail the
        # singular-Q gate, yet the balanced setting is evaluable and found
        from mzsloppy.optimize import PHI_GRID, _WorstOverPhase

        base = ModelConfig(r=8.0, x=0.5, q=0.5)
        rows = grid_scan(
            SearchSpec(base=base, axes=(Axis("theta", (0.0,)), Axis("phi", PHI_GRID))),
            _WorstOverPhase(kind="minus_R"),
        ).rows
        assert any(row.error is not None for row in rows)
        opt = find_known_configurations(8.0, 0.5, 0.5)["optimal"]
        assert opt["label"] == "optimal"
        assert opt["point"]["theta"] == pytest.approx(PI / 2, abs=1e-3)
        assert opt["point"]["phi"] == pytest.approx(PI / 4, abs=1e-3)
        assert opt["worst_case_quantumness"] <= 1e-6

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            find_known_configurations(-0.5, 0.5)


# -- batches and the per-point error boundary --------------------------------


def mixed_spec():
    # x = 0 is singular, r = 4 with x = 2 strains the purity gate, r = 400
    # overflows both layers
    return SearchSpec(
        base=ModelConfig(r=0.5, q=0.3, beta=0.2, theta=1.0, phi=0.4, alpha=0.7,
                         lam1=0.3, lam2=0.9),
        axes=(Axis("r", (0.5, 4.0, 400.0)), Axis("x", (0.0, 2.0, 0.5))),
    )


@pytest.mark.parametrize("layer", ["closed_form", "numeric"])
@pytest.mark.parametrize("kind", ["Q22", "minus_R"])
def test_mixed_grid_never_raises_and_names_every_failure(layer, kind, recwarn):
    result = grid_scan(mixed_spec(), Objective(kind=kind, layer=layer), workers=2)
    assert len(result.rows) == 9
    for row in result.rows:
        assert (row.value is None) == (row.error is not None)
        assert row.error is None or len(row.error) > 0
        if row.point["r"] == 400.0:
            assert row.error is not None
        if kind == "minus_R" and row.point["x"] == 0.0:
            assert row.error is not None
    assert result.best is not None and result.best.point["r"] != 400.0
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("layer", ["closed_form", "numeric"])
def test_huge_displacement_scans_silently(layer, recwarn):
    # finite states whose information overflows inside the metrology layer
    spec = SearchSpec(
        base=ModelConfig(r=0.5, beta=0.2, theta=1.0, phi=0.4, x=0.5, alpha=0.7),
        axes=(Axis("q", (0.3, 1e150, 1e200)), Axis("r", (0.5, 100.0))),
    )
    for kind in ("Q11", "detQ", "minus_R"):
        result = grid_scan(spec, Objective(kind=kind, layer=layer))
        assert result.rows[0].error is None
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_overflow_row_names_its_error():
    result = grid_scan(mixed_spec(), Objective(kind="Q22"))
    overflow = [row.error for row in result.rows if row.point["r"] == 400.0]
    assert overflow == ["OverflowError: math range error"] * 3
    numeric = grid_scan(mixed_spec(), Objective(kind="Q22", layer="numeric"))
    overflow = [row.error for row in numeric.rows if row.point["r"] == 400.0]
    assert overflow == ["state moments must be finite"] * 3
    # at 180 a finite cosh overflows when squared, at 400 cosh itself does:
    # the closed-form row reads the same either way
    for field in ("r", "x"):
        spec = SearchSpec(base=mixed_spec().base, axes=(Axis(field, (180.0,)),))
        row = grid_scan(spec, Objective(kind="Q22")).rows[0]
        assert row.error == "OverflowError: math range error"
    # at q = 1e154 q**2 is finite and 2 q**2 is inf, which math does not
    # raise for: the non-finite entry reads as the same overflow
    spec = SearchSpec(base=mixed_spec().base, axes=(Axis("q", (1e154,)),))
    assert grid_scan(spec, Objective(kind="Q11")).rows[0].error == (
        "OverflowError: math range error"
    )
    with pytest.raises(OverflowError):
        objective_value(dataclasses.replace(spec.base, q=1e154), Objective(kind="Q11"))
    # at theta = alpha = 1e308 the angle sum gamma + theta overflows:
    # math.cos(inf) leaves its domain where numpy's cos(inf) is NaN, and
    # both read as the overflow
    config = ModelConfig(r=0.5, x=0.5, alpha=1e308, theta=1e308)
    for kind in ("Q22", "minus_R"):
        spec = SearchSpec(base=config, axes=(Axis("x", (0.5,)),))
        row = grid_scan(spec, Objective(kind=kind)).rows[0]
        with pytest.raises(OverflowError) as raised:
            objective_value(config, Objective(kind=kind))
        assert error_message(raised.value) == row.error == "OverflowError: math range error"


# the numeric cases keep the ids they had before the closed-form layer joined
CHUNKING_CASES = [pytest.param("numeric", kind, id=kind) for kind in OBJECTIVE_KINDS] + [
    pytest.param("closed_form", kind, id=f"closed_form-{kind}") for kind in OBJECTIVE_KINDS
]


@pytest.mark.parametrize("layer, kind", CHUNKING_CASES)
def test_numeric_scan_independent_of_chunking(layer, kind):
    # 40 points: three workers get ragged chunks of 14, 13 and 13
    spec = SearchSpec(
        base=ModelConfig(r=0.6, q=0.4, beta=0.3, lam1=0.2, lam2=0.5),
        axes=(Axis("x", (0.0, 0.4, 0.9, 1.3)), Axis("theta", HALF_GRID[:5]),
              Axis("alpha", (0.0, 1.0))),
    )
    if kind == "weighted_CQ_inverse":
        obj = Objective(kind=kind, layer=layer, weight=((1.0, 0.3), (0.3, 2.0)),
                        repetitions=7)
    else:
        obj = Objective(kind=kind, layer=layer)
    results = [grid_scan(spec, obj, workers=w) for w in (1, 2, 3)]
    assert repr(results[0]) == repr(results[1]) == repr(results[2])
    for row in results[0].rows:
        config = dataclasses.replace(spec.base, **row.point)
        if row.error is not None:
            with pytest.raises(SloppyModelError, match="singular"):
                objective_value(config, obj)
        elif layer == "numeric":
            assert row.value == objective_value(config, obj)
        else:  # columns with numpy, one point with math
            assert row.value == pytest.approx(objective_value(config, obj), rel=1e-12)


@pytest.mark.parametrize("kind", OBJECTIVE_KINDS)
def test_closed_form_columns_match_single_points(kind):
    # a scan evaluates its grid as numpy columns, objective_value one
    # config with math: the two routes agree to round-off
    rng = np.random.default_rng(20261018)

    def draw(lo, hi, n):
        return tuple(rng.uniform(lo, hi, n).tolist())

    base = ModelConfig(r=0.7, q=0.8, beta=draw(0, 2 * PI, 1)[0], x=0.6,
                       lam1=draw(0.1, 3.0, 1)[0], lam2=draw(0.1, 3.0, 1)[0])
    spec = SearchSpec(base=base, axes=(
        Axis("r", draw(0.05, 1.5, 3)), Axis("x", draw(0.05, 1.5, 3)),
        Axis("q", draw(0.1, 2.0, 2)), Axis("theta", draw(0, PI, 3)),
        Axis("phi", draw(0, PI / 2, 3)), Axis("alpha", draw(0, 2 * PI, 3)),
    ))
    weight = ((1.0, 0.3), (0.3, 2.0)) if kind == "weighted_CQ_inverse" else None
    obj = Objective(kind=kind, weight=weight)
    result = grid_scan(spec, obj, workers=2)
    assert len(result.rows) == 486
    for row in result.rows:
        assert row.error is None
        expected = objective_value(dataclasses.replace(base, **row.point), obj)
        assert row.value == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("layer", ["closed_form", "numeric"])
def test_first_negative_field_names_the_row(layer):
    spec = SearchSpec(base=ModelConfig(r=0.5, x=0.5, q=0.5),
                      axes=(Axis("q", (-1.0, 0.5)), Axis("x", (-1.0, 0.5)),
                            Axis("r", (-1.0, 0.5))))
    rows = grid_scan(spec, Objective(kind="Q22", layer=layer), workers=2).rows
    points = [(row.point["q"], row.point["x"], row.point["r"]) for row in rows]
    for point, row in zip(points, rows):
        try:
            dataclasses.replace(spec.base, q=point[0], x=point[1], r=point[2])
        except ValueError as exc:
            assert row.error == str(exc)
        else:
            assert row.error is None
    assert rows[points.index((0.5, -1.0, -1.0))].error == "model field r must be non-negative"
    assert rows[points.index((-1.0, -1.0, 0.5))].error == "model field x must be non-negative"


def test_non_finite_gamma_is_the_closed_form_row_error():
    # alpha + 2 lam1 is 0 at alpha = -1e308 and overflows at 1e308; at
    # r = 400 the matrices overflow too, and the gamma error, which one
    # config reads first, wins
    spec = SearchSpec(base=ModelConfig(r=0.5, x=0.5, lam1=5e307),
                      axes=(Axis("r", (0.5, 400.0)), Axis("alpha", (-1e308, 1e308))))
    rows = grid_scan(spec, Objective(kind="Q22"), workers=2).rows
    assert [row.error for row in rows] == [
        None,
        "closed-form input gamma must be finite",
        "OverflowError: math range error",
        "closed-form input gamma must be finite",
    ]
    for row in rows:
        config = dataclasses.replace(spec.base, **row.point)
        if row.error is None:
            assert row.value == pytest.approx(objective_value(config, Objective("Q22")),
                                              rel=1e-12)
        else:
            with pytest.raises((ValueError, OverflowError)) as raised:
                objective_value(config, Objective(kind="Q22"))
            assert error_message(raised.value) == row.error


def test_more_workers_than_points():
    spec = SearchSpec(base=ModelConfig(r=0.5, x=0.5), axes=(Axis("theta", (0.0, 1.0)),))
    for layer in ("closed_form", "numeric"):
        obj = Objective(kind="Q22", layer=layer)
        assert repr(grid_scan(spec, obj, workers=5)) == repr(grid_scan(spec, obj))


def test_zero_intermediate_squeezing_rows_are_errors_up_to_large_squeezing():
    spec = SearchSpec(
        base=ModelConfig(q=0.5, beta=0.4, lam1=0.3, lam2=1.1),
        axes=(
            Axis("r", tuple(0.1 * k for k in range(1, 25))),
            Axis("theta", (0.3, 1.4, 2.6)),
            Axis("phi", (0.2, 0.9)),
            Axis("alpha", (0.5, 2.5, 4.5)),
        ),
    )
    for layer in ("closed_form", "numeric"):
        result = grid_scan(spec, Objective(kind="minus_R", layer=layer))
        assert result.best is None
        assert all(row.value is None and "singular" in row.error for row in result.rows)


@pytest.mark.parametrize("layer", ["closed_form", "numeric"])
def test_chunk_with_no_valid_configuration(layer):
    spec = SearchSpec(base=ModelConfig(r=0.5, x=0.5), axes=(Axis("x", (-1.0, -2.0)),))
    result = grid_scan(spec, Objective(kind="minus_R", layer=layer))
    assert [row.error for row in result.rows] == ["model field x must be non-negative"] * 2
    assert result.best is None


# -- non-finite values and the worst case over the squeezer phase ------------


@pytest.mark.parametrize("kind, shown", [("Q11", "inf"), ("detQ", "nan")])
def test_non_finite_value_is_a_point_error(kind, shown):
    # at q = 1e160 the numeric information entries overflow
    spec = SearchSpec(base=ModelConfig(r=0.5, x=0.5), axes=(Axis("q", (0.5, 1e160)),))
    objective = Objective(kind=kind, layer="numeric")
    result = grid_scan(spec, objective)
    assert result.rows[1].value is None
    assert result.rows[1].error == f"objective {kind} is {shown}, not a finite number"
    assert result.best == result.rows[0]
    with pytest.raises(ValueError, match="not a finite number"):
        objective_value(ModelConfig(r=0.5, x=0.5, q=1e160), objective)


def test_refine_rejects_steps_to_non_finite_values(recwarn):
    # Q11 grows with q until it overflows near q = 6e153
    spec = SearchSpec(base=ModelConfig(r=0.5, x=0.5), axes=(Axis("q", (1e150,)),))
    refined = refine_local(spec, Objective(kind="Q11", layer="numeric"), {"q": 1e150})
    assert refined.improved and not refined.capped
    assert math.isfinite(refined.value) and refined.value > refined.start_value
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_worst_over_phase_is_the_largest_quantumness_over_the_phase_grid():
    from mzsloppy.model import parameters
    from mzsloppy.optimize import GAMMA_GRID, _objective_values, _WorstOverPhase

    minus_r = Objective(kind="minus_R")
    configs = [ModelConfig(r=0.5, x=0.5, q=0.3, theta=t, phi=p)
               for t, p in ((0.3, 0.2), (PI / 2, PI / 4), (1.1, 0.0))]
    values, errors = _objective_values(parameters(configs), _WorstOverPhase(kind="minus_R"))
    assert errors == {}
    for config, value in zip(configs, values.tolist()):
        r = [-objective_value(dataclasses.replace(config, alpha=g, lam1=0.0), minus_r)
             for g in GAMMA_GRID]
        assert value == -max([0.0] + r)
    # a failed phase fails the config, with the first phase's error
    values, errors = _objective_values(
        parameters([configs[0], ModelConfig(r=0.5, x=0.0)]), _WorstOverPhase(kind="minus_R")
    )
    assert list(errors) == [1] and isinstance(errors[1], SloppyModelError)
    assert math.isnan(values[1])


# -- properties: a scan over finite inputs never raises -----------------------

# moderate values, so that most rows evaluate, magnitudes up to 1e300, and
# values at which the moments or the information overflow
EDGES = st.sampled_from((0.0, 20.0, 400.0, 1e160, 1e300))
FINITE = st.one_of(st.floats(-3.0, 3.0), st.floats(-1e300, 1e300), EDGES, EDGES.map(lambda v: -v))
NON_NEGATIVE = st.one_of(st.floats(0.0, 3.0), st.floats(0.0, 1e300), EDGES)
WEIGHTS = (((1.0, 0.3), (0.3, 2.0)), ((1.0, 0.0), (0.0, 0.0)), ((0.0, 0.0), (0.0, 0.0)))


@st.composite
def scans(draw):
    base = ModelConfig(**{
        name: draw(NON_NEGATIVE if name in ("r", "x", "q") else FINITE)
        for name in MODEL_FIELDS
    })
    names = draw(st.lists(st.sampled_from(MODEL_FIELDS), max_size=3, unique=True))
    axes = tuple(Axis(n, tuple(draw(st.lists(FINITE, min_size=1, max_size=3))))
                 for n in names)
    kind = draw(st.sampled_from(OBJECTIVE_KINDS))
    weight = draw(st.sampled_from(WEIGHTS)) if kind == "weighted_CQ_inverse" else None
    objective = Objective(kind=kind, layer=draw(st.sampled_from(OBJECTIVE_LAYERS)),
                          weight=weight, repetitions=draw(st.integers(1, 3)))
    return SearchSpec(base=base, axes=axes), objective, draw(st.integers(1, 3))


@settings(deadline=None, max_examples=120)
@given(scan=scans())
def test_scan_over_finite_inputs_never_raises(scan):
    spec, objective, workers = scan
    result = grid_scan(spec, objective, workers=workers)
    assert len(result.rows) == math.prod(len(axis.values) for axis in spec.axes)
    for row in result.rows:
        assert (row.value is None) != (row.error is None)
        assert row.value is None or math.isfinite(row.value)
    values = [row.value for row in result.rows if row.value is not None]
    if values:
        assert result.best.value == max(values)
    else:
        assert result.best is None
