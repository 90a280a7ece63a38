"""Grid scan, refinement, angle folding, and landmark recovery."""

import concurrent.futures
import dataclasses
import itertools
import json
import math
import os

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mzsloppy import cli, optimize
from mzsloppy.exceptions import SloppyModelError
from mzsloppy.model import MODEL_FIELDS, ModelColumns, ModelConfig, row_errors
from mzsloppy.optimize import (
    OBJECTIVE_KINDS,
    OBJECTIVE_LAYERS,
    POINT_ERRORS,
    Axis,
    Objective,
    ScanResult,
    SearchSpec,
    _objective_values,
    _WorstOverPhase,
    best_point,
    degenerate_axes,
    error_message,
    find_known_configurations,
    fold_angles,
    grid_scan,
    objective_value,
    refine_local,
)
from rows import ALPHA, LAM1, columns, parameters, phased_rows

PI = math.pi
HALF_GRID = tuple(i * PI / 8 for i in range(9))  # [0, pi] inclusive


def grid_rows(spec):
    """The grid product of the spec's axes as (N, 9) parameter rows in
    lexicographic order, every other field at its base value: the rows a
    scan's axis columns stand for."""
    size = math.prod(len(axis.values) for axis in spec.axes)
    params = np.repeat(parameters([spec.base]), size, axis=0)
    grids = np.meshgrid(*[axis.values for axis in spec.axes], indexing="ij")
    for axis, grid in zip(spec.axes, grids):
        params[:, MODEL_FIELDS.index(axis.name)] = grid.ravel()
    return params


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

    @pytest.mark.parametrize("repetitions", [2.5, True, 0])
    def test_repetitions_must_be_a_positive_integer(self, repetitions):
        with pytest.raises(ValueError, match="^repetitions must be a positive integer$"):
            Objective(kind="weighted_CQ_inverse", weight=((1.0, 0.0), (0.0, 1.0)),
                      repetitions=repetitions)
        # the type check comes first on the kinds that take no repetitions too
        with pytest.raises(ValueError, match="^repetitions must be a positive integer$"):
            Objective(kind="Q22", repetitions=repetitions)

    @pytest.mark.parametrize("kind", ["Q11", "Q22", "detQ", "minus_R"])
    def test_repetitions_only_where_they_are_read(self, kind):
        # only the weighted bound divides by them; 1 is the default, so it passes
        with pytest.raises(ValueError, match=f"^objective {kind} takes no repetitions$"):
            Objective(kind=kind, repetitions=5)
        assert Objective(kind=kind, repetitions=1) == Objective(kind=kind)

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
        assert result.point(result.best) == {"theta": 0.0, "phi": 0.0, "alpha": 0.0}
        assert result.values[result.best] == pytest.approx(2 * math.cosh(2.0) ** 2, rel=1e-12)
        assert len(result.values) == 9 * 5 * 9

    def test_rows_are_lexicographic(self):
        spec = SearchSpec(
            base=ModelConfig(r=0.5, x=0.5),
            axes=(Axis("theta", (0.0, 1.0)), Axis("phi", (0.0, 0.5))),
        )
        result = grid_scan(spec, Objective(kind="Q22"))
        points = [result.point(i) for i in range(len(result.values))]
        assert [(p["theta"], p["phi"]) for p in points] == [
            (0.0, 0.0), (0.0, 0.5), (1.0, 0.0), (1.0, 0.5)
        ]

    def test_no_axes_evaluates_base_only(self):
        spec = SearchSpec(base=ModelConfig(r=0.5, x=0.5), axes=())
        result = grid_scan(spec, Objective(kind="Q22"))
        assert len(result.values) == 1
        assert result.point(0) == {}
        assert result.values[result.best] == pytest.approx(2 * math.cosh(2.0) ** 2, rel=1e-12)

    def test_quantumness_free_point_on_grid(self):
        # the incompatibility reaches zero, and it does so at the
        # balanced-mixer setting for EVERY scanned squeezer phase; other
        # zero rows exist only at special phases, and the tie-break hands
        # the best row to the smallest such tuple
        result = grid_scan(q22_spec(), Objective(kind="minus_R"))
        assert result.values[result.best] == pytest.approx(0.0, abs=1e-9)
        points = [result.point(i) for i in range(len(result.values))]
        balanced = [
            i for i, p in enumerate(points) if p["theta"] == PI / 2 and p["phi"] == PI / 4
        ]
        assert len(balanced) == 9
        for i in balanced:
            assert i not in result.errors
            assert result.values[i] == pytest.approx(0.0, abs=1e-9)
        off_balance = [
            result.values[i]
            for i, p in enumerate(points)
            if p["phi"] == PI / 8 and p["alpha"] == PI / 2
        ]
        assert any(value is not None and value < -1e-3 for value in off_balance)

    def test_error_rows_recorded_not_raised(self):
        # x = 0 makes the information matrix singular: quantumness is
        # undefined there, yet the scan must carry on
        spec = SearchSpec(
            base=ModelConfig(r=0.5, theta=PI / 2, phi=PI / 4),
            axes=(Axis("x", (0.0, 0.5, 1.0)),),
        )
        result = grid_scan(spec, Objective(kind="minus_R"))
        assert result.values[0] is None
        assert result.errors.get(0) is not None
        assert result.errors.get(1) is None
        assert result.best is not None
        assert result.point(result.best)["x"] in (0.5, 1.0)

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
        assert result.point(result.best) == {"beta": 0.5, "lam2": -1.0}

    def test_workers_validation(self):
        with pytest.raises(ValueError, match="workers"):
            grid_scan(q22_spec(), Objective(kind="Q22"), workers=0)

    @pytest.mark.parametrize("workers", [2.5, True, 0])
    @pytest.mark.parametrize("shape", [(3,), (128, 128)], ids=["3_rows", "16384_rows"])
    def test_workers_must_be_a_positive_integer(self, workers, shape):
        # 2.5 once ran the 3-row grid and raised a TypeError on the
        # 16384-row one, and True ran as one worker
        axes = tuple(Axis(name, tuple(range(n))) for name, n in zip(("theta", "phi"), shape))
        spec = SearchSpec(base=ModelConfig(r=0.5, x=0.5), axes=axes)
        with pytest.raises(ValueError, match="^workers must be a positive integer$"):
            grid_scan(spec, Objective(kind="Q22"), workers=workers)


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

    def test_start_at_zero_quantumness_runs_no_simplex(self):
        # R >= 0, so a minus_R start at the balanced setting, where R = 0,
        # is already at the objective's bound
        spec = SearchSpec(base=ModelConfig(r=0.5, x=0.5, q=0.3, alpha=0.4),
                          axes=(Axis("theta", HALF_GRID), Axis("phi", HALF_GRID)))
        start = {"theta": PI / 2, "phi": PI / 4}
        refined = refine_local(spec, Objective(kind="minus_R"), start)
        assert refined.iterations == 0
        assert not refined.capped and not refined.improved
        assert refined.point == start
        assert refined.value == refined.start_value

    def test_start_above_zero_quantumness_runs_the_simplex(self):
        spec = SearchSpec(base=ModelConfig(r=0.5, x=0.5, q=0.3, alpha=0.4),
                          axes=(Axis("theta", HALF_GRID), Axis("phi", HALF_GRID)))
        refined = refine_local(spec, Objective(kind="minus_R"), {"theta": 0.3, "phi": 0.2})
        assert refined.start_value < -0.01
        assert refined.iterations > 0

    def test_start_at_the_q22_landmark_runs_no_simplex(self):
        # closed-form Q22 at q = 0 never exceeds q22_max = 2 cosh^2(2(r + x)),
        # which the transmissive setting reaches
        start = {"theta": 0.0, "phi": 0.0, "alpha": 0.0}
        refined = refine_local(q22_spec(), Objective(kind="Q22"), start)
        assert refined.iterations == 0
        assert not refined.capped and not refined.improved
        assert refined.point == start
        assert refined.value == pytest.approx(2 * math.cosh(2.0) ** 2, rel=1e-15)

    def test_start_at_the_displaced_q22_bound_runs_no_simplex(self):
        # closed-form Q22 at q > 0 never exceeds q22_max + 2 q^2 e^(2r + 4x),
        # which the transmissive setting reaches
        spec, obj = q22_spec(q=0.3), Objective(kind="Q22")
        bound = optimize._supremum(spec, obj)
        assert bound == 2 * math.cosh(2.0) ** 2 + 2 * 0.3**2 * math.exp(3.0)
        start = {"theta": 0.0, "phi": 0.0, "alpha": 0.0}
        refined = refine_local(spec, obj, start)
        assert refined.iterations == 0
        assert not refined.capped and not refined.improved
        assert refined.point == start
        assert refined.value == pytest.approx(bound, rel=1e-15)

    @pytest.mark.parametrize("variant", ["numeric", "r_axis", "x_axis", "q_axis", "Q11"])
    def test_q22_bound_only_where_it_holds(self, variant):
        # from the landmark angles, where a closed-form Q22 would skip
        for q in (0.0, 0.3):
            spec, obj = q22_spec(q=q), Objective(kind="Q22")
            if variant == "numeric":
                obj = Objective(kind="Q22", layer="numeric")
            elif variant == "Q11":
                obj = Objective(kind="Q11")
            elif variant.endswith("_axis"):
                spec = SearchSpec(base=spec.base,
                                  axes=spec.axes + (Axis(variant[0], (0.0, 0.25, 0.5)),))
            start = {axis.name: 0.0 for axis in spec.axes}
            start.update({n: getattr(spec.base, n) for n in ("r", "x", "q") if n in start})
            assert optimize._supremum(spec, obj) is None
            assert refine_local(spec, obj, start).iterations > 0

    @pytest.mark.parametrize("r, x, q, bounded, finite", [
        pytest.param(177.0, 0.5, 0.0, True, True, id="177.0-0.5"),
        pytest.param(176.0, 2.0, 0.0, False, True, id="176.0-2.0"),
        pytest.param(400.0, 0.5, 0.0, False, False, id="400.0-0.5"),
        pytest.param(1e300, 0.5, 0.0, False, False, id="1e+300-0.5"),
        pytest.param(1e308, 1e308, 0.0, False, False, id="1e+308-1e+308"),
        pytest.param(0.0, 177.0, 0.5, True, True, id="0.0-177.0-0.5"),
        pytest.param(0.0, 177.5, 0.5, False, True, id="0.0-177.5-0.5"),
        pytest.param(0.0, 178.0, 0.5, False, False, id="0.0-178.0-0.5"),
        pytest.param(1.0, 1.0, 1e200, False, False, id="1.0-1.0-1e+200"),
    ])
    def test_q22_bound_near_overflow_never_raises(self, r, x, q, bounded, finite, monkeypatch):
        # q22_max = 2 cosh^2(2(r + x)) stops fitting in a float at r + x of
        # about 177.7; at q > 0, 2 q^2 e^(2r + 4x) can stop fitting while
        # q22_max still fits (e^(2r + 4x) above 709.78, q^2 above about
        # 1e154). There the bound is unknown, and a start whose value is
        # finite polishes as it does with no bound at all
        spec, obj = q22_spec(r=r, x=x, q=q), Objective(kind="Q22")
        assert (optimize._supremum(spec, obj) is not None) == bounded
        results = []
        for with_bound in (True, False):
            if not with_bound:
                monkeypatch.setattr(optimize, "_supremum", lambda *args: None)
            # the supremum, then base = cosh 2(r - x) and f22 = e^(2r - 4x)
            for alpha in (0.0, PI):
                try:
                    refined = refine_local(spec, obj, {"theta": 0.0, "phi": 0.0,
                                                       "alpha": alpha})
                except POINT_ERRORS as exc:
                    results.append(error_message(exc))
                else:
                    results.append((refined.point, refined.value, refined.improved))
        assert results[:2] == results[2:]
        assert any(isinstance(result, tuple) for result in results) == finite


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
        from mzsloppy.optimize import PHI_GRID

        base = ModelConfig(r=8.0, x=0.5, q=0.5)
        scan = grid_scan(
            SearchSpec(base=base, axes=(Axis("theta", (0.0,)), Axis("phi", PHI_GRID))),
            _WorstOverPhase(kind="minus_R"),
        )
        assert scan.errors
        opt = find_known_configurations(8.0, 0.5, 0.5)["optimal"]
        assert opt["label"] == "optimal"
        assert opt["point"]["theta"] == pytest.approx(PI / 2, abs=1e-3)
        assert opt["point"]["phi"] == pytest.approx(PI / 4, abs=1e-3)
        assert opt["worst_case_quantumness"] <= 1e-6

    def test_maximum_scan_with_no_scored_row_fails_as_row_zero_does(self):
        # 2 q^2 overflows Q22 at every grid point
        with pytest.raises(OverflowError, match="^math range error$"):
            find_known_configurations(0.5, 0.5, 1e154)

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            find_known_configurations(-0.5, 0.5)

    def test_maximum_at_q0_is_the_landmark_with_no_polish(self):
        rng = np.random.default_rng(14)
        for r, x in rng.uniform(0.1, 2.0, size=(4, 2)).tolist():
            mx = find_known_configurations(r, x, 0.0)["maximum"]
            assert mx["refine_iterations"] == 0 and not mx["refine_capped"]
            assert mx["label"] == "maximum"
            assert mx["value"] == pytest.approx(mx["landmark_value"],
                                                rel=optimize.VALUE_MATCH_RTOL)


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
    assert len(result.values) == 9
    for i, value in enumerate(result.values):
        point, error = result.point(i), result.errors.get(i)
        assert (value is None) == (error is not None)
        assert error is None or len(error) > 0
        if point["r"] == 400.0:
            assert error is not None
        if kind == "minus_R" and point["x"] == 0.0:
            assert error is not None
    assert result.best is not None and result.point(result.best)["r"] != 400.0
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
        assert 0 not in result.errors
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_overflow_row_names_its_error():
    result = grid_scan(mixed_spec(), Objective(kind="Q22"))
    overflow = [result.errors.get(i) for i in range(9) if result.point(i)["r"] == 400.0]
    assert overflow == ["OverflowError: math range error"] * 3
    numeric = grid_scan(mixed_spec(), Objective(kind="Q22", layer="numeric"))
    overflow = [numeric.errors.get(i) for i in range(9) if numeric.point(i)["r"] == 400.0]
    assert overflow == ["state moments must be finite"] * 3
    # at 180 a finite cosh overflows when squared, at 400 cosh itself does:
    # the closed-form row reads the same either way
    for field in ("r", "x"):
        spec = SearchSpec(base=mixed_spec().base, axes=(Axis(field, (180.0,)),))
        errors = grid_scan(spec, Objective(kind="Q22")).errors
        assert errors[0] == "OverflowError: math range error"
    # at q = 1e154 q**2 is finite and 2 q**2 is inf, which math does not
    # raise for: the non-finite entry reads as the same overflow
    spec = SearchSpec(base=mixed_spec().base, axes=(Axis("q", (1e154,)),))
    assert grid_scan(spec, Objective(kind="Q11")).errors[0] == (
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
        errors = grid_scan(spec, Objective(kind=kind)).errors
        with pytest.raises(OverflowError) as raised:
            objective_value(config, Objective(kind=kind))
        assert error_message(raised.value) == errors[0] == "OverflowError: math range error"


# the numeric cases keep the ids they had before the closed-form layer joined
CHUNKING_CASES = [pytest.param("numeric", kind, id=kind) for kind in OBJECTIVE_KINDS] + [
    pytest.param("closed_form", kind, id=f"closed_form-{kind}") for kind in OBJECTIVE_KINDS
]


@pytest.mark.parametrize("layer, kind", CHUNKING_CASES)
def test_numeric_scan_independent_of_chunking(layer, kind, monkeypatch):
    # 40 points: with no chunk floor, three workers get ragged chunks of 14,
    # 13 and 13
    monkeypatch.setitem(optimize._MIN_CHUNK_ROWS, layer, 1)
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
    for i, value in enumerate(results[0].values):
        config = dataclasses.replace(spec.base, **results[0].point(i))
        if i in results[0].errors:
            with pytest.raises(SloppyModelError, match="singular"):
                objective_value(config, obj)
        elif layer == "numeric":
            assert value == objective_value(config, obj)
        else:  # columns with numpy, one point with math
            assert value == pytest.approx(objective_value(config, obj), rel=1e-12)


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
    assert len(result.values) == 486
    for i, value in enumerate(result.values):
        assert i not in result.errors
        expected = objective_value(dataclasses.replace(base, **result.point(i)), obj)
        assert value == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("layer", ["closed_form", "numeric"])
def test_first_negative_field_names_the_row(layer):
    spec = SearchSpec(base=ModelConfig(r=0.5, x=0.5, q=0.5),
                      axes=(Axis("q", (-1.0, 0.5)), Axis("x", (-1.0, 0.5)),
                            Axis("r", (-1.0, 0.5))))
    result = grid_scan(spec, Objective(kind="Q22", layer=layer), workers=2)
    points = [tuple(result.point(i).values()) for i in range(len(result.values))]
    errors = [result.errors.get(i) for i in range(len(result.values))]
    for point, error in zip(points, errors):
        try:
            dataclasses.replace(spec.base, q=point[0], x=point[1], r=point[2])
        except ValueError as exc:
            assert error == str(exc)
        else:
            assert error is None
    assert errors[points.index((0.5, -1.0, -1.0))] == "model field r must be non-negative"
    assert errors[points.index((-1.0, -1.0, 0.5))] == "model field x must be non-negative"


def test_non_finite_gamma_is_the_closed_form_row_error():
    # alpha + 2 lam1 is 0 at alpha = -1e308 and overflows at 1e308; at
    # r = 400 the matrices overflow too, and the gamma error, which one
    # config reads first, wins
    spec = SearchSpec(base=ModelConfig(r=0.5, x=0.5, lam1=5e307),
                      axes=(Axis("r", (0.5, 400.0)), Axis("alpha", (-1e308, 1e308))))
    result = grid_scan(spec, Objective(kind="Q22"), workers=2)
    assert [result.errors.get(i) for i in range(4)] == [
        None,
        "closed-form input gamma must be finite",
        "OverflowError: math range error",
        "closed-form input gamma must be finite",
    ]
    for i, value in enumerate(result.values):
        config = dataclasses.replace(spec.base, **result.point(i))
        if i not in result.errors:
            assert value == pytest.approx(objective_value(config, Objective("Q22")),
                                          rel=1e-12)
        else:
            with pytest.raises((ValueError, OverflowError)) as raised:
                objective_value(config, Objective(kind="Q22"))
            assert error_message(raised.value) == result.errors[i]


def test_more_workers_than_points():
    spec = SearchSpec(base=ModelConfig(r=0.5, x=0.5), axes=(Axis("theta", (0.0, 1.0)),))
    for layer in ("closed_form", "numeric"):
        obj = Objective(kind="Q22", layer=layer)
        assert repr(grid_scan(spec, obj, workers=5)) == repr(grid_scan(spec, obj))


def test_scan_pool_is_bounded_by_the_machine(monkeypatch):
    pools = []

    class SerialPool:  # records the pool size, starts no thread
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, items):
            return map(fn, items)

    # grid_scan imports the pool class from concurrent.futures where it runs one
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", SerialPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setitem(optimize._MIN_CHUNK_ROWS, "closed_form", 1)  # 64 rows, a chunk per theta
    spec = SearchSpec(
        base=ModelConfig(r=0.5, x=0.5),
        axes=(Axis("theta", tuple(0.1 * k for k in range(8))),
              Axis("phi", tuple(0.1 * k for k in range(8)))),
    )
    obj = Objective(kind="Q22")
    assert repr(grid_scan(spec, obj, workers=64)) == repr(grid_scan(spec, obj))
    assert pools == [2]


@pytest.mark.parametrize("layer", ["closed_form", "numeric"])
def test_scan_chunks_are_no_smaller_than_the_floor(layer, monkeypatch):
    # two workers split a grid only when each chunk gets its layer's
    # _MIN_CHUNK_ROWS rows
    floor = optimize._MIN_CHUNK_ROWS[layer]
    splits = []
    chunks = optimize._chunks

    def recorded_chunks(spec, count, floor):
        slices = chunks(spec, count, floor)
        splits.append([rows.stop - rows.start for rows, _ in slices])
        return slices

    monkeypatch.setattr(optimize, "_chunks", recorded_chunks)
    obj = Objective(kind="minus_R", layer=layer)
    for sizes in ([floor - 1], [floor], [floor, floor]):
        spec = SearchSpec(base=ModelConfig(r=0.5, x=0.5, q=0.4, beta=0.3),
                          axes=(Axis("theta", tuple(np.linspace(0.0, PI, sum(sizes)))),))
        splits.clear()
        results = [repr(grid_scan(spec, obj, workers=w)) for w in (1, 2, 3)]
        assert results[0] == results[1] == results[2]
        assert splits[1] == sizes  # the split of workers=2


@pytest.mark.parametrize("layer", OBJECTIVE_LAYERS)
def test_split_scan_cuts_its_first_axis_with_more_than_one_value(layer, monkeypatch):
    # q has one value, so theta is cut: 7 values of 5 rows each, in blocks of
    # at least 8 rows; x = -1 is rejected, x = 0 singular, x = 400 overflows
    monkeypatch.setitem(optimize._MIN_CHUNK_ROWS, layer, 8)
    spec = SearchSpec(base=ModelConfig(r=0.5, x=0.5, q=0.4, beta=0.3, lam1=0.2),
                      axes=(Axis("q", (0.4,)), Axis("theta", tuple(0.3 * k for k in range(7))),
                            Axis("x", (-1.0, 0.0, 0.7, 400.0, 1.2))))
    splits = [[(rows.start, rows.stop) for rows, _ in optimize._chunks(spec, w, 8)] for w in (1, 2, 3)]
    assert splits == [[(0, 35)], [(0, 20), (20, 35)], [(0, 15), (15, 25), (25, 35)]]
    objective = Objective(kind="minus_R", layer=layer)
    scans = [grid_scan(spec, objective, workers=w) for w in (1, 2, 3)]
    assert repr(scans[0]) == repr(scans[1]) == repr(scans[2])
    values, errors = _objective_values(columns(grid_rows(spec)), objective)
    assert scans[0].values == tuple(None if i in errors else v for i, v in enumerate(values))
    assert scans[0].errors == {i: error_message(e) for i, e in sorted(errors.items())}
    assert len(scans[0].errors) == 21  # three of the five x values fail on every theta


@pytest.mark.parametrize("layer", OBJECTIVE_LAYERS)
def test_every_row_of_a_singular_slice_carries_its_message(layer):
    from mzsloppy.metrology import _SINGULAR_MESSAGE

    spec = SearchSpec(base=ModelConfig(r=0.5, q=0.4, beta=0.3, lam1=0.2, lam2=0.1),
                      axes=(Axis("theta", (0.2, 1.1, 2.3)), Axis("x", (0.0, 0.4, 0.8)),
                            Axis("phi", (0.1, 0.7))))
    scan = grid_scan(spec, Objective(kind="minus_R", layer=layer))
    singular = [i for i in range(len(scan.values)) if scan.point(i)["x"] == 0.0]
    assert len(singular) == 6 and list(scan.errors) == singular
    assert all(scan.errors[i] == _SINGULAR_MESSAGE and scan.values[i] is None for i in singular)


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
        assert all(
            value is None and "singular" in result.errors[i]
            for i, value in enumerate(result.values)
        )


@pytest.mark.parametrize("layer", ["closed_form", "numeric"])
def test_chunk_with_no_valid_configuration(layer):
    spec = SearchSpec(base=ModelConfig(r=0.5, x=0.5), axes=(Axis("x", (-1.0, -2.0)),))
    result = grid_scan(spec, Objective(kind="minus_R", layer=layer))
    assert [result.errors.get(i) for i in range(2)] == ["model field x must be non-negative"] * 2
    assert result.best is None


# -- non-finite values and the worst case over the squeezer phase ------------


@pytest.mark.parametrize("kind", ["Q11", "detQ", "minus_R", "weighted_CQ_inverse"])
def test_non_finite_value_is_a_point_error(kind):
    # at q = 1e160 the numeric information entries overflow: the overflow
    # of the closed-form layer, not a singular (sloppy) information matrix
    spec = SearchSpec(base=ModelConfig(r=0.5, x=0.5), axes=(Axis("q", (0.5, 1e160)),))
    weight = ((1.0, 0.0), (0.0, 1.0)) if kind == "weighted_CQ_inverse" else None
    objective = Objective(kind=kind, layer="numeric", weight=weight)
    result = grid_scan(spec, objective)
    assert result.values[1] is None
    assert result.errors[1] == "OverflowError: math range error"
    assert result.best == 0
    with pytest.raises(OverflowError, match="math range error"):
        objective_value(ModelConfig(r=0.5, x=0.5, q=1e160), objective)


@pytest.mark.parametrize("layer, shown", [("numeric", "inf"), ("closed_form", "inf")])
def test_non_finite_objective_of_finite_matrices_is_a_point_error(layer, shown):
    # Q is finite at q = 1e152, its determinant is not, on either layer. On
    # the numeric layer the true det Q is finite (2.005e304), but the one
    # minor of the Gram vectors that vanishes exactly there is round-off of
    # the q^2 scale, and its square overflows
    config = ModelConfig(r=0.5, x=0.5, q=1e152, theta=0.3, phi=0.4)
    objective = Objective(kind="detQ", layer=layer)
    result = grid_scan(SearchSpec(base=config, axes=()), objective)
    assert result.errors[0] == f"objective detQ is {shown}, not a finite number"
    with pytest.raises(ValueError, match="not a finite number"):
        objective_value(config, objective)


@pytest.mark.parametrize("angles, want", [
    ({}, 2.0323100144840245e20),
    ({"theta": 0.3, "phi": 0.4}, 2.0050050713742524e20),
])
def test_numeric_det_q_does_not_cancel_at_large_displacement(angles, want):
    # Q's entries are about q^2 = 1e20, so its det is 1e-20 of their
    # products, below their round-off; want is a 400-digit evaluation of
    # the same circuit
    config = ModelConfig(r=0.5, x=0.5, q=1e10, **angles)
    got = objective_value(config, Objective(kind="detQ", layer="numeric"))
    assert got == pytest.approx(want, rel=1e-12)


def test_refine_rejects_steps_to_non_finite_values(recwarn):
    # Q11 grows with q until it overflows near q = 6e153
    spec = SearchSpec(base=ModelConfig(r=0.5, x=0.5), axes=(Axis("q", (1e150,)),))
    refined = refine_local(spec, Objective(kind="Q11", layer="numeric"), {"q": 1e150})
    assert refined.improved and not refined.capped
    assert math.isfinite(refined.value) and refined.value > refined.start_value
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_worst_over_phase_is_the_largest_quantumness_over_the_phase_grid():
    from mzsloppy.optimize import GAMMA_GRID, _objective_values

    configs = [ModelConfig(r=0.5, x=0.5, q=0.3, theta=t, phi=p)
               for t, p in ((0.3, 0.2), (PI / 2, PI / 4), (1.1, 0.0))]
    phases = [dataclasses.replace(c, alpha=g, lam1=0.0) for c in configs for g in GAMMA_GRID]
    n = len(GAMMA_GRID)
    for layer in OBJECTIVE_LAYERS:
        minus_r = Objective(kind="minus_R", layer=layer)
        worst = _WorstOverPhase(kind="minus_R", layer=layer)
        values, errors = _objective_values(columns(parameters(configs)), worst)
        assert errors == {}
        if layer == "closed_form":
            # the same phased batch: a single point runs on math, whose Q
            # differs from the batch's numpy columns in the last bits
            r, r_errors = _objective_values(columns(parameters(phases)), minus_r)
            assert r_errors == {}
            r = (-r).tolist()
        else:
            # on the numeric layer a stack and a single point are bitwise equal
            r = [-objective_value(phase, minus_r) for phase in phases]
        for k, value in enumerate(values.tolist()):
            assert value == -max([0.0] + r[k * n:(k + 1) * n])
        # a failed phase fails the config, with the first phase's error
        values, errors = _objective_values(
            columns(parameters([configs[0], ModelConfig(r=0.5, x=0.0)])), worst
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
    repetitions = draw(st.integers(1, 3)) if kind == "weighted_CQ_inverse" else 1
    objective = Objective(kind=kind, layer=draw(st.sampled_from(OBJECTIVE_LAYERS)),
                          weight=weight, repetitions=repetitions)
    return SearchSpec(base=base, axes=axes), objective, draw(st.integers(1, 3))


@settings(deadline=None, max_examples=120)
@given(scan=scans())
def test_scan_over_finite_inputs_never_raises(scan):
    spec, objective, workers = scan
    result = grid_scan(spec, objective, workers=workers)
    grid = list(itertools.product(*(axis.values for axis in spec.axes)))
    assert len(result.values) == len(grid)
    for i, value in enumerate(result.values):
        # repr, so that the sign of a zero and the key order count too
        assert repr(result.point(i)) == repr(dict(zip([a.name for a in spec.axes], grid[i])))
        assert (value is None) != (i not in result.errors)
        assert value is None or math.isfinite(value)
    values = [value for value in result.values if value is not None]
    if values:
        assert result.values[result.best] == max(values)
    else:
        assert result.best is None


# -- property: a batched flatness probe is its per-probe loop -----------------


def flat_axes_per_probe(spec, objective, anchor):
    """degenerate_axes one probe at a time through objective_value, a probe
    that ModelConfig rejects or that fails ending its slice as not flat."""
    flat = []
    for axis in spec.axes:
        verdicts = []
        for offset in (0.0, 0.4):
            probe = {other.name: float(anchor[other.name]) + offset
                     for other in spec.axes if other.name != axis.name}
            try:
                vals = [objective_value(dataclasses.replace(spec.base, **probe, **{axis.name: v}),
                                        objective)
                        for v in axis.values]
            except POINT_ERRORS:
                verdicts.append(False)
                continue
            spread = max(vals) - min(vals)
            verdicts.append(spread <= 1e-9 * max(1.0, max(abs(v) for v in vals)))
        if all(verdicts):
            flat.append(axis.name)
    return flat


# r = 0 makes the angle axes flat for Q22, and the worst case over the
# squeezer phase is flat along alpha and lam1; negative values put rows with
# a negative r, x or q on the slices
PROBE_VALUES = st.one_of(st.floats(-1.0, 3.0), st.sampled_from((0.0, -0.2, PI / 4, PI / 2)))


@st.composite
def flatness_probes(draw):
    base = ModelConfig(**{
        name: draw(st.sampled_from((0.0, 0.5)) | st.floats(0.0, 1.5))
        if name in ("r", "x", "q") else draw(st.floats(-3.0, 3.0))
        for name in MODEL_FIELDS
    })
    names = draw(st.lists(st.sampled_from(MODEL_FIELDS), min_size=1, max_size=3, unique=True))
    axes = tuple(Axis(n, tuple(draw(st.lists(PROBE_VALUES, min_size=1, max_size=4))))
                 for n in names)
    layer = draw(st.sampled_from(OBJECTIVE_LAYERS))
    objective = draw(st.sampled_from((Objective(kind="Q22", layer=layer),
                                      _WorstOverPhase(kind="minus_R", layer=layer))))
    anchor = {n: draw(PROBE_VALUES) for n in names}
    return SearchSpec(base=base, axes=axes), objective, anchor


@settings(deadline=None, max_examples=80)
@given(probe=flatness_probes())
def test_batched_flatness_is_the_per_probe_loop(probe):
    spec, objective, anchor = probe
    assert degenerate_axes(spec, objective, anchor) == flat_axes_per_probe(spec, objective, anchor)


# -- property: all flatness slices are one batch, each the slice's own batch --


def flat_axes_per_slice(spec, objective, anchor):
    """degenerate_axes with each slice its own _objective_values batch, the
    shifted slice probed only where the anchor's slice is flat: a slice with
    a row ModelConfig rejects, or with a failed probe, is not flat."""
    flat = []
    for axis in spec.axes:
        for offset in (0.0, 0.4):
            probes = np.repeat(parameters([spec.base]), len(axis.values), axis=0)
            for other in spec.axes:
                if other.name != axis.name:
                    probes[:, MODEL_FIELDS.index(other.name)] = float(anchor[other.name]) + offset
            probes[:, MODEL_FIELDS.index(axis.name)] = axis.values
            if row_errors(columns(probes)):
                break
            values, errors = _objective_values(columns(probes), objective)
            if errors or not values.max() - values.min() <= 1e-9 * max(1.0, np.abs(values).max()):
                break
        else:
            flat.append(axis.name)
    return flat


@st.composite
def flatness_slices(draw):
    spec, objective, anchor = draw(flatness_probes())
    # no axes at all, an r or x axis with negative values, an anchor at x = 0
    names = draw(st.sampled_from(((), ("r", "theta"), ("x", "phi"), ("x", "alpha", "lam1"),
                                  tuple(a.name for a in spec.axes))))
    axes = tuple(
        Axis(n, (-0.3, 0.0, 0.6) if n in ("r", "x") and draw(st.booleans())
             else next((a.values for a in spec.axes if a.name == n), HALF_GRID[:4]))
        for n in names
    )
    anchor = {n: draw(st.sampled_from((0.0, 0.5))) if n == "x" else anchor.get(n, draw(PROBE_VALUES))
              for n in names}
    return SearchSpec(base=spec.base, axes=axes), objective, anchor


@settings(deadline=None, max_examples=80)
@given(probe=flatness_slices())
def test_one_flatness_batch_is_the_per_slice_batches(probe):
    spec, objective, anchor = probe
    assert degenerate_axes(spec, objective, anchor) == flat_axes_per_slice(spec, objective, anchor)


TWO_ANGLES = (Axis("theta", HALF_GRID), Axis("phi", (0.0, 0.3, 0.7)))


@pytest.mark.parametrize("layer", OBJECTIVE_LAYERS)
@pytest.mark.parametrize(
    "base, axes, anchor, objective, flat",
    [
        # Q22 is flat in theta at phi = 0 and in phi at theta = 0, and in
        # neither on the slices shifted by 0.4
        (ModelConfig(r=0.5, x=0.5), TWO_ANGLES, {"theta": 0.0, "phi": 0.0}, "Q22", []),
        (ModelConfig(r=0.0, x=0.5), TWO_ANGLES, {"theta": 0.0, "phi": 0.0}, "Q22",
         ["theta", "phi"]),
        # the r slices hold a negative r, and the other axis's slices do not
        (ModelConfig(r=0.0, x=0.5), (Axis("r", (-0.5, 0.5)), Axis("theta", HALF_GRID)),
         {"r": 0.0, "theta": 0.0}, "Q22", ["theta"]),
        # the anchor's alpha slice is at x = 0, where every probe fails
        (ModelConfig(r=0.5, x=0.5, q=0.3), (Axis("x", (0.5,)), Axis("alpha", HALF_GRID)),
         {"x": 0.0, "alpha": 0.0}, "worst", ["x"]),
        (ModelConfig(r=0.5, x=0.5, q=0.3), (Axis("x", (0.5,)), Axis("alpha", HALF_GRID)),
         {"x": 0.5, "alpha": 0.0}, "worst", ["x", "alpha"]),
        (ModelConfig(r=0.5, x=0.5), (), {}, "worst", []),
    ],
    ids=["first_slice_flat_only", "r0_flat", "negative_r", "x0_anchor", "worst_alpha", "no_axes"],
)
def test_flatness_batch_cases(layer, base, axes, anchor, objective, flat):
    spec = SearchSpec(base=base, axes=axes)
    objective = (Objective(kind="Q22", layer=layer) if objective == "Q22"
                 else _WorstOverPhase(kind="minus_R", layer=layer))
    assert degenerate_axes(spec, objective, anchor) == flat
    assert flat_axes_per_slice(spec, objective, anchor) == flat


# -- one closed-form pass serves both find-known scans ------------------------


def spy_layer_matrices(monkeypatch) -> list:
    """The list that each closed_forms.layer_matrices call from here on
    appends its (input type, row count) to."""
    from mzsloppy import closed_forms

    calls = []
    layer_matrices = closed_forms.layer_matrices

    def spy(points, *args, **kwargs):
        result = layer_matrices(points, *args, **kwargs)
        calls.append((type(points).__name__, len(result[0])))
        return result

    monkeypatch.setattr(closed_forms, "layer_matrices", spy)
    return calls


@pytest.mark.parametrize("r, x, q", [(0.5, 0.5, 0.0), (0.3, 0.8, 0.5), (0.5, 0.0, 0.0)])
def test_find_known_makes_two_closed_form_passes(monkeypatch, r, x, q):
    calls = spy_layer_matrices(monkeypatch)
    found = find_known_configurations(r, x, q)
    if x == 0.0:
        # the worst-case scan's row 0 fails, and its message is the reason
        monkeypatch.undo()
        scan = grid_scan(SearchSpec(base=ModelConfig(r=r, x=x, q=q),
                                    axes=(Axis("theta", optimize.THETA_GRID),
                                          Axis("phi", optimize.PHI_GRID))),
                         _WorstOverPhase(kind="minus_R"))
        assert found["optimal"] == {"label": "undefined", "reason": scan.errors[0]}
    # the grid on its axis columns, the maximum's start as one point with
    # math, then both settings' flatness probes in one batch: the maximum's
    # 58 and, unless the optimal is undefined, its 26 at 16 phases each
    probes = 58 if x == 0.0 else 58 + 26 * 16
    assert calls == [("ModelColumns", 640), ("ModelConfig", 1), ("ModelColumns", probes)]


# -- an objective is evaluated in one layer pass, or read off a given one -----


@pytest.mark.parametrize("layer", OBJECTIVE_LAYERS)
def test_given_matrices_are_read_without_a_layer_pass(monkeypatch, layer):
    from mzsloppy import closed_forms

    points = columns(grid_rows(mixed_spec()))  # rows that fail, and rows ModelConfig rejects
    objectives = [
        Objective(kind=kind, layer=layer,
                  weight=WEIGHTS[0] if kind == "weighted_CQ_inverse" else None)
        for kind in OBJECTIVE_KINDS
    ] + [_WorstOverPhase(kind="minus_R", layer=layer)]
    calls = spy_layer_matrices(monkeypatch)
    for objective in objectives:
        rows = optimize._phased(points) if isinstance(objective, _WorstOverPhase) else points
        with np.errstate(all="ignore"):
            matrices = closed_forms.layer_matrices(rows, layer, objective.kind == "detQ")
        calls.clear()
        values, errors = _objective_values(points, objective, matrices)
        assert calls == []  # detQ once made a second pass of its own
        evaluated, evaluated_errors = _objective_values(points, objective)
        assert calls == [("ModelColumns", math.prod(rows.shape))]
        assert values.tobytes() == evaluated.tobytes()
        assert [(k, type(e), str(e)) for k, e in errors.items()] == [
            (k, type(e), str(e)) for k, e in evaluated_errors.items()
        ]


@pytest.mark.parametrize("layer", OBJECTIVE_LAYERS)
@pytest.mark.parametrize("kind", ["Q22", "detQ", "worst"])
def test_degenerate_axes_makes_one_layer_pass(monkeypatch, layer, kind):
    spec = SearchSpec(base=ModelConfig(r=0.5, x=0.5, q=0.3), axes=TWO_ANGLES)
    objective = (_WorstOverPhase(kind="minus_R", layer=layer) if kind == "worst"
                 else Objective(kind=kind, layer=layer))
    anchor = {"theta": 0.0, "phi": 0.0}
    calls = spy_layer_matrices(monkeypatch)
    flat = degenerate_axes(spec, objective, anchor)
    # each axis's values on two slices, at 16 phases each for the worst case
    probes = 2 * (len(HALF_GRID) + 3)
    assert calls == [("ModelColumns", probes * (16 if kind == "worst" else 1))]
    monkeypatch.undo()
    assert flat == flat_axes_per_slice(spec, objective, anchor)


# -- property: the axis-column grid is the grid's rows, bit for bit -----------


def grid_values(name):
    """Axis or base values of a field, with values that overflow the closed
    forms (r and x up to 400, q up to 1e160) and that make gamma non-finite
    (alpha and lam1 near +-1e308)."""
    if name in ("r", "x"):
        return st.floats(0.0, 2.0) | st.floats(0.0, 400.0)
    if name == "q":
        return st.floats(0.0, 3.0) | st.floats(0.0, 1e160)
    if name in ("alpha", "lam1"):
        return st.floats(-4.0, 4.0) | st.sampled_from((1e308, -1e308, 1.7e308, -1.7e308))
    return st.floats(-4.0, 4.0)


@st.composite
def axis_grids(draw):
    """A spec of zero to three axes over any fields, one to five values
    each, repeats allowed."""
    base = ModelConfig(**{name: draw(grid_values(name)) for name in MODEL_FIELDS})
    names = draw(st.lists(st.sampled_from(MODEL_FIELDS), max_size=3, unique=True))
    axes = tuple(Axis(n, draw(st.lists(grid_values(n), min_size=1, max_size=5))) for n in names)
    return SearchSpec(base=base, axes=axes)


@settings(deadline=None, max_examples=150)
@given(spec=axis_grids())
@example(spec=SearchSpec(base=ModelConfig(r=400.0, x=0.5), axes=()))
@example(spec=SearchSpec(base=ModelConfig(x=0.5, q=0.3),
                         axes=(Axis("lam2", (0.3, 0.3)), Axis("r", (0.5, 400.0, 0.5)))))
def test_axis_column_grid_is_the_grid_rows(spec):
    from mzsloppy import closed_forms

    grid_columns = ModelColumns.grid(spec.base, [(axis.name, axis.values) for axis in spec.axes])
    assert grid_columns.shape == (tuple(len(axis.values) for axis in spec.axes) or (1,))
    for layer in OBJECTIVE_LAYERS:
        with np.errstate(all="ignore"):  # gamma overflows here as in the (N, 9) columns
            *grid, errors = closed_forms.layer_matrices(grid_columns, layer, True)
            *rows, row_errors_ = closed_forms.layer_matrices(columns(grid_rows(spec)), layer, True)
        for a, b in zip(grid, rows):  # Q, U and det Q
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
        assert [(k, type(e), str(e)) for k, e in errors.items()] == [
            (k, type(e), str(e)) for k, e in row_errors_.items()
        ]


# -- the phased form and a concatenation are their rows, bit for bit ----------


def assert_same_matrices(got, want, layer):
    """layer_matrices of two inputs: Q, U and det Q byte for byte, and the
    same errors in the same order."""
    from mzsloppy import closed_forms

    with np.errstate(all="ignore"):
        *matrices, errors = closed_forms.layer_matrices(got, layer, True)
        *oracle, oracle_errors = closed_forms.layer_matrices(want, layer, True)
    for a, b in zip(matrices, oracle):  # Q, U and det Q
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    assert [(k, type(e), str(e)) for k, e in errors.items()] == [
        (k, type(e), str(e)) for k, e in oracle_errors.items()
    ]


@pytest.mark.parametrize("layer", OBJECTIVE_LAYERS)
def test_phased_columns_are_the_phased_rows(layer):
    from mzsloppy.optimize import GAMMA_GRID, PHI_GRID, THETA_GRID

    # the find-known angles at lam1 != 0, an alpha axis that the phases
    # replace, and an r whose rows overflow
    base = ModelConfig(r=0.7, x=0.4, q=0.5, beta=0.3, lam1=0.2, lam2=0.1)
    axes = (Axis("theta", THETA_GRID), Axis("phi", PHI_GRID), Axis("alpha", (0.3, 2.0)),
            Axis("r", (0.7, 400.0)))
    rows = grid_rows(SearchSpec(base=base, axes=axes))
    grid = ModelColumns.grid(base, [(axis.name, axis.values) for axis in axes])
    for form in (columns(rows), grid):
        assert_same_matrices(optimize._phased(form), columns(phased_rows(rows)), layer)
    # at lam1 = 0 the maximum's grid is the optimal's phased grid, row for
    # row, so one find-known pass serves both scans
    base = dataclasses.replace(base, lam1=0.0)
    angles = axes[:2]
    grid = grid_rows(SearchSpec(base=base, axes=(*angles, Axis("alpha", GAMMA_GRID))))
    phased = phased_rows(grid_rows(SearchSpec(base=base, axes=angles)))
    assert grid.shape == phased.shape == (640, len(MODEL_FIELDS))
    assert grid.tobytes() == phased.tobytes()


def test_zero_dimensional_fields_are_a_row():
    config = ModelConfig(r=0.7, x=0.4, q=0.5, beta=0.3, theta=1.1, phi=0.6, alpha=0.9,
                         lam1=0.2, lam2=0.1)
    point = ModelColumns({name: getattr(config, name) for name in MODEL_FIELDS})
    assert point.shape == (1,) and point.gamma.shape == (1,)
    assert not point.gamma.flags.writeable and not point.r.flags.writeable
    # alpha and lam1 alone 0-d, next to (N,) columns
    rows = parameters([config, dataclasses.replace(config, theta=2.0, r=400.0)])
    fields = dict(zip(MODEL_FIELDS, rows.T))
    fields.update(alpha=config.alpha, lam1=config.lam1)
    for layer in OBJECTIVE_LAYERS:
        assert_same_matrices(point, columns(rows[:1]), layer)
        assert_same_matrices(ModelColumns(fields), columns(rows), layer)


@st.composite
def column_forms(draw):
    """A grid, a phased grid and a row form, maybe with alpha and lam1 0-d,
    in any order, each with its oracle rows."""
    grid, phased = draw(axis_grids()), draw(axis_grids())
    fields = {name: grid_values(name) for name in MODEL_FIELDS}
    configs = draw(st.lists(st.builds(ModelConfig, **fields), min_size=1, max_size=4))
    rows = parameters(configs)
    fields = dict(zip(MODEL_FIELDS, rows.T))
    if draw(st.booleans()):
        fields.update(alpha=configs[0].alpha, lam1=configs[0].lam1)
        rows[:, ALPHA], rows[:, LAM1] = configs[0].alpha, configs[0].lam1
    forms = [
        (ModelColumns.grid(grid.base, [(a.name, a.values) for a in grid.axes]), grid_rows(grid)),
        (optimize._phased(ModelColumns.grid(phased.base, [(a.name, a.values) for a in phased.axes])),
         phased_rows(grid_rows(phased))),
        (ModelColumns(fields), rows),
    ]
    return draw(st.permutations(forms))


@settings(deadline=None, max_examples=100)
@given(forms=column_forms())
def test_concatenated_columns_are_their_rows_concatenated(forms):
    joined = ModelColumns.concatenate([form for form, _ in forms])
    rows = np.concatenate([rows for _, rows in forms])
    assert joined.shape == (len(rows),)
    for layer in OBJECTIVE_LAYERS:
        assert_same_matrices(joined, columns(rows), layer)


# -- the merged flatness batch is each setting's degenerate_axes ---------------


def find_known_four_passes(r, x, q):
    """find_known_configurations as it was composed from four closed-form
    passes: the grid, the optimal's start evaluated again, and each
    setting's flatness probes as its own degenerate_axes batch. Returns the
    payload and the (spec, objective, anchor) of each polished setting."""
    from mzsloppy import closed_forms

    base = ModelConfig(r=r, x=x, q=q)
    lm = closed_forms.landmarks(r, x, q)
    spec = SearchSpec(base=base, axes=(Axis("theta", optimize.THETA_GRID),
                                       Axis("phi", optimize.PHI_GRID),
                                       Axis("alpha", optimize.GAMMA_GRID)))
    grid = columns(grid_rows(spec))
    with np.errstate(all="ignore"):
        matrices = closed_forms.layer_matrices(grid, "closed_form")

    def polish(spec, objective, start, reference, max_iterations):
        refined = refine_local(spec, objective, start, max_iterations)
        point = fold_angles(refined.point)
        settings.append((spec, objective, refined.point))
        return point, refined, {
            "angles_match_reference": all(
                abs(point[k] - v) <= optimize.ANGLE_MATCH_TOL for k, v in reference.items()),
            "degenerate_axes": degenerate_axes(spec, objective, refined.point),
        }

    settings = []
    objective = Objective(kind="Q22")
    scan = optimize._scan_result(spec, *_objective_values(grid, objective, matrices))
    point, refined, maximum = polish(spec, objective, best_point(spec, objective, scan),
                                     closed_forms.MAXIMUM_CONFIGURATION, 400)
    value_ok = abs(refined.value - lm["q22_max"]) <= optimize.VALUE_MATCH_RTOL * abs(lm["q22_max"])
    maximum.update(
        point={"theta": point["theta"], "phi": point["phi"], "gamma": point["alpha"]},
        value=refined.value,
        landmark_value=lm["q22_max"],
        label="maximum" if (maximum["angles_match_reference"] and value_ok) else "unlabeled",
        value_matches_landmark=value_ok,
        refine_iterations=refined.iterations,
        refine_capped=refined.capped,
    )
    spec = SearchSpec(base=base, axes=spec.axes[:2])
    objective = _WorstOverPhase(kind="minus_R")
    params = columns(grid_rows(spec))
    scan = optimize._scan_result(spec, *_objective_values(params, objective, matrices))
    if scan.best is None:
        optimal = {"label": "undefined", "reason": scan.errors[0]}
    else:
        point, refined, optimal = polish(spec, objective, scan.point(scan.best),
                                         closed_forms.OPTIMAL_CONFIGURATION, 200)
        worst = -refined.value
        optimal.update(
            point=point,
            worst_case_quantumness=worst,
            label="optimal" if (optimal["angles_match_reference"] and worst <= 1e-6) else "unlabeled",
            quantumness_vanishes=worst <= 1e-6,
        )
    return {"maximum": maximum, "optimal": optimal, "landmarks": lm}, settings


# an r axis whose r = 400 probe overflows, so the batch holds failed rows
OVERFLOWING_PROBE = (SearchSpec(base=ModelConfig(r=0.5, x=0.5),
                                axes=(Axis("r", (0.5, 400.0)), Axis("theta", HALF_GRID[:3]))),
                     {"r": 0.5, "theta": 0.0})


@st.composite
def closed_form_settings(draw):
    """One to three flatness probes (spec, objective, anchor) on the
    closed-form layer, each with at least one axis, and maybe the
    overflowing one among them."""
    settings_ = [
        (spec, dataclasses.replace(objective, layer="closed_form"), anchor)
        for spec, objective, anchor in draw(st.lists(flatness_probes(), min_size=1, max_size=3))
    ]
    if draw(st.booleans()):
        spec, anchor = OVERFLOWING_PROBE
        objective = draw(st.sampled_from((Objective(kind="Q22"), _WorstOverPhase(kind="minus_R"))))
        settings_.insert(draw(st.integers(0, len(settings_))), (spec, objective, anchor))
    return settings_


@settings(deadline=None, max_examples=60)
@given(settings_=closed_form_settings())
def test_merged_flatness_batch_is_each_probes_degenerate_axes(settings_):
    assert optimize._degenerate_axes_together(settings_) == [
        degenerate_axes(spec, objective, anchor) for spec, objective, anchor in settings_
    ]


@pytest.mark.parametrize(
    "r, x, q, search",
    [
        (0.5, 0.5, 0.0, "bounded"),
        (0.3, 0.8, 0.5, "bounded"),
        (0.0, 0.5, 0.0, "bounded"),  # r = 0: every axis is flat for both settings
        (0.5, 0.0, 0.0, "bounded"),  # x = 0: the optimal is "undefined"
        (0.5, 0.5, 0.0, "unbounded"),  # both simplexes run, neither improves its start
        (0.3, 0.8, 0.5, "unbounded_off_grid"),  # both simplexes move their anchors
    ],
)
def test_merged_flatness_batch_is_each_settings_degenerate_axes(monkeypatch, r, x, q, search):
    if search != "bounded":
        monkeypatch.setattr(optimize, "_supremum", lambda spec, objective: None)
    if search == "unbounded_off_grid":
        # no grid point sits on either optimum, so each polish moves off the grid
        monkeypatch.setattr(optimize, "THETA_GRID", tuple(t + 0.05 for t in optimize.THETA_GRID))
        monkeypatch.setattr(optimize, "PHI_GRID", tuple(p + 0.05 for p in optimize.PHI_GRID))
    found = find_known_configurations(r, x, q)
    oracle, settings = find_known_four_passes(r, x, q)
    assert repr(found) == repr(oracle)
    assert len(settings) == (1 if x == 0.0 else 2)
    assert optimize._degenerate_axes_together(settings) == [
        degenerate_axes(spec, objective, anchor) for spec, objective, anchor in settings
    ]
    iterations = found["maximum"]["refine_iterations"]
    assert (iterations > 0) == (search != "bounded")
    if r == 0.0:
        assert found["maximum"]["degenerate_axes"] == ["theta", "phi", "alpha"]
        assert found["optimal"]["degenerate_axes"] == ["theta", "phi"]
    if search == "unbounded_off_grid":
        for spec, _, anchor in settings:  # not a grid point
            assert any(anchor[axis.name] not in axis.values for axis in spec.axes)


# -- a scan with no scored row fails as its row 0 does ------------------------

ZERO_BOUND = "weighted scalar bound is zero, its reciprocal objective is undefined"


@pytest.mark.parametrize("layer", OBJECTIVE_LAYERS)
def test_zero_weight_fails_every_row_and_the_search(layer, tmp_path, capsys):
    objective = Objective("weighted_CQ_inverse", layer, weight=((0.0, 0.0), (0.0, 0.0)))
    base = ModelConfig(r=0.5, x=0.5, theta=PI / 2, phi=PI / 4)
    with pytest.raises(SloppyModelError, match=f"^{ZERO_BOUND}$"):
        objective_value(base, objective)
    spec = SearchSpec(base=base, axes=(Axis("theta", (1.0, PI / 2)),))
    scan = grid_scan(spec, objective)
    assert scan.values == (None, None) and scan.best is None
    assert scan.errors == {0: ZERO_BOUND, 1: ZERO_BOUND}
    with pytest.raises(SloppyModelError, match=f"^{ZERO_BOUND}$"):
        best_point(spec, objective, scan)
    # the custom optimize mode fails the same way: a degenerate model, exit 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "model": {name: getattr(base, name) for name in MODEL_FIELDS},
        "objective": {"kind": objective.kind, "layer": layer, "weight": [[0, 0], [0, 0]]},
        "axes": [{"name": "theta", "values": [1.0, PI / 2]}],
    }))
    assert cli.main(["optimize", "--config", str(cfg)]) == 2
    assert capsys.readouterr() == ("", f"mzsloppy: degenerate model: {ZERO_BOUND}\n")


def test_best_point_of_a_scan_whose_row_zero_evaluates():
    # where row 0 evaluates alone but the scan scored no row, the search
    # still fails, as a degenerate model
    spec = q22_spec()
    size = math.prod(len(axis.values) for axis in spec.axes)
    errors = dict.fromkeys(range(size), "OverflowError: math range error")
    scan = ScanResult(axes=spec.axes, values=(None,) * size, errors=errors, best=None)
    with pytest.raises(SloppyModelError, match="^objective failed at every grid point$"):
        best_point(spec, Objective(kind="Q22"), scan)
    scan = grid_scan(spec, Objective(kind="Q22"))
    assert best_point(spec, Objective(kind="Q22"), scan) == scan.point(scan.best)


def test_error_message_names_an_arithmetic_error():
    assert error_message(ZeroDivisionError("float division by zero")) == (
        "ZeroDivisionError: float division by zero"
    )
