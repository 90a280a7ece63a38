"""Acceptance gate, one test per shipped criterion.

Run with -v to get one pass/fail line per criterion. Criteria 4 and 5, weak
compatibility and covariance at the balanced setting, are the paper's
claims 2 and 4 in tests/test_paper_claims.py.
"""

import json
import math

import numpy as np
import pytest

from listing import listed_records
from mzsloppy import cli
from mzsloppy.closed_forms import f22, landmarks
from mzsloppy.gaussian import gate_symplectic, symplectic_form
from mzsloppy.metrology import qfi_matrix, quantumness_general, uhlmann_matrix
from mzsloppy.model import (
    ModelConfig,
    build_mz_model,
    evaluate_state,
    jacobian_analytic,
)
from mzsloppy.optimize import find_known_configurations
from oracles import dcov, dmean, det_ratio, jacobian_fd

PI = math.pi
OPT = {"theta": PI / 2, "phi": PI / 4}


def random_config(rng, r_max=2.0, q_max=2.0, x_max=2.0):
    return ModelConfig(
        r=rng.uniform(0, r_max),
        q=rng.uniform(0, q_max),
        beta=rng.uniform(0, 2 * PI),
        theta=rng.uniform(0, 2 * PI),
        phi=rng.uniform(0, 2 * PI),
        x=rng.uniform(0, x_max),
        alpha=rng.uniform(0, 2 * PI),
        lam1=rng.uniform(0, 2 * PI),
        lam2=rng.uniform(0, 2 * PI),
    )


def test_criterion_01_symplectic_and_purity():
    """1000 random circuits: every gate symplectic to 1e-12, output pure."""
    rng = np.random.default_rng(101)
    omega = symplectic_form(2)
    for _ in range(1000):
        config = random_config(rng)
        for gate in build_mz_model(config):
            s, _ = gate_symplectic(gate, 2)
            assert np.max(np.abs(s @ omega @ s.T - omega)) <= 1e-12
        det = float(np.linalg.det(evaluate_state(config).cov))
        assert abs(det - 1.0 / 16.0) <= 1e-9


def test_criterion_02_jacobian_oracle():
    """Analytic derivatives (the moments' derivatives that the jet's forms
    and shifts give) match central differences; gap shrinks ~4x when the
    step is halved."""
    rng = np.random.default_rng(202)
    for _ in range(200):
        config = random_config(rng)
        exact = jacobian_analytic(config)
        approx = jacobian_fd(config, step=1e-5)
        for j in range(2):
            assert np.max(np.abs(dcov(exact)[j] - approx.dcov[j])) <= 1e-6
            assert np.max(np.abs(dmean(exact)[j] - approx.dmean[j])) <= 1e-6

    # second-order convergence, measured where truncation still dominates
    # round-off (the largest legal step and its half)
    for seed in range(6):
        config = random_config(np.random.default_rng(300 + seed))
        exact = jacobian_analytic(config)

        def gap(step):
            approx = jacobian_fd(config, step=step)
            return max(
                np.max(np.abs(dcov(exact)[j] - approx.dcov[j])) for j in range(2)
            )

        coarse, fine = gap(1e-3), gap(5e-4)
        assert 3.2 <= coarse / fine <= 4.8


def test_criterion_03_sloppy_baseline():
    """No intermediate squeezing: information determinant collapses and
    the unestimable direction is the phase difference."""
    rng = np.random.default_rng(303)
    target = np.array([1.0, -1.0]) / math.sqrt(2.0)
    for _ in range(100):
        config = ModelConfig(
            r=rng.uniform(0, 1.5),
            q=rng.uniform(0, 1.0),
            beta=rng.uniform(0, 2 * PI),
            theta=rng.uniform(0, 2 * PI),
            phi=rng.uniform(0, 2 * PI),
            x=0.0,
            alpha=rng.uniform(0, 2 * PI),
            lam1=rng.uniform(0, 2 * PI),
            lam2=rng.uniform(0, 2 * PI),
        )
        q = qfi_matrix(jacobian_analytic(config))
        assert np.linalg.det(q) <= 1e-10 * np.trace(q) ** 2
        eigvals, eigvecs = np.linalg.eigh(q)
        null = eigvecs[:, int(np.argmin(eigvals))]
        assert min(np.max(np.abs(null - target)), np.max(np.abs(null + target))) <= 1e-6


def test_criterion_06_closed_form_identity_suite():
    """Landmark values and their ratios obey the printed identities."""
    grid = [0.25 * k for k in range(9)]
    for r in grid:
        for x in grid:
            lm = landmarks(r, x)
            assert lm["q22_max"] == pytest.approx(
                2 * math.cosh(2 * (r + x)) ** 2, rel=1e-12
            )
            assert lm["q22_opt"] == pytest.approx(
                2 * math.cosh(2 * r) ** 2 * math.cosh(2 * x) ** 2, rel=1e-12
            )
            ratio = lm["ratio_opt_max"]
            assert 0.25 - 1e-12 <= ratio <= 1.0 + 1e-12
            assert ratio == pytest.approx(
                0.25 * (1 + math.cosh(2 * (r - x)) / math.cosh(2 * (r + x))) ** 2,
                rel=1e-12,
            )
            assert lm["q22_inf"] / lm["q22_opt"] == pytest.approx(
                (math.tanh(2 * x) * math.tanh(2 * r) - 1) ** 2, rel=1e-12
            )
            assert f22(ModelConfig(r=r, x=x)) == pytest.approx(
                math.exp(2 * r + 4 * x), rel=1e-12
            )
            opt_over_max = f22(ModelConfig(r=r, x=x, **OPT)) / f22(
                ModelConfig(r=r, x=x)
            )
            assert opt_over_max == pytest.approx(
                (1 + math.exp(-4 * x)) * (1 + math.exp(-4 * r)) / 4, rel=1e-12
            )


def test_criterion_07_det_ratio_property():
    """Determinant ratio stays inside (0, 2) and decays along the input
    squeezing at fixed intermediate squeezing."""
    grid = [0.25 * k for k in range(1, 9)]
    for r in grid:
        for x in grid:
            assert 0.0 < det_ratio(r, x) < 2.0
    for x in (0.5, 1.0):
        values = [det_ratio(float(r), x) for r in np.linspace(0.25, 2.0, 20)]
        assert all(b < a for a, b in zip(values, values[1:]))


def eigen_quantumness(q, u):
    """The n-parameter definition of R, the largest eigenvalue modulus of
    Q^-1 U: the reference the engine's |U12| / sqrt(det Q) must agree with."""
    return float(np.max(np.abs(np.linalg.eigvals(np.linalg.solve(q, u)))))


def test_criterion_08_quantumness_definition_equivalence():
    """The engine's two-parameter quantumness agrees with the n-parameter
    definition; without displacement the scalar stays inside the unit
    interval."""
    rng = np.random.default_rng(808)
    checked = 0
    while checked < 100:
        config = random_config(rng, q_max=0.0)
        if config.r < 0.05 or config.x < 0.05:
            continue
        jet = jacobian_analytic(config)
        q = qfi_matrix(jet)
        if abs(np.linalg.det(q)) <= 1e-8 * max(1.0, np.trace(q) ** 2):
            continue
        u = uhlmann_matrix(jet)
        general = quantumness_general(q, u)
        two = eigen_quantumness(q, u)
        assert abs(general - two) <= 1e-9 * max(1.0, general)
        assert -1e-12 <= general <= 1.0 + 1e-12
        checked += 1

    # the definitions also agree with displacement on, inside the unit
    # interval too: Q + iU is a Gram matrix
    for seed in range(5):
        config = random_config(np.random.default_rng(900 + seed))
        if config.r < 0.05 or config.x < 0.05:
            continue
        jet = jacobian_analytic(config)
        q, u = qfi_matrix(jet), uhlmann_matrix(jet)
        if abs(np.linalg.det(q)) <= 1e-8 * max(1.0, np.trace(q) ** 2):
            continue
        general = quantumness_general(q, u)
        assert abs(general - eigen_quantumness(q, u)) <= 1e-9 * max(1.0, general)
        assert -1e-12 <= general <= 1.0 + 1e-12


def test_criterion_09_optimizer_recovery():
    """Both distinguished settings are recovered with matching landmark
    value and angles."""
    found = find_known_configurations(0.5, 0.5, 0.0)
    mx = found["maximum"]
    assert mx["label"] == "maximum"
    for key in ("theta", "phi", "gamma"):
        assert abs(mx["point"][key]) <= 1e-3
    assert mx["value"] == pytest.approx(2 * math.cosh(2.0) ** 2, rel=1e-6)

    opt = found["optimal"]
    assert opt["label"] == "optimal"
    assert abs(opt["point"]["theta"] - PI / 2) <= 1e-3
    assert abs(opt["point"]["phi"] - PI / 4) <= 1e-3
    assert opt["worst_case_quantumness"] <= 1e-6


def test_criterion_10_discrepancy_documentation():
    """The default comparison grid yields a complete report, calibration
    points agree, and the disputed constant-offset entries stay visibly
    apart (their agreement is never asserted, here or anywhere). The notes
    name the offset and the reference layer's curvature defect."""
    payload = cli.run_compare()
    records = listed_records(payload["records"])
    summary = payload["summary"]
    assert summary["record_count"] == len(records) == 3 * 3 * 3 * 4

    per_config = {}
    for record in records:
        model = record["model"]
        key = (model["q"], model["phi"], model["x"])
        per_config.setdefault(key, []).append(record["entry"])
        for field in ("closed_form", "numeric", "abs_difference", "rel_difference"):
            assert math.isfinite(record[field])
    assert len(per_config) == 27
    for entries in per_config.values():
        assert entries == ["Q11", "Q22", "Q12", "U12"]

    assert summary["calibration"]
    assert summary["calibration_max_residual"] <= 1e-8

    disputed = [rec for rec in records if rec["entry"] == "Q11"]
    assert all(rec["abs_difference"] > 1.0 for rec in disputed)
    notes = " ".join(summary["notes"])
    assert "offset" in notes
    assert "defect of the reference layer" in notes


def test_criterion_11_cli_contract(tmp_path, capsys):
    """Byte-identical reruns, exit codes 0/1/2, JSON round-trip."""
    balanced = {
        "model": {
            "r": 0.5, "q": 0.0, "beta": 0.0, "theta": PI / 2, "phi": PI / 4,
            "x": 0.5, "alpha": 0.0, "lam1": 0.0, "lam2": 0.0,
        }
    }
    sloppy = {"model": dict(balanced["model"], x=0.0)}
    good = tmp_path / "good.json"
    good.write_text(json.dumps(balanced))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"model": {"r": 0.5}}))
    degenerate = tmp_path / "degenerate.json"
    degenerate.write_text(json.dumps(sloppy))

    assert cli.main(["eval", "--config", str(good)]) == 0
    first = capsys.readouterr().out
    assert cli.main(["eval", "--config", str(good)]) == 0
    second = capsys.readouterr().out
    assert first == second

    parsed = json.loads(first)
    assert json.dumps(parsed, sort_keys=True, indent=2) + "\n" == first
    jet = jacobian_analytic(ModelConfig(r=0.5, x=0.5, **OPT))
    assert parsed["information_matrix"] == [
        [float(v) for v in row] for row in qfi_matrix(jet)
    ]

    assert cli.main(["eval", "--config", str(bad)]) == 1
    capsys.readouterr()
    assert cli.main(["eval", "--config", str(degenerate)]) == 2
    capsys.readouterr()
