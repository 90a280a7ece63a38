"""Gaussian two-mode interferometer metrology engine.

Layers, bottom up: `gaussian` (states, gates, symplectic transport),
`model` (the squeezer-mixer-squeezer interferometer and its parameter
derivatives), `metrology` (information matrix, curvature, quantumness,
scalar bounds, sloppiness), `closed_forms` (verbatim reference expressions
and the cross-check), `optimize` (grid search and recovery of reference
configurations), `cli` (the mzsloppy command).
"""

from .exceptions import SloppyModelError
from .gaussian import (
    BeamSplitter,
    Displacement,
    GaussianState,
    PhaseRotation,
    Squeezer,
    apply_circuit,
    apply_gate,
    gate_symplectic,
    physicality_check,
    symplectic_eigenvalues,
    symplectic_form,
)
from .model import (
    ModelConfig,
    ModelJet,
    build_mz_model,
    evaluate_state,
    jacobian_analytic,
)
from .metrology import (
    ScalarBounds,
    SloppinessReport,
    default_threshold,
    qfi_matrix,
    quantumness_general,
    quantumness_two_param,
    scalar_crb,
    sloppiness_report,
    uhlmann_matrix,
)
from .closed_forms import (
    ENTRIES,
    Comparison,
    compare,
    f12,
    f22,
    landmarks,
    q11_closed,
    q12_closed,
    q22_closed,
    u12_closed,
)
from .optimize import (
    Axis,
    Objective,
    RefineResult,
    ScanResult,
    SearchSpec,
    find_known_configurations,
    fold_angles,
    grid_scan,
    objective_value,
    refine_local,
)

__version__ = "0.1.0"

__all__ = [
    "Axis",
    "BeamSplitter",
    "Comparison",
    "Displacement",
    "ENTRIES",
    "GaussianState",
    "ModelConfig",
    "ModelJet",
    "Objective",
    "PhaseRotation",
    "RefineResult",
    "ScalarBounds",
    "ScanResult",
    "SearchSpec",
    "SloppinessReport",
    "SloppyModelError",
    "Squeezer",
    "apply_circuit",
    "apply_gate",
    "build_mz_model",
    "compare",
    "default_threshold",
    "evaluate_state",
    "f12",
    "f22",
    "find_known_configurations",
    "fold_angles",
    "gate_symplectic",
    "grid_scan",
    "jacobian_analytic",
    "landmarks",
    "objective_value",
    "physicality_check",
    "q11_closed",
    "q12_closed",
    "q22_closed",
    "qfi_matrix",
    "quantumness_general",
    "quantumness_two_param",
    "refine_local",
    "scalar_crb",
    "sloppiness_report",
    "symplectic_eigenvalues",
    "symplectic_form",
    "u12_closed",
    "uhlmann_matrix",
    "__version__",
]
