"""Outside-in tracing of the mzsloppy layers for the benchmark's traced runs.

A Tracer wraps every public function named in LAYERS in a span recorder.
It replaces each binding of the function in the package's modules, both
module attributes (``model.gate_symplectic`` and
``gaussian.gate_symplectic`` are separate bindings) and dict entries (the
CLI dispatch table), so calls made through ``from ... import`` names are
seen too. ``uninstall`` puts every original function object back, so an
untraced run measures the unpatched program.

A span's self time is its duration minus the union of its child spans.
Spans opened on a scan worker thread have no caller on that thread; their
parent is the ``optimize.grid_scan`` span open on another thread. The
children of one parent can overlap in time, which is why the union is
taken rather than the sum.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import threading
import time
from collections import Counter, defaultdict

PACKAGE = "mzsloppy"

# Layer -> traced public functions, the (end-to-end metric, workload)
# pairs that faster code in the layer should move, and the workloads on
# which the layer gets no calls at all.
LAYERS = {
    "gaussian": {
        "functions": ("gate_symplectic", "apply_gate", "apply_circuit", "physicality_check"),
        "moves": (("points_per_s", "scan_numeric"), ("p50_ms", "eval"), ("p50_ms", "compare")),
        "zero_on": ("scan_closed_form", "optimize"),
    },
    "model": {
        "functions": ("evaluate_state", "jacobian_analytic"),
        "moves": (("points_per_s", "scan_numeric"), ("p50_ms", "eval"), ("p50_ms", "compare")),
        "zero_on": ("scan_closed_form", "optimize"),
    },
    "metrology": {
        "functions": (
            "qfi_matrix",
            "uhlmann_matrix",
            "quantumness_general",
            "quantumness_two_param",
            "scalar_crb",
            "sloppiness_report",
        ),
        "moves": (
            ("points_per_s", "scan_numeric"),
            ("points_per_s", "scan_closed_form"),
            ("p50_ms", "optimize"),
        ),
        "zero_on": (),
    },
    "closed_forms": {
        "functions": ("closed_q_matrix", "u12_closed", "landmarks", "compare"),
        "moves": (("points_per_s", "scan_closed_form"), ("p50_ms", "optimize")),
        "zero_on": ("scan_numeric", "eval"),
    },
    "optimize": {
        "functions": (
            "objective_value",
            "grid_scan",
            "refine_local",
            "degenerate_axes",
            "find_known_configurations",
        ),
        "moves": (("points_per_s", "scan_closed_form"), ("p50_ms", "optimize")),
        "zero_on": ("eval", "compare"),
    },
    "cli": {
        "functions": ("main", "run_eval", "run_scan", "run_optimize", "run_compare"),
        "moves": (("points_per_s", "scan_closed_form"), ("p50_ms", "eval")),
        "zero_on": (),
    },
}

# functions whose raised exceptions are counted as `.failed`
FAILURE_COUNTED = ("metrology.quantumness_general", "optimize.objective_value")

GRID_SCAN = "optimize.grid_scan"
REFINE_LOCAL = "optimize.refine_local"


def metric_specs():
    """(name, unit, better) of every per-layer metric, in report order."""
    for layer, spec in LAYERS.items():
        for fn in spec["functions"]:
            base = f"{layer}.{fn}"
            yield f"{base}.calls", "count", "lower"
            yield f"{base}.self_s", "s", "lower"
            if base in FAILURE_COUNTED:
                yield f"{base}.failed", "count", "lower"
    yield f"{REFINE_LOCAL}.iterations", "count", "lower"
    yield f"{REFINE_LOCAL}.improved_ratio", "ratio", "higher"
    yield "trace.overhead_ratio", "ratio", "lower"


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class _Span:
    __slots__ = ("name", "thread", "children")

    def __init__(self, name: str, thread: int):
        self.name = name
        self.thread = thread
        self.children = []


class Tracer:
    """Span recorder over the package's public functions.

    Spans are aggregated when they close: per function the number of
    calls, the summed self time and the number of calls that raised.
    """

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._open_scans: list[_Span] = []
        self._bindings = []  # (module or dict, key, original function)
        self._paused = False
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.failed = Counter()
        self.refine_iterations = 0
        self.refine_improved = 0
        self.worker_spans = 0  # worker-thread spans parented to a grid_scan span
        self.orphan_spans = 0  # worker-thread spans with no parent

    # -- patching ---------------------------------------------------------

    @staticmethod
    def package_modules():
        return [
            mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]

    @staticmethod
    def traced_functions():
        """(dotted name, function object) of every function in LAYERS."""
        for layer, spec in LAYERS.items():
            home = sys.modules[f"{PACKAGE}.{layer}"]
            for fn_name in spec["functions"]:
                yield f"{layer}.{fn_name}", getattr(home, fn_name)

    @staticmethod
    def _package_bindings():
        """(container, key, value, label) of every binding in the package: a
        module attribute, or an entry of a dict held by a module."""
        for mod in Tracer.package_modules():
            for attr, value in list(vars(mod).items()):
                if attr.startswith("__"):
                    continue
                yield mod, attr, value, f"{mod.__name__}.{attr}"
                if isinstance(value, dict):
                    for key, item in list(value.items()):
                        yield value, key, item, f"{mod.__name__}.{attr}[{key!r}]"

    @staticmethod
    def bindings(fn) -> list:
        """(container, key) of every binding of `fn` in the package."""
        return [(c, k) for c, k, value, _ in Tracer._package_bindings() if value is fn]

    @staticmethod
    def _set(container, key, value) -> None:
        if isinstance(container, dict):
            container[key] = value
        else:
            setattr(container, key, value)

    def install(self) -> None:
        if self._bindings:
            raise RuntimeError("tracer is already installed")
        for name, original in list(self.traced_functions()):
            wrapper = self._wrap(name, original)
            for container, key in self.bindings(original):
                self._set(container, key, wrapper)
                self._bindings.append((container, key, original))

    def uninstall(self) -> None:
        for container, key, original in reversed(self._bindings):
            self._set(container, key, original)
        self._bindings = []

    @staticmethod
    def leftover_wrappers() -> list[str]:
        """Bindings in the package that still hold a tracing wrapper."""
        return [
            label
            for _, _, value, label in Tracer._package_bindings()
            if getattr(value, "_bench_traced", False)
        ]

    @contextlib.contextmanager
    def paused(self):
        """Run the benchmark's own checks without recording their calls."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    # -- spans ------------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._paused:
                return fn(*args, **kwargs)
            span, parent = tracer._open(name)
            start = time.perf_counter()
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                tracer._close(span, parent, start, time.perf_counter(), failed)
            if name == REFINE_LOCAL:
                tracer._note_refine(result)
            return result

        traced._bench_traced = True
        return traced

    def _open(self, name: str):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        thread = threading.get_ident()
        parent = stack[-1] if stack else None
        if parent is None and thread != threading.main_thread().ident:
            with self._lock:
                parent = next(
                    (s for s in reversed(self._open_scans) if s.thread != thread), None
                )
                if parent is None:
                    self.orphan_spans += 1
                else:
                    self.worker_spans += 1
        span = _Span(name, thread)
        stack.append(span)
        if name == GRID_SCAN:
            with self._lock:
                self._open_scans.append(span)
        return span, parent

    def _close(self, span: _Span, parent, start: float, end: float, failed: bool):
        self._local.stack.pop()
        with self._lock:
            if span.name == GRID_SCAN:
                self._open_scans.remove(span)
            children = list(span.children)
        self_time = (end - start) - _covered(children)
        with self._lock:
            self.calls[span.name] += 1
            self.self_s[span.name] += self_time
            if failed:
                self.failed[span.name] += 1
            if parent is not None:
                parent.children.append((start, end))

    def _note_refine(self, result) -> None:
        with self._lock:
            self.refine_iterations += int(result.iterations)
            self.refine_improved += int(bool(result.improved))

    # -- report -----------------------------------------------------------

    def metrics(self, overhead_ratio: float) -> dict:
        refine_calls = self.calls[REFINE_LOCAL]
        values = {}
        for name, _, _ in metric_specs():
            base, _, kind = name.rpartition(".")
            if kind == "calls":
                values[name] = self.calls[base]
            elif kind == "self_s":
                values[name] = self.self_s[base]
            elif kind == "failed":
                values[name] = self.failed[base]
        values[f"{REFINE_LOCAL}.iterations"] = self.refine_iterations
        values[f"{REFINE_LOCAL}.improved_ratio"] = (
            self.refine_improved / refine_calls if refine_calls else 0.0
        )
        values["trace.overhead_ratio"] = overhead_ratio
        units = {name: unit for name, unit, _ in metric_specs()}
        return {name: {"value": values[name], "unit": units[name]} for name in units}
