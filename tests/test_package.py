"""The package's public names: `__all__`, and the functions the benchmark's
tracer looks up by name in each layer module (benchmarks/tracing.py)."""

import importlib
import importlib.util
from pathlib import Path

import pytest

import mzsloppy


def traced_functions():
    """(layer, function name) of every entry of the tracer's LAYERS."""
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"
    spec = importlib.util.spec_from_file_location("benchmark_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [(layer, fn) for layer, entry in tracing.LAYERS.items() for fn in entry["functions"]]


def test_every_name_in_all_resolves():
    namespace = {}
    exec("from mzsloppy import *", namespace)
    assert [name for name in mzsloppy.__all__ if name not in namespace] == []


@pytest.mark.parametrize("layer, name", traced_functions())
def test_every_function_the_benchmark_traces_resolves(layer, name):
    # the tracer getattrs each one on its layer module, so a removal that
    # breaks the benchmark fails here too
    assert callable(getattr(importlib.import_module(f"mzsloppy.{layer}"), name, None))
