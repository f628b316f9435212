"""The benchmark's traced mode names only functions that ohmlab still has."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACED = _load_spans().TRACED


@pytest.mark.parametrize("layer,function", [
    (layer, function) for layer, functions in TRACED.items() for function in functions
])
def test_traced_function_resolves(layer, function):
    # Tracer.install looks each name up with getattr and no default, so a
    # missing one would crash every `bench/run.py --trace 1` run
    module = importlib.import_module(f"ohmlab.{layer}")
    assert callable(getattr(module, function))
