"""The benchmark's tracer wraps program functions by module and attribute
name (perfbench/layers.py). A rename in the program would leave a layer
unwrapped, so it would read zero calls and the traced benchmark run would
fail; these tests catch that at tier-1 instead."""

import importlib.util
from pathlib import Path

import wcsf.flow

LAYERS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers",
                                                  LAYERS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_site_resolves():
    layers = load_layers()
    missing = [(module, attr) for _, module, attr in layers.SITES
               if layers._resolve(module, attr) is None]
    assert missing == []


def test_untraced_rhs_counter_target_exists():
    # the untraced run counts RHS evaluations by replacing this name
    assert callable(getattr(wcsf.flow, "compute_fields", None))
