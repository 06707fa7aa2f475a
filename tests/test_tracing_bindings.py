"""Every qll name that the benchmark's span tracer wraps must exist."""

import importlib
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import tracing  # noqa: E402


@pytest.mark.parametrize("layer", sorted(tracing.FUNCTIONS))
def test_traced_function_exists(layer):
    module, attr = tracing.FUNCTIONS[layer]
    assert callable(getattr(importlib.import_module(module), attr, None))


@pytest.mark.parametrize("layer", sorted(tracing.METHODS))
def test_traced_method_exists(layer):
    module, cls, method = tracing.METHODS[layer]
    assert callable(getattr(importlib.import_module(module), cls).__dict__.get(method))


def test_traced_trial_mesh_exists():
    _, module, attr = tracing.TRIAL_MESH
    assert getattr(importlib.import_module(module), attr) is importlib.import_module(
        "qll.surface").SurfaceMesh
