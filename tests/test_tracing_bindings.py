"""Every qll name that the benchmark's span tracer wraps must exist, and a flow's
surface work must fall inside the spans that name it."""

import importlib
import os
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import tracing  # noqa: E402
from qll import flow  # noqa: E402
from qll import surface as sf  # noqa: E402
from qll.ambient import catalog  # noqa: E402
from qll.grids import SphereGrid  # noqa: E402


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


def test_flow_rescale_iterates_are_traced_as_surface_work(monkeypatch):
    # every area stage of a chain flow, rescale iterates included, is built inside
    # an induced_geometry span, except the one whose area run_flow reads
    tracer = tracing.Tracer()
    area_stage = sf._area_stage
    inside = []

    def recorded(space, mesh):
        inside.append(any(tracer.spans[i]["name"] == "surface.induced_geometry"
                          for i in tracer._stack))
        return area_stage(space, mesh)

    monkeypatch.setattr(sf, "_area_stage", recorded)
    mesh = sf.round_sphere_with_harmonics(SphereGrid(48, 96), 4.0, [(2, 2, 0.03), (3, -1, 0.02)])
    config = flow.FlowConfig(mode="willmore", target_area=64.0 * np.pi, residual_tol=1e-5)
    with tracer.recording():
        state = flow.run_flow(catalog("schwarzschild", m=1.0), config, mesh)
    assert state.status == "converged" and state.history[0].step > 0
    assert len(inside) > 100
    assert inside == [False] + [True] * (len(inside) - 1)
