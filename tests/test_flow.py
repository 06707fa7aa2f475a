import dataclasses

import numpy as np
import pytest

from qll import flow
from qll import surface as sf
from qll.criticality import residual_report
from qll.functionals import hawking_energy, hawking_functional


def willmore_config(**kw):
    defaults = dict(mode="willmore", target_area=4.0 * np.pi, residual_tol=1e-5)
    defaults.update(kw)
    return flow.FlowConfig(**defaults)


# -- descent speed: the lambda*-projected residual ---------------------------

def test_speed_vanishes_at_critical_point(grid32, euclidean):
    geom = sf.induced_geometry(euclidean, sf.coordinate_sphere(grid32, 1.0))
    speed = residual_report(euclidean, geom, "willmore").residual_field
    assert np.max(np.abs(speed)) < 1e-6


def test_speed_vanishes_on_hyperboloid_sphere(grid32, hyperboloid):
    geom = sf.induced_geometry(hyperboloid, sf.coordinate_sphere(grid32, 1.0))
    speed = residual_report(hyperboloid, geom, "hawking").residual_field
    assert np.max(np.abs(speed)) < 1e-6


def test_speed_area_neutral_on_ellipsoid(grid32, euclidean):
    geom = sf.induced_geometry(euclidean, sf.ellipsoid(grid32, (1.0, 1.0, 1.1)))
    speed = residual_report(euclidean, geom, "willmore").residual_field
    assert np.max(np.abs(speed)) > 1e-3
    assert abs(sf.integrate(geom, geom.H * speed)) < 1e-10


# -- run_flow ----------------------------------------------------------------

def test_round_sphere_fixed_point(grid32, euclidean):
    state = flow.run_flow(euclidean, willmore_config(),
                          sf.coordinate_sphere(grid32, 1.0))
    assert state.status == "converged"
    assert state.step_index == 0


def test_flow_config_validation():
    with pytest.raises(ValueError):
        flow.FlowConfig(mode="upwind")
    with pytest.raises(ValueError):
        flow.FlowConfig(target_area=-1.0)
    with pytest.raises(ValueError, match="max_steps"):
        flow.FlowConfig(max_steps=-3)
    flow.FlowConfig(max_steps=0)


def test_default_target_area_is_the_initial_area(grid24, euclidean):
    mesh = sf.round_sphere_with_harmonics(grid24, 1.3, [(2, 0, 0.05)])
    area = sf.induced_geometry(euclidean, mesh).area
    assert abs(area - 4.0 * np.pi) > 1.0
    state = flow.run_flow(euclidean, flow.FlowConfig(max_steps=3), mesh)
    assert state.history[0].area == area
    assert state.step_index > 0
    assert abs(state.area - area) <= 1e-8 * area


def test_flow_rejects_far_initial_area(grid32, euclidean):
    with pytest.raises(ValueError):
        flow.run_flow(euclidean, willmore_config(target_area=400.0),
                      sf.coordinate_sphere(grid32, 1.0))


def test_willmore_flow_from_perturbed_sphere(grid32, euclidean):
    mesh = sf.round_sphere_with_harmonics(grid32, 1.0, [(2, 0, 0.05)])
    state = flow.run_flow(euclidean, willmore_config(), mesh)
    assert state.status == "converged"
    geom = sf.induced_geometry(euclidean, state.mesh)
    assert abs(hawking_energy(geom)) < 1e-5
    assert np.max(state.mesh.radius) - np.min(state.mesh.radius) < 1e-4
    functionals = [rec.functional for rec in state.history]
    assert all(b <= a for a, b in zip(functionals, functionals[1:]))
    for rec in state.history[1:]:
        assert abs(rec.area - state.history[0].area) / state.history[0].area < 1e-8


def test_flow_nonaxisymmetric_perturbation(grid32, euclidean):
    # non-axisymmetric data seeds stiff high-degree noise whose functional
    # weight is below the roundoff resolution of the line search, so the
    # residual floor is higher than in the zonal case; the functional itself
    # reaches its minimum and the surface converges to a (possibly
    # translated) round sphere
    mesh = sf.round_sphere_with_harmonics(grid32, 1.0, [(2, 2, 0.03), (3, -1, 0.02)])
    state = flow.run_flow(euclidean, willmore_config(residual_tol=1e-3), mesh)
    assert state.status == "converged"
    assert abs(state.functional - 4.0 * np.pi) < 1e-9
    assert np.max(state.mesh.radius) - np.min(state.mesh.radius) < 5e-3


def test_hawking_flow_on_hyperboloid(grid32, hyperboloid):
    mesh = sf.round_sphere_with_harmonics(grid32, 1.0, [(2, 0, 0.02)])
    cfg = flow.FlowConfig(mode="hawking", target_area=4.0 * np.pi, residual_tol=1e-5)
    state = flow.run_flow(hyperboloid, cfg, mesh)
    assert state.status == "converged"
    geom = sf.induced_geometry(hyperboloid, state.mesh)
    assert abs(hawking_energy(geom)) < 1e-4
    assert state.l2_residual <= 1e-5


def test_flow_stagnates_below_roundoff_floor(grid32, euclidean):
    # tolerance below the floor of the functional: the flow must stop
    # gracefully instead of looping on no-op steps
    mesh = sf.round_sphere_with_harmonics(grid32, 1.0, [(2, 0, 0.02)])
    cfg = willmore_config(residual_tol=1e-14, max_steps=60)
    state = flow.run_flow(euclidean, cfg, mesh)
    assert state.status in ("stagnated", "max_steps")
    assert state.l2_residual < 1e-4


def test_flow_failure_carries_state(paraboloid):
    # rescaling toward the target pushes the mesh across the chart boundary
    from qll.errors import FlowError
    from qll.grids import SphereGrid
    grid = SphereGrid(16, 32)
    mesh = sf.coordinate_sphere(grid, 1.9)
    area = sf.induced_geometry(paraboloid, mesh).area
    cfg = flow.FlowConfig(mode="hawking", target_area=1.45 * area, residual_tol=1e-9)
    with pytest.raises(FlowError) as err:
        flow.run_flow(paraboloid, cfg, mesh)
    assert err.value.state is not None
    assert err.value.state.status == "failed"
    # the state describes the initial mesh, whose area stage alone preceded the rescale
    initial = sf.induced_geometry(paraboloid, mesh)
    assert err.value.state.functional == hawking_functional(initial)
    assert err.value.state.area == initial.area


def test_area_rescale_exact_in_curved_space(grid32, hyperboloid):
    start = sf._area_stage(hyperboloid, sf.coordinate_sphere(grid32, 1.1))
    geom = flow._rescale_to_area(hyperboloid, start, 4.0 * np.pi)
    assert abs(geom.area - 4.0 * np.pi) / (4.0 * np.pi) < 1e-10
    full = sf.induced_geometry(hyperboloid, geom.mesh)
    assert full.area == geom.area
    assert np.array_equal(full.H, geom.H)


def test_flow_builds_only_what_it_reads(grid32, euclidean, monkeypatch):
    # every trial and the initial mesh are completed once; the rescale
    # iterates compute only their area stage, and nothing reads K
    calls = dict.fromkeys(("metric_fn", "dmetric_fn", "trial", "_area_stage",
                           "_rescale_to_area"), 0)

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    def gauss_curvature_read(*args):
        raise AssertionError("the flow computed the Gauss curvature")

    space = dataclasses.replace(euclidean, **{
        name: counted(name, getattr(euclidean, name)) for name in ("metric_fn", "dmetric_fn")})
    monkeypatch.setattr(flow, "SurfaceMesh", counted("trial", sf.SurfaceMesh))
    for owner, name in ((sf, "_area_stage"), (flow, "_rescale_to_area")):
        monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
    monkeypatch.setattr(sf, "_gauss_curvature_intrinsic", gauss_curvature_read)

    mesh = sf.round_sphere_with_harmonics(grid32, 1.0, [(2, 0, 0.05)])
    state = flow.run_flow(space, willmore_config(), mesh)
    assert state.status == "converged"
    assert calls["_rescale_to_area"] == calls["trial"] + 1
    assert calls["dmetric_fn"] == calls["_rescale_to_area"]
    assert calls["metric_fn"] == calls["_area_stage"]
    assert calls["_area_stage"] > calls["_rescale_to_area"]
