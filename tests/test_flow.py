import dataclasses

import numpy as np
import pytest

from qll import flow
from qll import surface as sf
from qll.ambient import catalog
from qll.criticality import radial_rate, residual_report
from qll.functionals import hawking_energy, hawking_functional
from qll.grids import SphereGrid
from qll.harmonics import HarmonicTransform


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
    # non-axisymmetric data reaches the same 1e-5 residual as the zonal case:
    # the band-limited radius rate puts no pole-row content above the harmonic
    # band into the mesh; the surface converges to a (possibly translated)
    # round sphere
    mesh = sf.round_sphere_with_harmonics(grid32, 1.0, [(2, 2, 0.03), (3, -1, 0.02)])
    state = flow.run_flow(euclidean, willmore_config(residual_tol=1e-5), mesh)
    assert state.status == "converged"
    assert abs(state.functional - 4.0 * np.pi) < 1e-9
    assert np.max(state.mesh.radius) - np.min(state.mesh.radius) < 5e-3


# (space, catalog params, radius, mode, perturbations): the non-zonal seeds of
# the flow_solve benchmark, unrotated; they stagnate if the radius rate keeps
# its pole-row content above the harmonic band
MIXED_SEEDS = {
    "euclidean-willmore": ("euclidean", {}, 1.0, "willmore", [(2, 2, 0.03), (3, -1, 0.02)]),
    "schwarzschild-willmore": ("schwarzschild", {"m": 1.0}, 4.0, "willmore",
                               [(2, 2, 0.03), (3, -1, 0.02)]),
    "hyperbolic-hawking": ("hyperbolic", {"a": 1.0}, 1.0, "hawking",
                           [(2, -2, 0.03), (3, 1, 0.02)]),
    "hyperboloid-hawking": ("hyperboloid", {"a": 1.0}, 1.0, "hawking",
                            [(2, 1, 0.02), (3, 2, 0.01)]),
}


@pytest.mark.parametrize("shape", [(32, 64), (48, 96)], ids=lambda s: f"{s[0]}x{s[1]}")
@pytest.mark.parametrize("seed", sorted(MIXED_SEEDS))
def test_mixed_seed_flow_converges(seed, shape):
    name, params, r0, mode, perts = MIXED_SEEDS[seed]
    space = catalog(name, **params)
    target = 4.0 * np.pi * r0 ** 2
    mesh = sf.round_sphere_with_harmonics(SphereGrid(*shape), r0, perts)
    state = flow.run_flow(space, flow.FlowConfig(mode=mode, target_area=target,
                                                 residual_tol=1e-5), mesh)
    assert state.status == "converged"
    geom = sf.induced_geometry(space, state.mesh)
    assert residual_report(space, geom, mode).l2_residual <= 1e-5
    functionals = [rec.functional for rec in state.history]
    assert all(b <= a for a, b in zip(functionals, functionals[1:]))
    assert all(abs(rec.area - target) <= 1e-8 * target for rec in state.history)


def test_accepted_step_is_band_limited(grid32, euclidean):
    # one accepted step from a band-limited mesh changes the radius only
    # inside the harmonic band, although the rate that radial_rate realises
    # on the pole rows is not band-limited
    mesh = sf.round_sphere_with_harmonics(grid32, 1.0, [(2, 2, 0.03), (3, -1, 0.02)])
    target = 4.0 * np.pi
    start = flow._rescale_to_area(euclidean, sf._area_stage(euclidean, mesh), target)
    state = flow.run_flow(euclidean, willmore_config(max_steps=1), mesh)
    assert state.step_index == 1
    transform = grid32.harmonic_transform
    ones = np.ones(transform.lmax + 1)
    step = state.mesh.radius - start.mesh.radius
    assert np.max(np.abs(step)) > 1e-4
    assert np.max(np.abs(transform.filtered(step, ones) - step)) <= 1e-13
    speed = residual_report(euclidean, start, "willmore").residual_field
    rate = radial_rate(start, speed)
    assert np.max(np.abs(transform.filtered(rate, ones) - rate)) > 1e-6 * np.max(np.abs(rate))


def test_flows_on_one_grid_share_its_transform(euclidean, monkeypatch):
    built = []
    init = HarmonicTransform.__init__
    monkeypatch.setattr(HarmonicTransform, "__init__",
                        lambda self, grid: built.append(grid) or init(self, grid))
    grid = SphereGrid(16, 32)
    mesh = sf.round_sphere_with_harmonics(grid, 1.0, [(2, 0, 0.05)])
    for _ in range(2):
        assert flow.run_flow(euclidean, willmore_config(max_steps=2), mesh).step_index == 2
    assert built == [grid]
    assert grid.harmonic_transform is grid.harmonic_transform


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
