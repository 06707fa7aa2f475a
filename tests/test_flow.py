import dataclasses
import functools

import numpy as np
import pytest

from qll import flow
from qll import surface as sf
from qll.ambient import catalog
from qll.criticality import radial_rate, residual_report
from qll.errors import FlowError, GeometryError
from qll.functionals import energy_report, hawking_energy, hawking_functional
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
    # nan passes a `<= 0` test, so finiteness is checked on its own
    for bad in (dict(residual_tol=np.nan), dict(residual_tol=np.inf),
                dict(target_area=np.nan), dict(target_area=np.inf)):
        with pytest.raises(ValueError, match="finite"):
            flow.FlowConfig(**bad)


def test_default_target_area_is_the_initial_area(grid24, euclidean):
    # 16x32 has no coarse level, so its first record is the initial surface
    mesh = sf.round_sphere_with_harmonics(SphereGrid(16, 32), 1.3, [(2, 0, 0.05)])
    area = sf.induced_geometry(euclidean, mesh).area
    assert abs(area - 4.0 * np.pi) > 1.0
    state = flow.run_flow(euclidean, flow.FlowConfig(max_steps=3), mesh)
    assert state.history[0].step == 0
    assert state.history[0].area == area
    assert state.step_index > 0
    assert abs(state.area - area) <= 1e-8 * area
    # 24x48 descends on 12x24 first; its records keep the requested grid's area
    mesh = sf.round_sphere_with_harmonics(grid24, 1.3, [(2, 0, 0.05)])
    area = sf.induced_geometry(euclidean, mesh).area
    state = flow.run_flow(euclidean, flow.FlowConfig(max_steps=3), mesh)
    assert state.history[0].step > 0
    assert all(abs(rec.area - area) <= 1e-8 * area for rec in state.history)


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
# the zonal seeds of the flow_solve benchmark
ZONAL_SEEDS = {
    "euclidean-willmore-zonal": ("euclidean", {}, 1.0, "willmore", [(2, 0, 0.05)]),
    "schwarzschild-hawking-zonal": ("schwarzschild", {"m": 1.0}, 4.0, "hawking",
                                    [(2, 0, 0.03)]),
    "hyperbolic-willmore-zonal": ("hyperbolic", {"a": 1.0}, 1.0, "willmore", [(2, 0, 0.03)]),
    "hyperboloid-hawking-zonal": ("hyperboloid", {"a": 1.0}, 1.0, "hawking", [(2, 0, 0.02)]),
}
FLOW_SOLVE_SEEDS = {**ZONAL_SEEDS, **MIXED_SEEDS}


def seed_problem(seed, shape):
    """(space, config, initial mesh) of a flow_solve seed on a grid of this shape."""
    name, params, r0, mode, perts = FLOW_SOLVE_SEEDS[seed]
    config = flow.FlowConfig(mode=mode, target_area=4.0 * np.pi * r0 ** 2, residual_tol=1e-5)
    mesh = sf.round_sphere_with_harmonics(SphereGrid(*shape), r0, perts)
    return catalog(name, **params), config, mesh


def assert_converged_flow(space, config, state):
    """Converged, with F monotone over the history and every area at the target."""
    assert state.status == "converged"
    geom = sf.induced_geometry(space, state.mesh)
    assert residual_report(space, geom, config.mode).l2_residual <= config.residual_tol
    functionals = [rec.functional for rec in state.history]
    assert all(b <= a for a, b in zip(functionals, functionals[1:]))
    target = config.target_area
    assert all(abs(rec.area - target) <= 1e-8 * target for rec in state.history)


@pytest.mark.parametrize("shape", [(32, 64), (48, 96), (64, 128)],
                         ids=lambda s: f"{s[0]}x{s[1]}")
@pytest.mark.parametrize("seed", sorted(MIXED_SEEDS))
def test_mixed_seed_flow_converges(seed, shape):
    space, config, mesh = seed_problem(seed, shape)
    state = flow.run_flow(space, config, mesh)
    assert_converged_flow(space, config, state)
    # the coarse stage ran; the history holds the requested grid's records
    assert state.history[0].step > 0


def test_accepted_step_is_band_limited(grid32, euclidean):
    # one accepted step of the descent on a grid, from a band-limited mesh,
    # changes the radius only inside the harmonic band, although the rate
    # that radial_rate realises on the pole rows is not band-limited
    mesh = sf.round_sphere_with_harmonics(grid32, 1.0, [(2, 2, 0.03), (3, -1, 0.02)])
    target = 4.0 * np.pi
    stage = sf._area_stage(euclidean, mesh)
    start = flow._rescale_to_area(euclidean, stage, target)
    state = flow._descend(euclidean, willmore_config(max_steps=1), stage, target)
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


# -- the coarse stage ----------------------------------------------------------

def test_flows_on_one_grid_share_its_coarse_grid(euclidean, monkeypatch):
    built = []
    init = SphereGrid.__init__
    monkeypatch.setattr(SphereGrid, "__init__",
                        lambda self, *shape: built.append(shape) or init(self, *shape))
    # 32x64 has one coarse level (8 rows are below the floor), 48x96 two
    for shape, chain in (((32, 64), [(32, 64), (16, 32)]),
                         ((48, 96), [(48, 96), (24, 48), (12, 24)])):
        built.clear()
        grid = SphereGrid(*shape)
        mesh = sf.round_sphere_with_harmonics(grid, 1.0, [(2, 0, 0.05)])
        for _ in range(2):
            assert flow.run_flow(euclidean, willmore_config(), mesh).history[0].step > 0
        assert built == chain
        assert grid.coarse_grid is grid.coarse_grid


def test_mesh_above_the_coarse_band_is_solved_directly(grid32, euclidean):
    # Y_20,0 lies in the 32x64 band (degrees <= 31), not in 16x32's (<= 15)
    mesh = sf.round_sphere_with_harmonics(grid32, 1.0, [(20, 0, 0.002)])
    assert flow._restricted(mesh) is None
    state = flow.run_flow(euclidean, willmore_config(max_steps=2), mesh)
    assert state.step_index == 2
    assert state.history[0].step == 0
    assert [rec.step for rec in state.history] == [0, 1, 2]
    # the same mesh with its Y_20,0 content at roundoff takes the coarse stage
    mesh = sf.round_sphere_with_harmonics(grid32, 1.0, [(20, 0, 1e-14), (2, 0, 0.05)])
    assert flow._restricted(mesh) is not None


def test_max_steps_bounds_both_stages(grid32, euclidean):
    mesh = sf.round_sphere_with_harmonics(grid32, 1.0, [(2, 0, 0.05)])
    state = flow.run_flow(euclidean, willmore_config(max_steps=3), mesh)
    assert state.status == "max_steps"
    assert state.step_index == state.history[0].step == 3
    # the requested grid records its initial surface and takes no step
    assert [rec.step for rec in state.history] == [3]
    assert state.l2_residual == state.history[-1].residual > 1e-5


def test_band_guard_admits_a_seed_mesh_at_128x256():
    # a restrict-then-prolong round trip reads the transform's own roundoff,
    # above BAND_RTOL at 128 rows; the share outside the band reads ~2e-13
    _, _, mesh = seed_problem("schwarzschild-willmore", (128, 256))
    coarse = flow._restricted(mesh)
    assert coarse is not None
    assert coarse.grid is mesh.grid.coarse_grid


def test_coarse_stage_failure_falls_back_to_the_direct_solve(grid32, euclidean, monkeypatch):
    descend = flow._descend
    coarse = []

    def failing_on_coarse(space, config, stage, target, step=0):
        if stage.mesh.grid is grid32.coarse_grid:
            coarse.append(stage.mesh)
            raise FlowError("mesh degenerated during flow")
        return descend(space, config, stage, target, step)

    monkeypatch.setattr(flow, "_descend", failing_on_coarse)
    mesh = sf.round_sphere_with_harmonics(grid32, 1.0, [(2, 0, 0.05)])
    state = flow.run_flow(euclidean, willmore_config(), mesh)
    assert len(coarse) == 1
    assert state.status == "converged"
    assert state.history[0].step == 0
    assert [rec.step for rec in state.history] == list(range(state.step_index + 1))


def test_max_steps_bounds_all_three_levels(grid48, euclidean):
    mesh = sf.round_sphere_with_harmonics(grid48, 1.0, [(2, 0, 0.05)])
    state = flow.run_flow(euclidean, willmore_config(max_steps=3), mesh)
    assert state.status == "max_steps"
    assert state.step_index == state.history[0].step == 3
    assert [rec.step for rec in state.history] == [3]


def test_failure_on_the_coarsest_level_falls_back_to_the_level_above(grid48, euclidean,
                                                                       monkeypatch):
    # a FlowError on 12x24 makes 24x48 descend directly from its restricted
    # mesh, and 48x96 continues from that solution
    descend = flow._descend
    calls = []

    def failing_on_12_rows(space, config, stage, target, step=0):
        calls.append((stage.mesh.grid.ntheta, step))
        if stage.mesh.grid.ntheta == 12:
            raise FlowError("mesh degenerated during flow")
        return descend(space, config, stage, target, step)

    monkeypatch.setattr(flow, "_descend", failing_on_12_rows)
    mesh = sf.round_sphere_with_harmonics(grid48, 1.0, [(2, 0, 0.05)])
    state = flow.run_flow(euclidean, willmore_config(), mesh)
    assert calls == [(12, 0), (24, 0), (48, state.history[0].step)]
    assert state.history[0].step > 0
    assert_converged_flow(euclidean, willmore_config(), state)


def test_fallback_counts_on_from_the_failed_level(grid48, euclidean, monkeypatch):
    # a FlowError that carries the failed level's state hands its step count
    # to the level above, so max_steps still bounds all levels together
    descend = flow._descend
    calls = []

    def failing_after_12_rows(space, config, stage, target, step=0):
        calls.append((stage.mesh.grid.ntheta, step))
        state = descend(space, config, stage, target, step)
        if stage.mesh.grid.ntheta == 12:
            raise FlowError("mesh degenerated during flow", state=state)
        return state

    monkeypatch.setattr(flow, "_descend", failing_after_12_rows)
    mesh = sf.round_sphere_with_harmonics(grid48, 1.0, [(2, 0, 0.05)])
    state = flow.run_flow(euclidean, willmore_config(), mesh)
    (_, first), (_, after_12), (_, after_24) = calls
    assert first == 0 and after_12 > 0 and after_24 >= after_12
    assert calls[1:] == [(24, after_12), (48, after_24)]
    assert state.history[0].step == after_24
    assert_converged_flow(euclidean, willmore_config(), state)


def stalling(grids, monkeypatch):
    """Patch _descend so the first descent on each of these row counts reads stagnated.

    Returns the (rows, step) of each call and the states the calls returned.
    """
    descend = flow._descend
    calls, states = [], []

    def patched(space, config, stage, target, step=0):
        rows = stage.mesh.grid.ntheta
        calls.append((rows, step))
        state = descend(space, config, stage, target, step)
        if rows in grids and [n for n, _ in calls].count(rows) == 1:
            state.status = "stagnated"
        states.append(state)
        return state

    monkeypatch.setattr(flow, "_descend", patched)
    return calls, states


def test_requested_grid_stalled_after_a_stalled_level_descends_directly(grid48, euclidean,
                                                                       monkeypatch):
    # 24x48 (continued from 12x24) and then 48x96 stagnate: 48x96 descends
    # directly from its own mesh, counting on from its stalled steps
    calls, states = stalling((24, 48), monkeypatch)
    mesh = sf.round_sphere_with_harmonics(grid48, 1.0, [(2, 0, 0.05)])
    state = flow.run_flow(euclidean, willmore_config(), mesh)
    assert [n for n, _ in calls] == [12, 24, 48, 48]
    assert calls[3][1] == states[2].step_index > 0
    assert state is states[3] and state.history[0].step == calls[3][1]
    assert_converged_flow(euclidean, willmore_config(), state)


def test_stalled_levels_are_not_descended_again_without_cause(grid48, grid32, euclidean,
                                                              monkeypatch):
    # a stalled coarser level alone is continued from: its verdict is not the flow's
    calls, _ = stalling((12, 24), monkeypatch)
    mesh = sf.round_sphere_with_harmonics(grid48, 1.0, [(2, 0, 0.05)])
    assert flow.run_flow(euclidean, willmore_config(), mesh).status == "converged"
    assert [n for n, _ in calls] == [12, 24, 48]
    # the requested grid stalled after a stalled level below descends directly
    calls, _ = stalling((16, 32), monkeypatch)
    mesh = sf.round_sphere_with_harmonics(grid32, 1.0, [(2, 0, 0.05)])
    assert flow.run_flow(euclidean, willmore_config(), mesh).status == "converged"
    assert [n for n, _ in calls] == [16, 32, 32]
    # a stalled requested grid after a level below that converged is the flow's verdict
    calls, _ = stalling((32,), monkeypatch)
    assert flow.run_flow(euclidean, willmore_config(), mesh).status == "stagnated"
    assert [n for n, _ in calls] == [16, 32]


def test_rotated_seed_stalled_on_two_coarse_levels_converges():
    # seed 1607's tenth flow_solve cycle: the hyperboloid mixed seed rotated by
    # 3.8901948811856926 rad at 48x96; 12x24 stagnates at 1.41e-5, 24x48
    # continued from it at 1.23e-5, and 48x96 after them at 1.15e-5; 48x96
    # converges when it then descends directly from its own mesh
    perts = [(2, 1, -0.014652818592739519), (2, -1, -0.0136123071993056),
             (3, 2, 0.000735254635586647), (3, -2, 0.009972933401003355)]
    space = catalog("hyperboloid", a=1.0)
    config = flow.FlowConfig(mode="hawking", target_area=4.0 * np.pi, residual_tol=1e-5)
    mesh = sf.round_sphere_with_harmonics(SphereGrid(48, 96), 1.0, perts)
    assert_converged_flow(space, config, flow.run_flow(space, config, mesh))


def test_mesh_with_content_its_analysis_cannot_see_is_solved_directly(grid48, euclidean):
    # the phi Nyquist mode of 48x96 lies outside its harmonic band, so the
    # restriction would drop it unseen; the guard counts it and refuses 24x48
    mesh = sf.round_sphere_with_harmonics(grid48, 1.0, [(2, 0, 0.05)])
    assert flow._restricted(mesh) is not None
    radius = mesh.radius + 1e-6 * np.cos(48 * grid48.phi)[None, :]
    mesh = sf.SurfaceMesh(grid48, radius, mesh.center)
    assert flow._restricted(mesh) is None
    state = flow.run_flow(euclidean, willmore_config(max_steps=2), mesh)
    assert state.history[0].step == 0
    assert [rec.step for rec in state.history] == [0, 1, 2]


def test_failure_on_the_requested_grid_is_not_retried(grid32, euclidean, monkeypatch):
    # after the coarse stage, the requested grid's descent raises as a direct
    # solve does; the flow is not solved again from the initial mesh
    descend = flow._descend
    grids = []

    def failing_on_requested(space, config, stage, target, step=0):
        grids.append(stage.mesh.grid)
        if stage.mesh.grid is grid32:
            raise FlowError("mesh degenerated during flow")
        return descend(space, config, stage, target, step)

    monkeypatch.setattr(flow, "_descend", failing_on_requested)
    mesh = sf.round_sphere_with_harmonics(grid32, 1.0, [(2, 0, 0.05)])
    with pytest.raises(FlowError):
        flow.run_flow(euclidean, willmore_config(), mesh)
    assert grids == [grid32.coarse_grid, grid32]


def raising_trials(grid, monkeypatch):
    """Make the area stage of every trial mesh on grid raise a GeometryError.

    Returns the list of the trial meshes refused.
    """
    refused = []

    class Trial(sf.SurfaceMesh):
        pass

    area_stage = sf._area_stage

    def raising(space, mesh):
        if isinstance(mesh, Trial) and mesh.grid is grid:
            refused.append(mesh)
            raise GeometryError("degenerate trial")
        return area_stage(space, mesh)

    monkeypatch.setattr(flow, "SurfaceMesh", Trial)
    monkeypatch.setattr(sf, "_area_stage", raising)
    return refused


@pytest.mark.parametrize("shape, amplitude, tol", [((16, 32), 0.05, 1e-5),
                                                    ((32, 64), 0.02, 1e-14)],
                         ids=["16x32", "32x64-stalled-chain"])
def test_step_whose_every_trial_raises_raises_with_its_state(shape, amplitude, tol, euclidean,
                                                             monkeypatch):
    # every trial of a step on the requested grid raises: the flow raises a FlowError
    # with that step's state.  16x32 has no coarse level.  On 32x64, below F's
    # roundoff floor, 16x32 stagnates, the continued descent's trials raise and then
    # stall, and the direct descent that follows, numbered on from 16x32's steps, raises
    config = willmore_config(residual_tol=tol)
    grid = SphereGrid(*shape)
    mesh = sf.round_sphere_with_harmonics(grid, 1.0, [(2, 0, amplitude)])
    coarse = flow._restricted(mesh)
    start = 0 if coarse is None else flow._solve(
        euclidean, config, sf._area_stage(euclidean, coarse), config.target_area, False).step_index
    refused = raising_trials(grid, monkeypatch)
    with pytest.raises(FlowError, match="degenerated") as err:
        flow.run_flow(euclidean, config, mesh)
    assert len(refused) >= flow.MAX_BACKTRACKS + 1
    state = err.value.state
    assert state.status == "failed"
    assert state.step_index == start and [rec.step for rec in state.history] == [start]
    assert (start > 0) == (coarse is not None)


def test_step_whose_trials_raise_and_then_stall_stagnates(euclidean, monkeypatch):
    # near the fixed point the backtracked trial step falls below float resolution
    # before the backtracks run out: the step stalls, and the flow stagnates
    grid = SphereGrid(16, 32)
    refused = raising_trials(grid, monkeypatch)
    mesh = sf.round_sphere_with_harmonics(grid, 1.0, [(2, 0, 1e-9)])
    state = flow.run_flow(euclidean, willmore_config(residual_tol=1e-14), mesh)
    assert 0 < len(refused) < flow.MAX_BACKTRACKS + 1
    assert state.status == "stagnated"
    assert state.step_index == 0 and [rec.step for rec in state.history] == [0]


@pytest.mark.parametrize("failing", ["coarse-area-stage", "prolongation"])
def test_coarse_level_raising_a_non_flow_error_descends_directly(failing, grid32, euclidean,
                                                                 monkeypatch):
    # a GeometryError from the coarse level's area stage, or from the prolongation
    # of its solution, makes the requested grid descend directly from its own
    # mesh, counting on from the coarse steps taken before the error
    config = willmore_config()
    mesh = sf.round_sphere_with_harmonics(grid32, 1.0, [(2, 0, 0.05)])
    coarse = sf._area_stage(euclidean, flow._restricted(mesh))
    start = 0 if failing == "coarse-area-stage" else flow._descend(
        euclidean, config, coarse, config.target_area).step_index
    direct = flow._descend(euclidean, config, sf._area_stage(euclidean, mesh),
                           config.target_area, start)
    if failing == "coarse-area-stage":
        area_stage = sf._area_stage

        def raising(space, mesh):
            if mesh.grid is grid32.coarse_grid:
                raise GeometryError("degenerate coarse level")
            return area_stage(space, mesh)

        monkeypatch.setattr(sf, "_area_stage", raising)
    else:
        resampled = sf.SurfaceMesh.resampled

        def raising(mesh, grid):
            if grid is grid32:
                raise GeometryError("degenerate prolongation")
            return resampled(mesh, grid)

        monkeypatch.setattr(sf.SurfaceMesh, "resampled", raising)
    state = flow.run_flow(euclidean, config, mesh)
    assert start > 0 or failing == "coarse-area-stage"
    assert state.status == direct.status == "converged"
    assert state.history == direct.history and state.history[0].step == start
    assert state.mesh.radius.tobytes() == direct.mesh.radius.tobytes()


@pytest.mark.parametrize("seed", sorted(FLOW_SOLVE_SEEDS))
def test_coarse_stage_reaches_the_direct_solution(seed):
    space, config, mesh = seed_problem(seed, (48, 96))
    state = flow.run_flow(space, config, mesh)
    direct = flow._descend(space, config, sf._area_stage(space, mesh), config.target_area)
    assert state.history[0].step > 0
    assert state.status == direct.status == "converged"
    assert abs(state.functional - direct.functional) <= 1e-10


def test_rotated_seed_that_stagnated_converges():
    # seed 901's second flow_solve cycle: the hyperboloid mixed seed rotated
    # by 2.7122882863991946 rad at 48x96 stagnated at 2.98e-5 when every step
    # ran on the requested grid
    perts = [(2, 1, -0.018185110374648386), (2, -1, 0.008324767904383619),
             (3, 2, 0.006534911966907218), (3, -2, -0.007569341159227322)]
    space = catalog("hyperboloid", a=1.0)
    config = flow.FlowConfig(mode="hawking", target_area=4.0 * np.pi, residual_tol=1e-5)
    mesh = sf.round_sphere_with_harmonics(SphereGrid(48, 96), 1.0, perts)
    assert_converged_flow(space, config, flow.run_flow(space, config, mesh))


def test_hawking_flow_on_hyperboloid(grid32, hyperboloid):
    mesh = sf.round_sphere_with_harmonics(grid32, 1.0, [(2, 0, 0.02)])
    cfg = flow.FlowConfig(mode="hawking", target_area=4.0 * np.pi, residual_tol=1e-5)
    state = flow.run_flow(hyperboloid, cfg, mesh)
    assert state.status == "converged"
    geom = sf.induced_geometry(hyperboloid, state.mesh)
    assert abs(hawking_energy(geom)) < 1e-4
    assert state.l2_residual <= 1e-5


# the paper's claims on flowed Hawking surfaces: E_H = 0 on flat data (rigidity),
# E_H = m on Schwarzschild, E_Q = m on Reissner-Nordstrom, E_H >= 0 under the DEC
HAWKING_SURFACE_CASES = {
    "euclidean": (catalog("euclidean"), 1.0, "hawking_energy", 0.0),
    "hyperboloid": (catalog("hyperboloid", a=1.0), 1.0, "hawking_energy", 0.0),
    "paraboloid": (catalog("paraboloid", alpha=0.5), 1.0, "hawking_energy", 0.0),
    "schwarzschild": (catalog("schwarzschild", m=1.0), 4.0, "hawking_energy", 1.0),
    "reissner_nordstrom": (catalog("reissner_nordstrom", m=1.0, q=0.5), 4.0,
                           "charged_energy", 1.0),
}


@pytest.mark.parametrize("shape", [(32, 64), (48, 96)], ids=lambda s: f"{s[0]}x{s[1]}")
@pytest.mark.parametrize("name", sorted(HAWKING_SURFACE_CASES))
def test_energy_on_flowed_hawking_surface(name, shape):
    space, r0, field, expected = HAWKING_SURFACE_CASES[name]
    mesh = sf.round_sphere_with_harmonics(SphereGrid(*shape), r0, [(2, 0, 0.04), (3, 1, 0.02)])
    config = flow.FlowConfig(mode="hawking", target_area=4.0 * np.pi * r0 ** 2,
                             residual_tol=1e-5)
    state = flow.run_flow(space, config, mesh)
    assert state.status == "converged"
    report = energy_report(space, sf.induced_geometry(space, state.mesh))
    assert abs(getattr(report, field) - expected) < 1e-10
    if report.dec_min >= -1e-12:
        assert report.hawking_energy >= -1e-10


# the paper's Lambda statement on flowed Hawking surfaces: E_Lambda = 0 on the space
# forms of scalar curvature 2 Lambda (rigidity), and E_Lambda = m - Lambda r^3 / 6 on
# Schwarzschild, where Sc = 0 >= 2 Lambda (positivity; r is the areal radius).  The
# space forms flow at the perturbed sphere's own area (a hemisphere of radius 1 has
# no sphere of area 4 pi r0^2 for r0 >= 1), Schwarzschild at 64 pi.
LAMBDA_SURFACE_CASES = [
    (name, Lambda, r0, area, shape) for shape in ((32, 64), (48, 96)) for name, Lambda, r0, area in (
        *[("hyperbolic", Lambda, r0, None) for Lambda in (-3.0, -0.75) for r0 in (1.0, 1.5)],
        *[("hemisphere", Lambda, r0, None) for Lambda in (3.0, 0.75) for r0 in (1.0, 1.5)],
        *[("schwarzschild", Lambda, 4.0, 64.0 * np.pi) for Lambda in (-0.03, -0.3)])]
# the coarse-to-fine chain stagnates on these at 1.134e-5 and 1.61e-5, after 13
# steps on 16x32 and 2 on 32x64, where the direct descent converges
LAMBDA_SURFACE_STAGNATED = [("hyperbolic", -3.0, 1.0, None, (32, 64)),
                            ("hemisphere", 0.75, 1.0, None, (32, 64))]


def lambda_case_id(case):
    name, Lambda, r0, _, (ntheta, nphi) = case
    return f"{name}{Lambda:+g}-r{r0:g}-{ntheta}x{nphi}"


@functools.cache
def flowed_lambda_surface(name, Lambda, r0, area, shape):
    """(flow state, energy report with Lambda) of a LAMBDA_SURFACE_CASES flow."""
    space = catalog(name, m=1.0) if name == "schwarzschild" else catalog(name, Lambda=Lambda)
    mesh = sf.round_sphere_with_harmonics(SphereGrid(*shape), r0, [(2, 0, 0.04), (3, 1, 0.02)])
    config = flow.FlowConfig(mode="hawking", target_area=area, residual_tol=1e-5)
    state = flow.run_flow(space, config, mesh)
    return state, energy_report(space, sf.induced_geometry(space, state.mesh), Lambda=Lambda)


@pytest.mark.parametrize("case", LAMBDA_SURFACE_CASES, ids=lambda_case_id)
def test_lambda_energy_on_flowed_hawking_surface(case):
    name, Lambda = case[:2]
    _, report = flowed_lambda_surface(*case)
    r = np.sqrt(report.area / (4.0 * np.pi))
    expected = 1.0 - Lambda * r ** 3 / 6.0 if name == "schwarzschild" else 0.0
    assert abs(report.lambda_energy - expected) < 1e-10


@pytest.mark.parametrize("case", [
    pytest.param(case, marks=pytest.mark.xfail(strict=True))
    if case in LAMBDA_SURFACE_STAGNATED else case for case in LAMBDA_SURFACE_CASES],
    ids=lambda_case_id)
def test_flow_converges_on_lambda_surface_cases(case):
    state, _ = flowed_lambda_surface(*case)
    assert state.status == "converged"
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


def test_trial_with_a_nonpositive_radius_backtracks(euclidean, monkeypatch):
    # a first step of 10 (area radius)^4 drives two trial radii through zero:
    # SurfaceMesh refuses them with a GeometryError and the line search backtracks
    monkeypatch.setattr(flow, "INITIAL_STEP", 10.0)
    nonpositive = []

    def trial_mesh(grid, radius, center):
        nonpositive.append(bool(np.any(radius <= 0.0)))
        return sf.SurfaceMesh(grid, radius, center)

    monkeypatch.setattr(flow, "SurfaceMesh", trial_mesh)
    mesh = sf.round_sphere_with_harmonics(SphereGrid(16, 32), 1.0, [(2, 0, 0.05)])
    state = flow.run_flow(euclidean, willmore_config(), mesh)
    assert sum(nonpositive) == 2
    assert state.step_index == 12
    assert_converged_flow(euclidean, willmore_config(), state)


def test_area_rescale_exact_in_curved_space(grid32, hyperboloid):
    start = sf._area_stage(hyperboloid, sf.coordinate_sphere(grid32, 1.1))
    geom = flow._rescale_to_area(hyperboloid, start, 4.0 * np.pi)
    assert abs(geom.area - 4.0 * np.pi) / (4.0 * np.pi) < 1e-10
    full = sf.induced_geometry(hyperboloid, geom.mesh)
    assert full.area == geom.area
    assert np.array_equal(full.H, geom.H)


def test_flow_builds_only_what_it_reads(grid32, euclidean, monkeypatch):
    # each stage's initial mesh and every trial are completed once; the
    # rescale iterates compute only their area stage, and nothing reads K
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
    assert state.history[0].step > 0
    # one initial rescale per stage, the coarse and the requested grid's
    assert calls["_rescale_to_area"] == calls["trial"] + 2
    assert calls["dmetric_fn"] == calls["_rescale_to_area"]
    assert calls["metric_fn"] == calls["_area_stage"]
    assert calls["_area_stage"] > calls["_rescale_to_area"]
