"""Area-constrained L2 gradient descent of the quarter-integral of H^2 - P^2.

The descent speed is the lambda*-projected Euler-Lagrange residual (the
negative constrained gradient up to the overall factor absorbed into the
step size).  Steps are explicit Euler on the radius field with a
backtracking line search on the functional.  Every trial mesh is rescaled
multiplicatively to the target area before its functional is compared, by
induced_geometry given that area: the rescale iterates compute only their
area stage, and only the final, rescaled mesh gets its full geometry.

Plain explicit Euler on a 4th-order parabolic flow would need steps that
scale like (grid spacing)^4; to converge in a practical step budget the
projected residual is smoothed by the SPD spherical-harmonic filter
1 / (1 + tau (l(l+1))^2) before stepping.  This keeps every descent and
fixed-point property (the filter is positive on resolved modes) while
removing the stiffness of the highest modes.

The radius rate that realises the smoothed speed is then projected onto
the same harmonic band (the grid's cached HarmonicTransform with unit
weights).  On the pole rows the rate carries content at phi wavenumbers
above the band, which the smoothed speed cannot control; the projection
drops it, so every accepted step changes the radius inside the band.  The
stop test still reads the full L2 residual, and the line search still
accepts a trial only if the functional does not rise, so F stays monotone.

A flow descends first on a chain of coarser grids, each the half grid
(ntheta//2, 2*(nphi//4)) of the one above it, as in the nested iteration of
full multigrid: 48x96 -> 24x48 -> 12x24, 64x128 -> 32x64 -> 16x32.  A level
joins the chain when it has at least COARSE_MIN_NTHETA rows and the radius
on the level above lies in its band: the L2 share of that radius outside
the level's degrees and orders, counting what the analysis on the level
above cannot see, is at most BAND_RTOL.  Every level solves the same problem
(mode, residual_tol and the target area, which is the area on the requested
grid): it is continued from the level below, its mesh prolonged by
zero-padding the coefficients, which is exact because every accepted step is
band-limited, and runs the same descent, whose stop test gives that level's
verdict; the requested grid's gives the flow's.  Restriction and
prolongation are the one transfer SurfaceMesh.resampled (harmonics.resample),
whose share the band guard reads.  max_steps bounds the steps of all levels
together.  The history holds only the requested grid's records, so F is
compared on one quadrature and stays monotone over it; their step numbers
continue from the steps taken before them, on the coarser levels and in a
stalled continuation (see below), so the first record is the step at which
the requested grid's descent began.  One rule recovers the chain: the level
descends directly from its own mesh, counting on from the steps taken
before.  It applies when a coarser level or the prolongation of its mesh
raises (the failed level's steps count when its FlowError carries them), so
the chain adds no failure mode, and when the requested grid stagnates after
the chain, whatever the verdict of the level below.  The requested grid's
descent, from the prolonged mesh's area stage on, raises as a direct one does.

A flow holds one surface at a time.  Its levels hand each other meshes, and
every area stage is built inside induced_geometry, except the one whose area
run_flow reads.  The line search holds the current mesh, functional, area and
residual, not the geometry they came from; a rejected trial is freed before
the next one is built, and an accepted one is held only as the next step's
geometry.
"""

from dataclasses import dataclass, field

import numpy as np

from . import surface as sf
from .criticality import MODES, _lambda_star, radial_rate, residual_report
from .errors import ChartDomainError, FlowError, GeometryError, NumericError, QLLError
from .functionals import hawking_functional
from .surface import SurfaceMesh

FOUR_PI = 4.0 * np.pi
INITIAL_STEP = 0.1                    # first step, in units of (area radius)^4
STEP_GROWTH = 1.2                     # step-size growth after an accepted step
BACKTRACK_FACTOR = 0.5                # step-size cut after a rejected trial
MAX_BACKTRACKS = 40                   # rejected trials before a step stagnates
SMOOTHING_TAU = 0.05                  # damping 1 / (1 + tau (l(l+1))^2)
COARSE_MIN_NTHETA = 12                # fewest theta rows of a coarse level (8 rows stall)
BAND_RTOL = 1e-12                     # L2 share of a radius outside a coarse level's band


@dataclass
class FlowConfig:
    """What a flow solves (mode, target_area) and when it stops."""

    mode: str = "willmore"            # or "hawking"
    target_area: float = None         # None means the initial mesh's area
    max_steps: int = 5000
    residual_tol: float = 1e-5

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        # chained comparisons, so that nan fails them too
        if not (self.target_area is None or 0 < self.target_area < np.inf):
            raise ValueError("target_area must be positive and finite")
        if not 0 < self.residual_tol < np.inf:
            raise ValueError("residual_tol must be positive and finite")
        if self.max_steps < 0:
            raise ValueError("max_steps must be >= 0")


@dataclass
class FlowRecord:
    step: int
    functional: float
    area: float
    residual: float
    step_size: float


@dataclass
class FlowState:
    mesh: SurfaceMesh
    status: str                       # converged | max_steps | stagnated | failed
    step_index: int
    functional: float
    area: float
    l2_residual: float
    history: list = field(default_factory=list)   # the requested grid's records


def _restricted(mesh):
    """mesh on its grid's coarse grid, or None when that level does not join the chain.

    The level joins when it has at least COARSE_MIN_NTHETA rows and at most
    BAND_RTOL of the radius (its L2 share) lies outside the level's band.
    """
    grid = mesh.grid
    if grid.ntheta // 2 < COARSE_MIN_NTHETA or grid.nphi < 16:   # SphereGrid needs nphi >= 8
        return None
    try:
        coarse, share = mesh.resampled(grid.coarse_grid)
    except GeometryError:
        return None
    return coarse if share <= BAND_RTOL else None


def run_flow(space, config, initial_mesh):
    area = sf._area_stage(space, initial_mesh).area
    target = area if config.target_area is None else config.target_area
    if abs(area - target) > 0.5 * target:
        raise ValueError("initial area differs from target_area by more than 50%")
    return _solve(space, config, initial_mesh, target)


def _solve(space, config, mesh, target, requested=True):
    """The flow of mesh on its grid, continued from the coarser levels."""
    step = 0
    coarse = _restricted(mesh)
    if coarse is not None:
        try:
            below = _solve(space, config, coarse, target, False)
            step = below.step_index
            prolonged = below.mesh.resampled(mesh.grid)[0]
        except FlowError as exc:      # the direct descent below counts on from the failure
            if exc.state is not None:
                step = exc.state.step_index
        except QLLError:
            pass
        else:
            state = _descend(space, config, prolonged, target, step)
            if not (requested and state.status == "stagnated"):
                return state
            step = state.step_index   # the chain stalled: descend directly
    return _descend(space, config, mesh, target, step)


def _descend(space, config, mesh, target, step=0):
    """The descent on the grid of mesh, its first record numbered step.

    config.max_steps bounds the step numbers, so it bounds the steps of every
    level together.  A step is accepted, rejected, stalled or degenerate (every
    trial raised); a degenerate step raises, a rejected or stalled one stagnates.
    """
    grid = mesh.grid
    history = []
    try:
        geom = sf.induced_geometry(space, mesh, target)
    except (ChartDomainError, GeometryError, NumericError) as exc:
        geom = sf.induced_geometry(space, mesh)
        state = FlowState(mesh, "failed", step, hawking_functional(geom), geom.area,
                          float("nan"), history)
        raise FlowError(f"initial mesh cannot reach the target area: {exc}",
                        state=state) from exc

    transform = grid.harmonic_transform
    ones = np.ones(transform.lmax + 1)
    ell = np.arange(transform.lmax + 1, dtype=float)
    damping = 1.0 / (1.0 + SMOOTHING_TAU * (ell * (ell + 1.0)) ** 2)
    rbar4 = (target / FOUR_PI) ** 2
    dt = INITIAL_STEP * rbar4
    dt_max = 16.0 * INITIAL_STEP * rbar4

    functional = hawking_functional(geom)
    status = "max_steps"
    while True:
        mesh, area = geom.mesh, geom.area
        rep = residual_report(space, geom, config.mode)
        residual = rep.l2_residual
        history.append(FlowRecord(step, functional, area, residual, dt / rbar4))
        if residual <= config.residual_tol:
            status = "converged"
            break
        if step >= config.max_steps:
            break

        speed = transform.filtered(rep.residual_field, damping)
        # the lambda* projection alpha -> alpha - H int(H alpha) / int(H^2)
        # enforces the area constraint int(H alpha) dmu = 0
        speed = speed + _lambda_star(geom, speed) * geom.H
        rate = transform.filtered(radial_rate(geom, speed), ones)
        geom = rep = speed = None       # freed before the trials are built

        outcome = "degenerate"          # until a trial builds
        radius_scale = float(np.max(np.abs(mesh.radius)))
        trial_dt = dt
        for _ in range(MAX_BACKTRACKS + 1):
            if trial_dt * float(np.max(np.abs(rate))) <= 1e-15 * radius_scale:
                # step no longer changes the mesh at float resolution
                outcome = "stalled"
                break
            new_radius = mesh.radius + trial_dt * rate
            try:
                trial = sf.induced_geometry(space, SurfaceMesh(grid, new_radius, mesh.center),
                                            target)
                trial_functional = hawking_functional(trial)
            except (ChartDomainError, GeometryError, NumericError):
                trial_dt *= BACKTRACK_FACTOR
                continue
            if trial_functional <= functional:
                # geom alone holds the accepted surface, freed before the next trials
                geom, functional, trial = trial, trial_functional, None
                dt = min(trial_dt * STEP_GROWTH, dt_max)
                outcome = "accepted"
                break
            outcome = "rejected"
            trial = None                # freed before the next trial is built
            trial_dt *= BACKTRACK_FACTOR
        if outcome == "degenerate":
            state = FlowState(mesh, "failed", step, functional, area, residual, history)
            raise FlowError("mesh degenerated during flow", state=state)
        if outcome != "accepted":
            status = "stagnated"
            break
        step += 1

    return FlowState(mesh=mesh, status=status, step_index=step, functional=functional,
                     area=area, l2_residual=residual, history=history)
