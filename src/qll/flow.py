"""Area-constrained L2 gradient descent of the quarter-integral of H^2 - P^2.

The descent speed is the lambda*-projected Euler-Lagrange residual (the
negative constrained gradient up to the overall factor absorbed into the
step size).  Steps are explicit Euler on the radius field with a
backtracking line search on the functional and an exact multiplicative
area rescale after every accepted step.

Plain explicit Euler on a 4th-order parabolic flow would need steps that
scale like (grid spacing)^4; to converge in a practical step budget the
projected residual is smoothed by the SPD spherical-harmonic filter
1 / (1 + tau (l(l+1))^2) before stepping.  This keeps every descent and
fixed-point property (the filter is positive on resolved modes) while
removing the stiffness of the highest modes.
"""

from dataclasses import dataclass, field

import numpy as np

from . import surface as sf
from .criticality import _lambda_star, radial_rate, residual_report
from .errors import ChartDomainError, FlowError, GeometryError, NumericError
from .functionals import hawking_functional
from .harmonics import HarmonicTransform
from .surface import SurfaceMesh

FOUR_PI = 4.0 * np.pi
STEP_GROWTH = 1.2                     # step-size growth after an accepted step


@dataclass
class FlowConfig:
    mode: str = "willmore"            # or "hawking"
    target_area: float = FOUR_PI
    initial_step: float = 0.1         # in units of (area radius)^4
    max_steps: int = 5000
    residual_tol: float = 1e-5
    backtrack_factor: float = 0.5
    max_backtracks: int = 40
    smoothing_tau: float = 0.05       # damping 1 / (1 + tau (l(l+1))^2)

    def __post_init__(self):
        if self.mode not in ("willmore", "hawking"):
            raise ValueError("mode must be 'willmore' or 'hawking'")
        if self.target_area <= 0 or self.residual_tol <= 0:
            raise ValueError("target_area and residual_tol must be positive")
        if not (0.0 < self.backtrack_factor < 1.0):
            raise ValueError("backtracking factor must lie in (0, 1)")
        if not self.initial_step > 0:
            raise ValueError("initial_step must be positive")
        if not self.smoothing_tau >= 0:
            raise ValueError("smoothing_tau must be >= 0")
        for name in ("max_steps", "max_backtracks"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")


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
    status: str                       # converged | max_steps | stagnated
    step_index: int
    functional: float
    area: float
    l2_residual: float
    history: list = field(default_factory=list)


def _rescale_to_area(space, geom, target, rtol=1e-12, max_iter=12):
    mesh = geom.mesh
    for _ in range(max_iter):
        c = np.sqrt(target / geom.area)
        if abs(c - 1.0) < rtol:
            break
        mesh = mesh.scaled(c)
        geom = sf.induced_geometry(space, mesh)
    if abs(geom.area - target) > 1e-8 * target:
        raise NumericError("area rescale did not converge to the target")
    return mesh, geom


def run_flow(space, config, initial_mesh):
    grid = initial_mesh.grid
    geom = sf.induced_geometry(space, initial_mesh)
    if abs(geom.area - config.target_area) > 0.5 * config.target_area:
        raise ValueError("initial area differs from target_area by more than 50%")
    try:
        mesh, geom = _rescale_to_area(space, geom, config.target_area)
    except (ChartDomainError, GeometryError, NumericError) as exc:
        state = FlowState(initial_mesh, "failed", 0, hawking_functional(geom),
                          geom.area, float("nan"), [])
        raise FlowError(f"initial mesh cannot reach the target area: {exc}",
                        state=state) from exc

    transform = HarmonicTransform(grid)
    ell = np.arange(transform.lmax + 1, dtype=float)
    damping = 1.0 / (1.0 + config.smoothing_tau * (ell * (ell + 1.0)) ** 2)
    rbar4 = (config.target_area / FOUR_PI) ** 2
    dt = config.initial_step * rbar4
    dt_max = 16.0 * config.initial_step * rbar4

    functional = hawking_functional(geom)
    history = []
    status = "max_steps"
    step = 0
    while True:
        rep = residual_report(space, geom, config.mode)
        history.append(FlowRecord(step, functional, geom.area, rep.l2_residual,
                                  dt / rbar4))
        if rep.l2_residual <= config.residual_tol:
            status = "converged"
            break
        if step >= config.max_steps:
            break

        speed = transform.filtered(rep.residual_field, damping)
        # the lambda* projection alpha -> alpha - H int(H alpha) / int(H^2)
        # enforces the area constraint int(H alpha) dmu = 0
        speed = speed + _lambda_star(geom, speed) * geom.H
        rate = radial_rate(geom, speed)

        accepted = False
        degenerate_only = True
        stalled = False
        radius_scale = float(np.max(np.abs(mesh.radius)))
        trial_dt = dt
        for _ in range(config.max_backtracks + 1):
            if trial_dt * float(np.max(np.abs(rate))) <= 1e-15 * radius_scale:
                # step no longer changes the mesh at float resolution
                stalled = True
                break
            new_radius = mesh.radius + trial_dt * rate
            if np.any(new_radius <= 0.0):
                trial_dt *= config.backtrack_factor
                continue
            try:
                trial_geom = sf.induced_geometry(space, SurfaceMesh(grid, new_radius, mesh.center))
                trial_mesh, trial_geom = _rescale_to_area(space, trial_geom, config.target_area)
                trial_functional = hawking_functional(trial_geom)
            except (ChartDomainError, GeometryError, NumericError):
                trial_dt *= config.backtrack_factor
                continue
            degenerate_only = False
            if trial_functional <= functional:
                mesh, geom, functional = trial_mesh, trial_geom, trial_functional
                dt = min(trial_dt * STEP_GROWTH, dt_max)
                accepted = True
                break
            trial_dt *= config.backtrack_factor
        if not accepted:
            if degenerate_only and not stalled:
                state = FlowState(mesh, "failed", step, functional, geom.area,
                                  rep.l2_residual, history)
                raise FlowError("mesh degenerated during flow", state=state)
            status = "stagnated"
            break
        step += 1

    return FlowState(mesh=mesh, status=status, step_index=step,
                     functional=functional, area=geom.area,
                     l2_residual=history[-1].residual, history=history)
