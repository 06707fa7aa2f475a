"""Higher-dimensional energies on coordinate spheres of radial models.

A RadialModel is a spherically symmetric n-dimensional initial data set
    g = phi(r) dr^2 + r^2 g_{S^{n-1}},
    k = k_rad(r) phi dr (x) dr + k_tan(r) r^2 g_{S^{n-1}},
on which every quantity entering the n-dimensional Willmore/Hawking
equation and both generalized energies is closed form.  At n = 3 all
values agree with the meshed 3-dimensional modules on the same data.
"""

from dataclasses import dataclass, fields
from math import gamma as gamma_fn

import numpy as np

from . import surface as sf
from .ambient import _lookup, catalog
from .errors import CatalogError, GeometryError, HypothesisError, NumericError
from .functionals import hawking_energy
from .grids import SphereGrid


def unit_sphere_volume(n_minus_1):
    """Volume of the unit round (n-1)-sphere, 2 pi^(n/2) / Gamma(n/2)."""
    n = n_minus_1 + 1
    return 2.0 * np.pi ** (n / 2.0) / gamma_fn(n / 2.0)


@dataclass(frozen=True)
class RadialModel:
    name: str
    n: int
    phi: object
    dphi: object                  # analytic derivatives: dphi always, dk_* with k
    k_rad: object = None          # None means k == 0
    k_tan: object = None
    dk_rad: object = None
    dk_tan: object = None
    r_min: float = 0.0
    r_max: float = np.inf
    # parameters of the 3-d catalog entry of the same name, used by the
    # n = 3 consistency check
    catalog_params: dict = None

    def __post_init__(self):
        if self.n < 3:
            raise CatalogError("radial models need dimension n >= 3")
        if self.k_rad is not None and None in (self.k_tan, self.dk_rad, self.dk_tan):
            raise CatalogError(f"radial model '{self.name}' gives k_rad without "
                               "k_tan, dk_rad and dk_tan")

    def check_radius(self, r):
        if not (self.r_min < r < self.r_max):
            raise GeometryError(f"radius {r} outside working interval "
                                f"({self.r_min}, {self.r_max}) of '{self.name}'")
        if self.phi(r) <= 0.0:
            raise GeometryError(f"metric profile phi({r}) <= 0 in '{self.name}'")


def euclidean_model(n):
    return RadialModel("euclidean", n, phi=lambda r: 1.0, dphi=lambda r: 0.0,
                       catalog_params={})


def schwarzschild_model(n, m):
    if m < 0:
        raise CatalogError("mass m must be >= 0")
    p = n - 2

    def phi(r):
        return 1.0 / (1.0 - 2.0 * m / r ** p)

    def dphi(r):
        return -2.0 * m * p * r ** (-p - 1) * phi(r) ** 2

    rmin = (2.0 * m) ** (1.0 / p) if m > 0 else 0.0
    return RadialModel("schwarzschild", n, phi=phi, dphi=dphi, r_min=rmin,
                       catalog_params={"m": m})


def hyperboloid_model(a, n=3):
    if a <= 0:
        raise CatalogError("hyperboloid needs a > 0")

    def phi(r):
        return 1.0 / (1.0 + r * r / (a * a))

    def dphi(r):
        return -2.0 * r / (a * a) * phi(r) ** 2

    const = lambda r: 1.0 / a
    zero = lambda r: 0.0
    return RadialModel("hyperboloid", n, phi=phi, dphi=dphi,
                       k_rad=const, k_tan=const, dk_rad=zero, dk_tan=zero,
                       catalog_params={"a": a})


def paraboloid_model(alpha, n=3):
    if alpha <= 0:
        raise CatalogError("paraboloid needs alpha > 0")

    def phi(r):
        return 1.0 - alpha * alpha * r * r

    def dphi(r):
        return -2.0 * alpha * alpha * r

    # Cartesian k = kappa(r) delta splits as k_rr = kappa = k_rad * phi,
    # k_tan = kappa
    def k_rad(r):
        return alpha * (1.0 - alpha * alpha * r * r) ** -1.5

    def dk_rad(r):
        return 3.0 * alpha ** 3 * r * (1.0 - alpha * alpha * r * r) ** -2.5

    def k_tan(r):
        return alpha / np.sqrt(1.0 - alpha * alpha * r * r)

    def dk_tan(r):
        return alpha ** 3 * r * (1.0 - alpha * alpha * r * r) ** -1.5

    return RadialModel("paraboloid", n, phi=phi, dphi=dphi,
                       k_rad=k_rad, k_tan=k_tan, dk_rad=dk_rad, dk_tan=dk_tan,
                       r_max=1.0 / alpha, catalog_params={"alpha": alpha})


# name -> (constructor, default of each parameter)
RADIAL_CATALOG = {
    "euclidean": (euclidean_model, {"n": 3}),
    "schwarzschild": (schwarzschild_model, {"n": 3, "m": 1.0}),
    "hyperboloid": (hyperboloid_model, {"n": 3, "a": 1.0}),
    "paraboloid": (paraboloid_model, {"n": 3, "alpha": 0.5}),
}


def radial_model(name, **params):
    """Construct a RadialModel by name; n is the dimension (default 3)."""
    return _lookup(RADIAL_CATALOG, "radial model", name, params)


@dataclass
class RadialSphereReport:
    model: str
    n: int
    r: float
    area: float
    H: float
    P: float
    sc_sigma: float
    traceless_sq: float           # 0 by symmetry
    ric_nu_nu: float
    trk: float
    ksq: float
    dnu_trk: float
    dnu_knn: float
    jnorm: float
    mu: float
    energy_1_static: float
    energy_2_static: float
    energy_1_dynamic: float
    energy_2_dynamic: float
    willmore_nd_residual: float
    lam: float
    lambda_star: float
    f_nd: float = None
    f_nd_integral: float = None

    def as_dict(self):
        return {f.name: getattr(self, f.name) for f in fields(self)}


def radial_sphere(model, r, lam=0.0):
    """Closed-form report for the coordinate sphere of radius r.

    A value out of floating-point range (a large dimension n overflows r**n
    and Gamma(n/2)) is a NumericError that names the model, n and r.
    """
    try:
        with np.errstate(over="raise", invalid="raise"):
            report = _closed_form(model, r, lam)
        finite = all(np.isfinite(v) for v in report.as_dict().values() if isinstance(v, float))
    except (OverflowError, FloatingPointError):
        finite = False
    if not finite:
        raise NumericError(f"radial model '{model.name}' at n = {model.n}, r = {r}: "
                           "a closed-form value is out of floating-point range")
    return report


def _closed_form(model, r, lam):
    model.check_radius(r)
    n = model.n
    phi = model.phi(r)
    sqrt_phi = np.sqrt(phi)
    omega = unit_sphere_volume(n - 1)
    area = omega * r ** (n - 1)
    H = (n - 1) / (r * sqrt_phi)
    sc_sigma = (n - 1) * (n - 2) / r ** 2

    dphi = model.dphi(r)
    # for g = dr^2/f + r^2 g_S, Ric(nu,nu) = -(n-1) f'/(2r) with f = 1/phi
    ric_nn = (n - 1) * dphi / (2.0 * r * phi ** 2)
    df = -dphi / phi ** 2
    f = 1.0 / phi
    sc_m = (n - 1) * ((n - 2) * (1.0 - f) / r ** 2 - df / r)

    if model.k_rad is None:
        krad = ktan = dkrad = dktan = 0.0
    else:
        krad = model.k_rad(r)
        ktan = model.k_tan(r)
        dkrad = model.dk_rad(r)
        dktan = model.dk_tan(r)

    P = (n - 1) * ktan
    trk = krad + (n - 1) * ktan
    ksq = krad ** 2 + (n - 1) * ktan ** 2
    dnu_trk = (dkrad + (n - 1) * dktan) / sqrt_phi
    dnu_knn = dkrad / sqrt_phi
    jr = (n - 1) * ((krad - ktan) / r - dktan)
    jnorm = abs(jr) / sqrt_phi
    mu = 0.5 * (sc_m + trk ** 2 - ksq)

    # all terms of the area-constrained equation that survive the symmetry
    def residual(lam_value):
        return (lam_value * H - (n - 3) / (2.0 * (n - 1)) * H ** 3 + H * ric_nn
                + P * (dnu_trk - dnu_knn) + 0.5 * H * P ** 2)

    lam_star = lam - residual(lam) / H

    hp_static = H ** 2
    hp_dynamic = H ** 2 - P ** 2

    def energy_1(hp):
        integrand = sc_sigma - (n - 2) / (n - 1) * hp
        return (area / omega) ** (1.0 / (n - 1)) * area * integrand \
            / (2.0 * (n - 1) * (n - 2) * omega)

    def energy_2(hp):
        lead = 0.5 * (area / omega) ** ((n - 2.0) / (n - 1.0))
        corr = (omega / area) ** ((n - 3.0) / (n - 1.0)) * area * hp \
            / ((n - 1.0) ** 2 * omega)
        return lead * (1.0 - corr)

    report = RadialSphereReport(
        model=model.name, n=n, r=float(r), area=float(area), H=float(H),
        P=float(P), sc_sigma=float(sc_sigma), traceless_sq=0.0,
        ric_nu_nu=float(ric_nn), trk=float(trk), ksq=float(ksq),
        dnu_trk=float(dnu_trk), dnu_knn=float(dnu_knn), jnorm=float(jnorm),
        mu=float(mu),
        energy_1_static=float(energy_1(hp_static)),
        energy_2_static=float(energy_2(hp_static)),
        energy_1_dynamic=float(energy_1(hp_dynamic)),
        energy_2_dynamic=float(energy_2(hp_dynamic)),
        willmore_nd_residual=float(residual(lam)), lam=float(lam),
        lambda_star=float(lam_star))

    if H > 0.0:
        f_nd = ((P / H) ** 2 * ksq + 0.5 * trk ** 2 - 0.5 * ksq - jnorm
                - n / (2.0 * (n - 1.0)) * P ** 2
                - (P / H) * (dnu_trk - dnu_knn))
        report.f_nd = float(f_nd)
        report.f_nd_integral = float(f_nd * area)
    elif model.k_rad is not None:
        raise HypothesisError("f_nd requires H > 0")
    return report


def nd_energy_consistency(model, r):
    """Defects |E_{3,i} - E| of both dynamical energies against the 3-d modules at 48x96.

    Only meaningful at n = 3, where the radial model has a meshed twin.
    """
    if model.n != 3:
        raise ValueError("the 3-d consistency check needs n = 3")
    if model.catalog_params is None:
        raise ValueError(f"radial model '{model.name}' has no 3-d catalog twin")
    space = catalog(model.name, **model.catalog_params)
    grid = SphereGrid(48, 96)
    geom = sf.induced_geometry(space, sf.coordinate_sphere(grid, r))
    energy3 = hawking_energy(geom)
    rep = radial_sphere(model, r)
    return abs(rep.energy_1_dynamic - energy3), abs(rep.energy_2_dynamic - energy3)


def radial_sweep(model, r_values, lam=0.0):
    return [radial_sphere(model, float(r), lam) for r in r_values]
