"""Energies and hypothesis integrals evaluated on a SurfaceGeometry.

Covers the Hawking energy and functional, the charged and
cosmological-constant variants, the Brown-York energy restricted to
constant-curvature (round-embedding) boundaries, and the positivity
hypothesis integrands f, f_beta, f_tilde.
"""

import dataclasses
import logging

import numpy as np

from . import surface as sf
from .errors import ConfigError, EmbeddingError, HypothesisError

log = logging.getLogger(__name__)

FOUR_PI = 4.0 * np.pi
SIXTEEN_PI = 16.0 * np.pi

# Weyl embedding of a constant-curvature sphere is round; beyond this
# relative spread in K the general embedding problem is out of scope.
ROUND_K_TOL = 1e-3


def _hawking_mass(area, functional, charge_term=0.0):
    """sqrt(|S|/16pi) (1 + charge_term - F/4pi) of a quarter-integral F, for every energy."""
    return np.sqrt(area / SIXTEEN_PI) * (1.0 + charge_term - functional / FOUR_PI)


def hawking_functional(geom):
    """H-functional: quarter integral of H^2 - P^2."""
    return 0.25 * sf.integrate(geom, geom.H ** 2 - geom.P ** 2)


def hawking_energy(geom):
    """sqrt(|S|/16pi) (1 - (1/16pi) int (H^2 - P^2) dmu)."""
    return _hawking_mass(geom.area, hawking_functional(geom))


def charge_flux(geom):
    E = geom.space.efield(geom.X)
    if E is None:
        raise ConfigError(f"space '{geom.space.name}' carries no electric field")
    flux = sf._bilinear(geom.g_amb, E, geom.nu)
    return sf.integrate(geom, flux) / FOUR_PI


def charged_hawking_energy(geom, extra_charge_sq=0.0):
    """Charge Q and energy E_Q.

    The integrand is H^2 - P^2, which is H^2 on time-symmetric data (P is
    an exact zero there); k != 0 data is flagged "H2-P2" in the returned
    convention string.  extra_charge_sq adds a magnetic-charge Q_B^2 to the
    Q^2 term.
    """
    Q = charge_flux(geom)
    val = _hawking_mass(geom.area, hawking_functional(geom),
                        FOUR_PI * (Q ** 2 + extra_charge_sq) / geom.area)
    return Q, float(val), "H2" if geom.space.time_symmetric else "H2-P2"


def lambda_hawking_energy(geom, Lambda):
    """Hawking energy with cosmological constant (time-symmetric form)."""
    return _hawking_mass(geom.area,
                         0.25 * sf.integrate(geom, geom.H ** 2 + (4.0 / 3.0) * Lambda))


def f_integrals(space, geom, beta=0.25, lam=0.0):
    """Integrals of f - lambda, f_beta - lambda and f_tilde - lambda.

    f divides by H, so every node must have H > 0.
    """
    if np.any(geom.H <= 0.0):
        raise HypothesisError("f requires positive mean curvature at every node")
    fields = sf.ambient_fields(space, geom)
    ksq, jnorm = fields.ksq, fields.jnorm
    H, P, trk = geom.H, geom.P, geom.trk
    ring = geom.traceless_sq
    core = 0.5 * trk ** 2 - 0.75 * P ** 2 - (P / H) * geom.dnu_k_trace
    f = (P / H) ** 2 * ksq + core - 0.5 * ksq - 0.5 * ring - jnorm
    f_beta = (P / H) ** 2 * ksq + core - beta * (ksq + ring + 2.0 * jnorm)
    if space.time_symmetric:
        f_tilde = f     # k = 0: the k(grad log H, nu) term is an exact 0, so f_tilde is f
    elif space.parallel_k:
        # k = g / a: k(grad log H, nu) = g(grad log H, nu) / a = 0, a tangent against a normal
        f_tilde = core - 0.5 * ksq - 0.5 * ring - jnorm
    else:
        grad_logH = sf.gradient_ambient(geom, np.log(H))
        k_gradlogH_nu = sf._bilinear(geom.k_amb, grad_logH, geom.nu)
        f_tilde = (2.0 * P / H) * k_gradlogH_nu + core - 0.5 * ksq - 0.5 * ring - jnorm
    lam_area = lam * geom.area
    return {
        "f": sf.integrate(geom, f) - lam_area,
        "f_beta": sf.integrate(geom, f_beta) - lam_area,
        "f_tilde": sf.integrate(geom, f_tilde) - lam_area,
        "beta": beta,
        "lam": lam,
    }


def brown_york_round(geom):
    """(1/8pi) int (H0 - H) dmu with H0 from the round reference embedding.

    Only surfaces whose intrinsic Gauss curvature is constant (to relative
    tolerance ROUND_K_TOL) are supported; their Weyl embedding into flat
    space is a round sphere with H0 = 2 sqrt(mean K).
    """
    K = geom.gauss_curvature
    kbar = sf.integrate(geom, K) / geom.area
    if kbar <= 0.0:
        raise EmbeddingError("mean Gauss curvature must be positive for a round embedding")
    spread = float(np.max(np.abs(K - kbar))) / kbar
    if spread > ROUND_K_TOL:
        raise EmbeddingError(
            f"Gauss curvature varies by {spread:.2e} (> {ROUND_K_TOL:.0e}); "
            "general isometric embedding is not supported")
    if not geom.space.time_symmetric and float(np.max(np.abs(geom.P))) > 1e-12:
        log.info("Brown-York comparison on k != 0 data: the positivity "
                 "hypotheses do not apply")
    H0 = 2.0 * np.sqrt(kbar)
    return sf.integrate(geom, H0 - geom.H) / (8.0 * np.pi)


@dataclasses.dataclass
class EnergyReport:
    """Every functional/energy value for one surface, with provenance."""

    space_name: str
    space_params: dict
    grid_resolution: tuple
    area: float
    willmore_integral: float
    p_integral: float
    hawking_functional: float
    hawking_energy: float
    gauss_bonnet_defect: float
    dec_min: float
    charge: float = None
    charged_energy: float = None
    charged_convention: str = None
    Lambda: float = None
    lambda_energy: float = None
    brown_york: float = None
    f_integral: float = None
    f_beta_integral: float = None
    f_tilde_integral: float = None
    beta: float = None
    lam: float = None

    def as_dict(self):
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}


def energy_report(space, geom, Lambda=None, beta=0.25, lam=0.0):
    """Assemble an EnergyReport; optional pieces are skipped when not applicable."""
    # two integrals as in report.json; hawking_energy's one pass differs in the last bits if k != 0
    w2 = sf.integrate(geom, geom.H ** 2)
    p2 = sf.integrate(geom, geom.P ** 2)
    hf = 0.25 * (w2 - p2)
    energy = _hawking_mass(geom.area, hf)
    fields = sf.ambient_fields(space, geom)
    gb = abs(sf.integrate(geom, geom.gauss_curvature) - FOUR_PI)
    report = EnergyReport(
        space_name=space.name,
        space_params=dict(space.params),
        grid_resolution=(geom.grid.ntheta, geom.grid.nphi),
        area=geom.area,
        willmore_integral=w2,
        p_integral=p2,
        hawking_functional=hf,
        hawking_energy=float(energy),
        gauss_bonnet_defect=float(gb),
        dec_min=float(np.min(fields.dec_margin)),
    )
    if space.efield_fn is not None:
        Q, eq, conv = charged_hawking_energy(geom)
        report.charge, report.charged_energy, report.charged_convention = float(Q), eq, conv
    if Lambda is not None:
        report.Lambda = float(Lambda)
        report.lambda_energy = float(lambda_hawking_energy(geom, Lambda))
    try:
        report.brown_york = float(brown_york_round(geom))
    except EmbeddingError:
        pass
    if np.all(geom.H > 0.0):
        fints = f_integrals(space, geom, beta=beta, lam=lam)
        report.f_integral = float(fints["f"])
        report.f_beta_integral = float(fints["f_beta"])
        report.f_tilde_integral = float(fints["f_tilde"])
        report.beta = float(beta)
        report.lam = float(lam)
    return report
