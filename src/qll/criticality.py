"""Euler-Lagrange residuals for area-constrained Willmore/Hawking surfaces.

The willmore residual is
    R = lambda H + Lap H + H |B_ring|^2 + H Ric(nu, nu)
and the full equation adds the k-terms
    + P (nabla_nu tr k - nabla_nu k(nu,nu)) - 2 P div_Sigma(k(., nu))
    + (1/2) H P^2 - 2 k(grad_Sigma P, nu).
On umbilic data k = g / a, k is parallel and k(., nu) = nu^flat / a is
normal, so the k-terms are (1/2) H P^2 alone.

first_variation_check verifies, by central differences in the deformation
parameter, that d/ds of the quarter-integral of H^2 - P^2 along a normal
lapse alpha equals the integral of W alpha with W = -R0/2 (R0 the lambda=0
residual); the sign and factor are pinned by the Euclidean test case.
"""

from dataclasses import dataclass

import numpy as np

from . import surface as sf
from .errors import NumericError
from .functionals import hawking_functional
from .surface import SurfaceMesh

MODES = ("willmore", "hawking")


@dataclass
class ResidualReport:
    mode: str
    lam: float
    residual_field: np.ndarray
    lambda_star: float
    l2_residual: float
    linf_residual: float


def _residual_terms(space, geom, mode):
    sf.ambient_fields(space, geom)        # the fill, after checking that geom is on space
    lap_H = sf.surface_laplacian(geom, geom.H)
    R0 = lap_H + geom.H * geom.traceless_sq + geom.H * geom.ric_nn
    if mode == "hawking" and not space.time_symmetric:
        if space.parallel_k:
            # k = g / a is parallel and k(., nu)^# = nu / a normal: only (1/2) H P^2 remains
            return R0 + 0.5 * geom.H * geom.P ** 2
        k_up_nu = np.einsum("...ab,...bc,...c->...a", geom.ginv_amb, geom.k_amb, geom.nu)
        div_k = sf.tangential_divergence(geom, k_up_nu)
        gradP = sf.gradient_ambient(geom, geom.P)
        k_gradP_nu = sf._bilinear(geom.k_amb, gradP, geom.nu)
        R0 = (R0 + geom.P * geom.dnu_k_trace
              - 2.0 * geom.P * div_k
              + 0.5 * geom.H * geom.P ** 2 - 2.0 * k_gradP_nu)
    return R0


def _lambda_star(geom, R0):
    """Least-squares multiplier: lambda* = -int(R0 H) / int(H^2)."""
    h2 = sf.integrate(geom, geom.H ** 2)
    if h2 <= 0.0 or not np.isfinite(h2):
        raise NumericError("degenerate int H^2 dmu in lambda estimate")
    return -sf.integrate(geom, R0 * geom.H) / h2


def residual_report(space, geom, mode, lam=None):
    """Residual at multiplier lam (default: least-squares lambda*, always in .lambda_star)."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    R0 = _residual_terms(space, geom, mode)
    lam_star = _lambda_star(geom, R0)
    if lam is None:
        lam = lam_star
    R = R0 + lam * geom.H
    l2 = np.sqrt(sf.integrate(geom, R ** 2))
    return ResidualReport(mode=mode, lam=float(lam), residual_field=R,
                          lambda_star=float(lam_star), l2_residual=float(l2),
                          linf_residual=float(np.max(np.abs(R))))


def radial_rate(geom, alpha):
    """Radius-field rate realizing a normal deformation with lapse alpha.

    Moving every point by alpha * nu changes the graph radius at rate
    alpha * nu^a d_a (|x - c| - r(Theta, Phi)); the angular-gradient terms
    matter as soon as the surface is not a coordinate sphere.
    """
    grid = geom.grid
    r = geom.mesh.radius
    r_t = grid.dtheta(r)
    r_p = grid.dphi(r)
    nu_rad = np.einsum("...a,...a->...", geom.nu, grid.nhat)
    nu_th = np.einsum("...a,...a->...", geom.nu, grid.dth_nhat)
    nu_ph = np.einsum("...a,...a->...", geom.nu, grid.dph_nhat)
    sin2 = grid.sintheta[:, None] ** 2
    return alpha * (nu_rad - (r_t / r) * nu_th - (r_p / (r * sin2)) * nu_ph)


@dataclass
class VariationRow:
    s: float
    quotient: float
    prediction: float
    abs_error: float
    rel_error: float


@dataclass
class VariationCheck:
    rows: list
    prediction: float
    observed_order: float
    pairwise_orders: list


def first_variation_check(space, mesh, alpha, s_values=(1.6e-2, 8e-3, 4e-3)):
    """Central-difference check of the first variation along lapse alpha."""
    geom0 = sf.induced_geometry(space, mesh)
    # W with d/ds [quarter-integral of H^2 - P^2] = int W alpha dmu
    W = -0.5 * _residual_terms(space, geom0, "hawking")
    pred = sf.integrate(geom0, W * alpha)
    rate = radial_rate(geom0, alpha)
    h0 = hawking_functional(geom0)

    def functional(s):
        return hawking_functional(sf.induced_geometry(
            space, SurfaceMesh(mesh.grid, mesh.radius + s * rate, mesh.center)))

    # roundoff scale of the functional values: a quotient error below noise / |s| is roundoff
    noise = 1e-13 * max(1.0, abs(h0))
    rows = []
    for s in s_values:
        hplus = functional(float(s))
        hminus = functional(-float(s))
        quotient = (hplus - hminus) / (2.0 * s)
        err = abs(quotient - pred)
        # meaningful denominator also on critical surfaces, where the
        # linear response vanishes and only the secant rate sets the scale
        rate_scale = (abs(hplus - h0) + abs(hminus - h0)) / (2.0 * abs(s))
        denom = max(abs(pred), abs(quotient), rate_scale, noise / abs(s))
        rows.append(VariationRow(float(s), float(quotient), float(pred),
                                 float(err), float(err / denom)))
    pairwise = []
    for a, b in zip(rows, rows[1:]):
        # no order when both errors are roundoff (a lapse with a vanishing variation)
        resolved = a.abs_error >= noise / abs(a.s) or b.abs_error >= noise / abs(b.s)
        if a.abs_error > 0 and b.abs_error > 0 and abs(a.s) != abs(b.s) and resolved:
            pairwise.append(float(np.log(a.abs_error / b.abs_error) / np.log(abs(a.s / b.s))))
        else:
            pairwise.append(float("nan"))
    # the s^2 truncation sits on top of a fixed spatial-discretization floor,
    # so the order is read off the largest-s pair
    order = pairwise[0] if pairwise else float("nan")
    return VariationCheck(rows=rows, prediction=float(pred),
                          observed_order=order, pairwise_orders=pairwise)
