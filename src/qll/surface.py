"""Discrete star-shaped closed 2-surfaces and their induced geometry.

A surface is a radial graph r(theta, phi) over the round sphere about a
fixed center, sampled on a SphereGrid.  induced_geometry computes every
first/second-fundamental-form quantity entering the energies and the
Euler-Lagrange residuals; the remaining functions provide quadrature,
intrinsic surface calculus and the Gauss-equation consistency check.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .ambient import ambient_fields_at, christoffels_at
from .errors import GeometryError
from .grids import SphereGrid
from .harmonics import real_harmonic_grid

SQRT2 = np.sqrt(2.0)


@dataclass
class SurfaceMesh:
    grid: SphereGrid
    radius: np.ndarray          # (ntheta, nphi), > 0
    center: np.ndarray          # chart point (3,)

    def __post_init__(self):
        self.radius = np.asarray(self.radius, dtype=float)
        self.center = np.asarray(self.center, dtype=float)
        if self.radius.shape != (self.grid.ntheta, self.grid.nphi):
            raise ValueError("radius field shape does not match the grid")
        if not np.all(np.isfinite(self.radius)) or np.any(self.radius <= 0.0):
            raise GeometryError("radius field must be positive and finite")

    @property
    def grid_resolution(self):
        return (self.grid.ntheta, self.grid.nphi)

    def embedding(self):
        return self.center + self.radius[..., None] * self.grid.nhat

    def scaled(self, factor):
        return SurfaceMesh(self.grid, self.radius * factor, self.center)

    def displaced(self, delta_radius):
        return SurfaceMesh(self.grid, self.radius + delta_radius, self.center)


def coordinate_sphere(grid, r, center=(0.0, 0.0, 0.0)):
    return SurfaceMesh(grid, np.full((grid.ntheta, grid.nphi), float(r)), np.asarray(center, float))


def round_sphere_with_harmonics(grid, r0, perturbations=(), center=(0.0, 0.0, 0.0)):
    """Radius r0 * (1 + sum a * Y_lm) with real orthonormal harmonics."""
    rad = np.ones((grid.ntheta, grid.nphi))
    for (l, m, amp) in perturbations:
        rad = rad + amp * real_harmonic_grid(grid, int(l), int(m))
    return SurfaceMesh(grid, float(r0) * rad, np.asarray(center, float))


def ellipsoid(grid, semiaxes, center=(0.0, 0.0, 0.0)):
    a, b, c = (float(s) for s in semiaxes)
    nh = grid.nhat
    rad = ((nh[..., 0] / a) ** 2 + (nh[..., 1] / b) ** 2 + (nh[..., 2] / c) ** 2) ** -0.5
    return SurfaceMesh(grid, rad, np.asarray(center, float))


def save_mesh(mesh, path):
    """Plain-text grid format: 'ntheta nphi cx cy cz' header, then r row-major."""
    with open(path, "w", encoding="ascii") as fh:
        cx, cy, cz = (format(v, ".17g") for v in mesh.center)
        fh.write(f"{mesh.grid.ntheta} {mesh.grid.nphi} {cx} {cy} {cz}\n")
        for row in mesh.radius:
            fh.write(" ".join(format(v, ".17g") for v in row) + "\n")


def load_mesh(path, grid=None):
    with open(path, "r", encoding="ascii") as fh:
        tokens = fh.read().split()
    if len(tokens) < 5:
        raise ValueError(f"mesh file '{path}' is truncated")
    ntheta, nphi = int(tokens[0]), int(tokens[1])
    center = np.array([float(t) for t in tokens[2:5]])
    values = np.array([float(t) for t in tokens[5:]])
    if values.size != ntheta * nphi:
        raise ValueError(f"mesh file '{path}' has {values.size} radii, expected {ntheta * nphi}")
    if grid is None:
        grid = SphereGrid(ntheta, nphi)
    elif (grid.ntheta, grid.nphi) != (ntheta, nphi):
        raise ValueError("mesh file resolution does not match the supplied grid")
    return SurfaceMesh(grid, values.reshape(ntheta, nphi), center)


@dataclass
class SurfaceGeometry:
    """All induced data on the mesh; immutable after construction."""

    space: object
    mesh: SurfaceMesh
    X: np.ndarray               # embedded nodes (nt, np, 3)
    e_theta: np.ndarray
    e_phi: np.ndarray
    nu: np.ndarray              # outward unit normal, ambient components
    g_amb: np.ndarray           # ambient metric at nodes
    ginv_amb: np.ndarray
    k_amb: np.ndarray           # ambient k at nodes (zeros when time symmetric)
    induced_metric: np.ndarray  # (nt, np, 2, 2)
    inv_induced: np.ndarray
    det_induced: np.ndarray
    area_element: np.ndarray    # sqrt(det g_Sigma)
    second_form: np.ndarray     # (nt, np, 2, 2)
    H: np.ndarray
    traceless_sq: np.ndarray    # |B_ring|^2
    trk: np.ndarray
    k_nu_nu: np.ndarray
    P: np.ndarray
    gauss_curvature: np.ndarray  # K = Sc_Sigma / 2, intrinsic
    theta_plus: np.ndarray
    theta_minus: np.ndarray
    area: float

    @property
    def grid(self):
        return self.mesh.grid

    @cached_property
    def ambient(self):
        """AmbientFields of the space at the nodes, evaluated on first use."""
        return ambient_fields_at(self.space, self.X)


def ambient_fields(space, geom):
    """AmbientFields of space at the nodes of geom; cached when space is geom.space."""
    return geom.ambient if space is geom.space else ambient_fields_at(space, geom.X)


def tangential_trace_dnu_k(geom, nabla_k):
    """nabla_nu tr k - (nabla_nu k)(nu, nu) = nu^a (nabla_a k)_bc (g^bc - nu^b nu^c)."""
    dnu_k = (geom.nu[..., None, :] @ nabla_k.reshape(nabla_k.shape[:-3] + (3, 9)))[..., 0, :]
    tangential = geom.ginv_amb - geom.nu[..., :, None] * geom.nu[..., None, :]
    return np.sum(dnu_k * tangential.reshape(dnu_k.shape), axis=-1)


def induced_geometry(space, mesh):
    grid = mesh.grid
    r = mesh.radius
    X = mesh.embedding()
    space.check_points(X)

    r_t = grid.dtheta(r)
    r_p = grid.dphi(r)
    r_tt = grid.d2theta(r)
    r_tp = grid.dthetaphi(r)
    r_pp = grid.d2phi(r)

    nh, nh_t, nh_p = grid.nhat, grid.dth_nhat, grid.dph_nhat
    e_t = r_t[..., None] * nh + r[..., None] * nh_t
    e_p = r_p[..., None] * nh + r[..., None] * nh_p
    X_tt = r_tt[..., None] * nh + 2.0 * r_t[..., None] * nh_t + r[..., None] * grid.d2th_nhat
    X_tp = (r_tp[..., None] * nh + r_t[..., None] * nh_p
            + r_p[..., None] * nh_t + r[..., None] * grid.dthph_nhat)
    X_pp = r_pp[..., None] * nh + 2.0 * r_p[..., None] * nh_p + r[..., None] * grid.d2ph_nhat

    gamma, g, ginv = christoffels_at(space, X)

    def dot(u, v):
        return np.einsum("...ab,...a,...b->...", g, u, v)

    g_tt, g_tp, g_pp = dot(e_t, e_t), dot(e_t, e_p), dot(e_p, e_p)
    det2 = g_tt * g_pp - g_tp ** 2
    if np.any(det2 <= 0.0) or not np.all(np.isfinite(det2)):
        bad = np.argwhere(~(det2 > 0.0))[0]
        raise GeometryError(f"degenerate induced metric at node (theta={bad[0]}, phi={bad[1]})")
    g2 = np.stack([np.stack([g_tt, g_tp], axis=-1),
                   np.stack([g_tp, g_pp], axis=-1)], axis=-2)
    ginv2 = np.empty_like(g2)
    ginv2[..., 0, 0] = g_pp / det2
    ginv2[..., 1, 1] = g_tt / det2
    ginv2[..., 0, 1] = -g_tp / det2
    ginv2[..., 1, 0] = -g_tp / det2

    # normal covector ~ eps_abc e_theta^b e_phi^c, raised and normalized
    n_cov = np.cross(e_t, e_p)
    n_up = np.einsum("...ab,...b->...a", ginv, n_cov)
    norm = np.sqrt(np.einsum("...a,...a->...", n_up, n_cov))
    nu = n_up / norm[..., None]
    radial = X - mesh.center
    orient = np.sign(np.einsum("...a,...a->...", nu, radial))
    if np.any(orient == 0):
        raise GeometryError("could not orient the outward normal")
    nu = nu * orient[..., None]

    nu_cov = np.einsum("...ab,...b->...a", g, nu)

    def second(Xij, ei, ej):
        acc = Xij + np.einsum("...abc,...b,...c->...a", gamma, ei, ej)
        return -np.einsum("...a,...a->...", nu_cov, acc)

    B_tt = second(X_tt, e_t, e_t)
    B_tp = second(X_tp, e_t, e_p)
    B_pp = second(X_pp, e_p, e_p)
    B = np.stack([np.stack([B_tt, B_tp], axis=-1),
                  np.stack([B_tp, B_pp], axis=-1)], axis=-2)

    H = np.einsum("...ij,...ij->...", ginv2, B)
    Bring = B - 0.5 * H[..., None, None] * g2
    traceless_sq = np.einsum("...ij,...kl,...ik,...jl->...", Bring, Bring, ginv2, ginv2)
    traceless_sq = np.maximum(traceless_sq, 0.0)  # clip cancellation noise

    k = space.k_tensor(X)
    trk = np.einsum("...ab,...ab->...", ginv, k)
    k_nu_nu = np.einsum("...ab,...a,...b->...", k, nu, nu)
    P = trk - k_nu_nu

    K = _gauss_curvature_intrinsic(grid, g_tt, g_tp, g_pp, ginv2, det2)

    theta_plus = (P + H) / SQRT2
    theta_minus = (P - H) / SQRT2

    J = np.sqrt(det2)
    area = grid.integrate(np.ones_like(J), J)

    geom = SurfaceGeometry(
        space=space, mesh=mesh, X=X, e_theta=e_t, e_phi=e_p, nu=nu,
        g_amb=g, ginv_amb=ginv, k_amb=k,
        induced_metric=g2, inv_induced=ginv2, det_induced=det2,
        area_element=J, second_form=B, H=H, traceless_sq=traceless_sq,
        trk=trk, k_nu_nu=k_nu_nu, P=P, gauss_curvature=K,
        theta_plus=theta_plus, theta_minus=theta_minus, area=area)
    _check_build_invariants(geom)
    return geom


def _check_build_invariants(geom):
    scale = 1.0 + float(np.max(np.abs(geom.H))) ** 2
    unit = np.abs(np.einsum("...ab,...a,...b->...", geom.g_amb, geom.nu, geom.nu) - 1.0)
    orth_t = np.abs(np.einsum("...ab,...a,...b->...", geom.g_amb, geom.nu, geom.e_theta))
    orth_p = np.abs(np.einsum("...ab,...a,...b->...", geom.g_amb, geom.nu, geom.e_phi))
    tangent_scale = 1.0 + float(np.max(geom.induced_metric[..., 0, 0] + geom.induced_metric[..., 1, 1]))
    if np.max(unit) > 1e-10 or max(np.max(orth_t), np.max(orth_p)) > 1e-10 * tangent_scale:
        raise GeometryError("normal failed unit/orthogonality check")
    tr_ring = np.einsum("...ij,...ij->...", geom.inv_induced,
                        geom.second_form - 0.5 * geom.H[..., None, None] * geom.induced_metric)
    if np.max(np.abs(tr_ring)) > 1e-10 * scale:
        raise GeometryError("traceless part of the second fundamental form has a trace")
    prod = geom.theta_plus * geom.theta_minus - 0.5 * (geom.P ** 2 - geom.H ** 2)
    if np.max(np.abs(prod)) > 1e-10 * scale:
        raise GeometryError("null-expansion product identity violated")


def _gauss_curvature_intrinsic(grid, g_tt, g_tp, g_pp, ginv2, det2):
    # Christoffels of the induced metric from parity-aware derivatives,
    # then K = R_{theta phi theta phi} / det
    a_t = grid.dtheta(g_tt, +1)
    a_p = grid.dphi(g_tt)
    b_t = grid.dtheta(g_tp, -1)
    b_p = grid.dphi(g_tp)
    c_t = grid.dtheta(g_pp, +1)
    c_p = grid.dphi(g_pp)

    # first kind: G_{k,ij} = (d_i g_jk + d_j g_ik - d_k g_ij) / 2
    G_t_tt = 0.5 * a_t
    G_t_tp = 0.5 * a_p
    G_t_pp = b_p - 0.5 * c_t
    G_p_tt = b_t - 0.5 * a_p
    G_p_tp = 0.5 * c_t
    G_p_pp = 0.5 * c_p

    A, Bc, Cc = ginv2[..., 0, 0], ginv2[..., 0, 1], ginv2[..., 1, 1]
    Gt_tt = A * G_t_tt + Bc * G_p_tt
    Gt_tp = A * G_t_tp + Bc * G_p_tp
    Gt_pp = A * G_t_pp + Bc * G_p_pp
    Gp_tt = Bc * G_t_tt + Cc * G_p_tt
    Gp_tp = Bc * G_t_tp + Cc * G_p_tp
    Gp_pp = Bc * G_t_pp + Cc * G_p_pp

    # parity of Gamma^l_ij = (-1)^(number of theta indices)
    dGt_pp_t = grid.dtheta(Gt_pp, -1)
    dGt_tp_p = grid.dphi(Gt_tp)
    dGp_pp_t = grid.dtheta(Gp_pp, +1)
    dGp_tp_p = grid.dphi(Gp_tp)

    Rt = dGt_pp_t - dGt_tp_p + Gt_tt * Gt_pp + Gt_tp * Gp_pp \
        - Gt_tp * Gt_tp - Gt_pp * Gp_tp
    Rp = dGp_pp_t - dGp_tp_p + Gp_tt * Gt_pp + Gp_tp * Gp_pp \
        - Gp_tp * Gt_tp - Gp_pp * Gp_tp
    R_low = g_tt * Rt + g_tp * Rp
    return R_low / det2


# ---------------------------------------------------------------------------
# quadrature and surface calculus

def integrate(geom, field):
    """Integral of a per-node scalar against d(mu)."""
    field = np.asarray(field)
    if field.shape == ():
        field = np.full_like(geom.H, float(field))
    return geom.grid.integrate(field, geom.area_element)


def surface_gradient(geom, f):
    """Components (grad f)^theta, (grad f)^phi of the induced gradient."""
    f_t = geom.grid.dtheta(f, +1)
    f_p = geom.grid.dphi(f)
    gt = geom.inv_induced[..., 0, 0] * f_t + geom.inv_induced[..., 0, 1] * f_p
    gp = geom.inv_induced[..., 1, 0] * f_t + geom.inv_induced[..., 1, 1] * f_p
    return gt, gp


def gradient_ambient(geom, f):
    """Pushforward of the surface gradient to ambient vector components."""
    gt, gp = surface_gradient(geom, f)
    return gt[..., None] * geom.e_theta + gp[..., None] * geom.e_phi


def surface_laplacian(geom, f):
    """Laplace-Beltrami in divergence form."""
    gt, gp = surface_gradient(geom, f)
    J = geom.area_element
    # J continues through the poles with the odd smooth branch (J ~ sin theta
    # near a pole), so J * (grad f)^theta continues evenly
    flux_t = J * gt
    flux_p = J * gp
    div = geom.grid.dtheta(flux_t, +1) + geom.grid.dphi(flux_p)
    return div / J


def tangential_divergence(geom, V):
    """div_Sigma of the tangential projection of an ambient vector field V."""
    # covariant surface components select the tangential part automatically
    V_t = np.einsum("...ab,...a,...b->...", geom.g_amb, V, geom.e_theta)
    V_p = np.einsum("...ab,...a,...b->...", geom.g_amb, V, geom.e_phi)
    vt = geom.inv_induced[..., 0, 0] * V_t + geom.inv_induced[..., 0, 1] * V_p
    vp = geom.inv_induced[..., 1, 0] * V_t + geom.inv_induced[..., 1, 1] * V_p
    J = geom.area_element
    # same odd continuation of J as in surface_laplacian
    div = geom.grid.dtheta(J * vt, +1) + geom.grid.dphi(J * vp)
    return div / J


def gauss_equation_check(space, geom):
    """Residual of Sc_Sigma = Sc_M - 2 Ric(nu,nu) + H^2/2 - |B_ring|^2."""
    fields = ambient_fields(space, geom)
    ric_nn = np.einsum("...ab,...a,...b->...", fields.ricci, geom.nu, geom.nu)
    rhs = fields.scalar - 2.0 * ric_nn + 0.5 * geom.H ** 2 - geom.traceless_sq
    return 2.0 * geom.gauss_curvature - rhs
