"""Discrete star-shaped closed 2-surfaces and their induced geometry.

A surface is a radial graph r(theta, phi) over the round sphere about a
fixed center, sampled on a SphereGrid.  induced_geometry computes every
first/second-fundamental-form quantity entering the energies and the
Euler-Lagrange residuals in two stages: the area stage (frame, ambient and
induced metric, area) and its completion.  The intrinsic Gauss curvature
is computed on first use.  The remaining functions provide quadrature,
intrinsic surface calculus and the Gauss-equation consistency check.
"""

from collections import namedtuple
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .ambient import _bilinear, _derivative, _fields, _first_kind, _reads_dg, _zeros
from .errors import GeometryError
from .grids import SphereGrid
from .harmonics import real_harmonic_grid, resample

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

    def embedding(self):
        return self.center + self.radius[..., None] * self.grid.nhat

    def scaled(self, factor):
        return SurfaceMesh(self.grid, self.radius * factor, self.center)

    def resampled(self, grid):
        """The same surface on another grid, and the L2 share of the radius outside
        that grid's band, both from harmonics.resample."""
        radius, share = resample(self.radius, self.grid, grid)
        return SurfaceMesh(grid, radius, self.center), share


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
    """All induced data on the mesh; no value changes after construction.

    Each array lives only until its last reader: the ambient fill takes dg, and on
    k != 0 data keeps the normal trace of nabla k (dnu_k_trace), not nabla k.  On
    k = 0 data k_amb (space.k_tensor's), trk, P, dnu_k_trace and the fill's k-terms
    are read-only zero views (ambient._zeros)."""

    space: object
    mesh: SurfaceMesh
    X: np.ndarray               # embedded nodes (nt, np, 3)
    e_theta: np.ndarray
    e_phi: np.ndarray
    nu: np.ndarray              # outward unit normal, ambient components
    g_amb: np.ndarray           # ambient metric at nodes
    ginv_amb: np.ndarray
    k_amb: np.ndarray           # ambient k at nodes (a zero view when time symmetric)
    induced_metric: np.ndarray  # (nt, np, 2, 2)
    inv_induced: np.ndarray
    area_element: np.ndarray    # sqrt(det g_Sigma)
    second_form: np.ndarray     # (nt, np, 2, 2)
    H: np.ndarray
    traceless_sq: np.ndarray    # |B_ring|^2
    trk: np.ndarray
    P: np.ndarray
    theta_plus: np.ndarray
    theta_minus: np.ndarray
    area: float
    _dg: list = field(default_factory=list, repr=False)  # [d_c g_ab] until the fill takes it

    @property
    def grid(self):
        return self.mesh.grid

    @cached_property
    def _fill(self):
        """(AmbientFields, dnu_k_trace), built on first use from g^{-1}, dg and k."""
        fields = _fields(self.space, self.X, self.ginv_amb, self._dg, self.k_amb)
        if self.space.time_symmetric:
            return fields, _zeros(self.H.shape)
        return replace(fields, nabla_k=None), tangential_trace_dnu_k(self, fields.nabla_k)

    @property
    def ambient(self):
        """AmbientFields at the nodes; nabla_k is None on k != 0 data, see dnu_k_trace."""
        return self._fill[0]

    @cached_property
    def ric_nn(self):
        """Ric(nu, nu) at the nodes."""
        return _bilinear(self.ambient.ricci, self.nu, self.nu)

    @property
    def dnu_k_trace(self):
        """nabla_nu tr k - (nabla_nu k)(nu, nu) at the nodes, contracted by the fill from
        nabla k, which is then freed; a zero view when k = 0."""
        return self._fill[1]

    @cached_property
    def gauss_curvature(self):
        """K = Sc_Sigma / 2, intrinsic, computed on first use from the induced metric."""
        g2 = self.induced_metric
        g_tt, g_tp, g_pp = g2[..., 0, 0], g2[..., 0, 1], g2[..., 1, 1]
        return _gauss_curvature_intrinsic(self.grid, g_tt, g_tp, g_pp, self.inv_induced,
                                          g_tt * g_pp - g_tp ** 2)


def ambient_fields(space, geom):
    """The cached AmbientFields of geom; space must be the one geom was built on."""
    if space is not geom.space:
        raise ValueError(f"geometry was built on another space than this '{space.name}'")
    return geom.ambient


def tangential_trace_dnu_k(geom, nabla_k):
    """nabla_nu tr k - (nabla_nu k)(nu, nu) = nu^a (nabla_a k)_bc (g^bc - nu^b nu^c)."""
    dnu_k = (geom.nu[..., None, :] @ nabla_k.reshape(nabla_k.shape[:-3] + (3, 9)))[..., 0, :]
    tangential = geom.ginv_amb - geom.nu[..., :, None] * geom.nu[..., None, :]
    return np.sum(dnu_k * tangential.reshape(dnu_k.shape), axis=-1)


def induced_geometry(space, mesh):
    """Every induced quantity of mesh in space: the area stage, then its completion.

    mesh may also be the area stage of a mesh in this space, computed
    already (the flow's area rescale hands over its last iterate); it is
    then only completed.
    """
    stage = mesh if isinstance(mesh, _AreaStage) else _area_stage(space, mesh)
    return _completed(space, stage)


# the first stage of a build: the frame, both metrics and the area
_AreaStage = namedtuple("_AreaStage", "mesh X r_t r_p e_t e_p E g ginv g_tt g_tp g_pp det2 J area")


def _area_stage(space, mesh):
    """Embedding, tangent frame, g (chart, SPD and symmetry checked) and g_Sigma."""
    grid = mesh.grid
    r = mesh.radius
    X = mesh.embedding()
    r_t = grid.dtheta(r)
    r_p = grid.dphi(r)
    e_t = r_t[..., None] * grid.nhat + r[..., None] * grid.dth_nhat
    e_p = r_p[..., None] * grid.nhat + r[..., None] * grid.dph_nhat
    g, ginv = space._metric_and_inverse(X)

    # lowered tangent vectors (g e_theta, g e_phi) as the columns of gE
    E = np.stack([e_t, e_p], axis=-1)
    gE = g @ E
    g_tt = _dot(e_t, gE[..., 0])
    g_tp = _dot(e_p, gE[..., 0])
    g_pp = _dot(e_p, gE[..., 1])
    det2 = g_tt * g_pp - g_tp ** 2
    if np.any(det2 <= 0.0) or not np.all(np.isfinite(det2)):
        bad = np.argwhere(~(det2 > 0.0))[0]
        raise GeometryError(f"degenerate induced metric at node (theta={bad[0]}, phi={bad[1]})")
    J = np.sqrt(det2)
    return _AreaStage(mesh, X, r_t, r_p, e_t, e_p, E, g, ginv, g_tt, g_tp, g_pp, det2, J,
                      grid.integrate(np.ones_like(J), J))


def _completed(space, stage):
    """The SurfaceGeometry of an area stage: second fundamental form, k-data and checks."""
    mesh, X, r_t, r_p, e_t, e_p, E, g, ginv, g_tt, g_tp, g_pp, det2, J, area = stage
    grid = mesh.grid
    r = mesh.radius
    # g^{-1} is the area stage's, already checked; g is not evaluated again
    dg = _derivative(space.dmetric_fn, space.metric_fn, X)
    batch = X.shape[:-1]

    g2 = _sym2(g_tt, g_tp, g_pp)
    inv_tt, inv_tp, inv_pp = g_pp / det2, -g_tp / det2, g_tt / det2
    ginv2 = _sym2(inv_tt, inv_tp, inv_pp)

    # normal covector ~ eps_abc e_theta^b e_phi^c, raised and normalized
    n_cov = _cross(e_t, e_p)
    n_up = (ginv @ n_cov[..., None])[..., 0]
    nu = n_up / np.sqrt(_dot(n_up, n_cov))[..., None]
    orient = np.sign(_dot(nu, X - mesh.center))
    if np.any(orient == 0):
        raise GeometryError("could not orient the outward normal")
    nu = nu * orient[..., None]
    nu_cov = (g @ nu[..., None])[..., 0]
    # each node tensor is formed as late and released as early as its readers allow
    del n_cov, n_up

    # B_ij = -nu_a (X_ij^a + Gamma^a_bc e_i^b e_j^c); the Gamma part is the
    # bilinear form W_bc = nu_a Gamma^a_bc = nu^d T_dbc / 2 on the tangent
    # frame, formed from dg without Gamma
    T = _first_kind(dg).reshape(batch + (3, 9))
    # dg goes to the ambient fill, which takes it, or is freed here if the fill never reads it
    dg = [dg] if _reads_dg(space) else []
    W = ((0.5 * nu)[..., None, :] @ T).reshape(batch + (3, 3))
    del T
    WE = W @ E
    del W
    r_tt = grid.d2theta(r)
    r_tp = grid.dphi(r_t)
    r_pp = grid.d2phi(r)
    nh, nh_t, nh_p = grid.nhat, grid.dth_nhat, grid.dph_nhat
    X_tt = r_tt[..., None] * nh + 2.0 * r_t[..., None] * nh_t + r[..., None] * grid.d2th_nhat
    X_tp = (r_tp[..., None] * nh + r_t[..., None] * nh_p
            + r_p[..., None] * nh_t + r[..., None] * grid.dthph_nhat)
    X_pp = r_pp[..., None] * nh + 2.0 * r_p[..., None] * nh_p + r[..., None] * grid.d2ph_nhat
    B_tt = -(_dot(nu_cov, X_tt) + _dot(e_t, WE[..., 0]))
    B_tp = -(_dot(nu_cov, X_tp) + _dot(e_t, WE[..., 1]))
    B_pp = -(_dot(nu_cov, X_pp) + _dot(e_p, WE[..., 1]))
    B = _sym2(B_tt, B_tp, B_pp)
    del X_tt, X_tp, X_pp, WE

    H = inv_tt * B_tt + 2.0 * inv_tp * B_tp + inv_pp * B_pp
    # |B_ring|^2 = tr(M^2) with M = g2^{-1} B_ring, clipped at 0 against cancellation noise
    ring_tt, ring_tp, ring_pp = B_tt - 0.5 * H * g_tt, B_tp - 0.5 * H * g_tp, B_pp - 0.5 * H * g_pp
    m_tt, m_tp = inv_tt * ring_tt + inv_tp * ring_tp, inv_tt * ring_tp + inv_tp * ring_pp
    m_pt, m_pp = inv_tp * ring_tt + inv_pp * ring_tp, inv_tp * ring_tp + inv_pp * ring_pp
    traceless_sq = np.maximum(m_tt ** 2 + 2.0 * m_tp * m_pt + m_pp ** 2, 0.0)

    k = g / space.umbilic_a if space.umbilic_a is not None else space.k_tensor(X)
    if space.time_symmetric:
        trk = P = _zeros(batch)               # k = 0: every k-term is an exact 0
    else:
        trk = np.einsum("...ab,...ab->...", ginv, k)
        P = trk - _dot(nu, (k @ nu[..., None])[..., 0])

    geom = SurfaceGeometry(
        space=space, mesh=mesh, X=X, e_theta=e_t, e_phi=e_p, nu=nu,
        g_amb=g, ginv_amb=ginv, k_amb=k,
        induced_metric=g2, inv_induced=ginv2,
        area_element=J, second_form=B, H=H, traceless_sq=traceless_sq,
        trk=trk, P=P, theta_plus=(P + H) / SQRT2, theta_minus=(P - H) / SQRT2,
        area=area, _dg=dg)
    _check_build_invariants(geom, nu_cov)
    return geom


def _dot(u, v):
    return np.einsum("...a,...a->...", u, v)


def _cross(u, v):
    """u x v per node, each component formed as np.cross forms it."""
    u0, u1, u2 = u[..., 0], u[..., 1], u[..., 2]
    v0, v1, v2 = v[..., 0], v[..., 1], v[..., 2]
    return np.stack([u1 * v2 - u2 * v1, u2 * v0 - u0 * v2, u0 * v1 - u1 * v0], axis=-1)


def _sym2(xx, xy, yy):
    """Symmetric 2x2 matrices from their three entries."""
    return np.stack([xx, xy, xy, yy], axis=-1).reshape(xx.shape + (2, 2))


def _check_build_invariants(geom, nu_cov):
    scale = 1.0 + float(np.max(np.abs(geom.H))) ** 2
    unit = np.abs(_dot(nu_cov, geom.nu) - 1.0)
    orth_t = np.abs(_dot(nu_cov, geom.e_theta))
    orth_p = np.abs(_dot(nu_cov, geom.e_phi))
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


def _raise_index(geom, w_t, w_p):
    """Contravariant components of the surface covector (w_theta, w_phi)."""
    inv = geom.inv_induced
    return (inv[..., 0, 0] * w_t + inv[..., 0, 1] * w_p,
            inv[..., 1, 0] * w_t + inv[..., 1, 1] * w_p)


def _divergence(geom, v_t, v_p):
    """div_Sigma of the surface vector field with components (v^theta, v^phi)."""
    J = geom.area_element
    # J continues through the poles with the odd smooth branch (J ~ sin theta
    # near a pole), so J v^theta continues evenly
    return (geom.grid.dtheta(J * v_t, +1) + geom.grid.dphi(J * v_p)) / J


def surface_gradient(geom, f):
    """Components (grad f)^theta, (grad f)^phi of the induced gradient."""
    return _raise_index(geom, geom.grid.dtheta(f, +1), geom.grid.dphi(f))


def gradient_ambient(geom, f):
    """Pushforward of the surface gradient to ambient vector components."""
    gt, gp = surface_gradient(geom, f)
    return gt[..., None] * geom.e_theta + gp[..., None] * geom.e_phi


def surface_laplacian(geom, f):
    """Laplace-Beltrami in divergence form."""
    return _divergence(geom, *surface_gradient(geom, f))


def tangential_divergence(geom, V):
    """div_Sigma of the tangential projection of an ambient vector field V."""
    # covariant surface components select the tangential part automatically
    V_t = _bilinear(geom.g_amb, V, geom.e_theta)
    V_p = _bilinear(geom.g_amb, V, geom.e_phi)
    return _divergence(geom, *_raise_index(geom, V_t, V_p))


def gauss_equation_check(space, geom):
    """Residual of Sc_Sigma = Sc_M - 2 Ric(nu,nu) + H^2/2 - |B_ring|^2."""
    rhs = (ambient_fields(space, geom).scalar - 2.0 * geom.ric_nn + 0.5 * geom.H ** 2
           - geom.traceless_sq)
    return 2.0 * geom.gauss_curvature - rhs
