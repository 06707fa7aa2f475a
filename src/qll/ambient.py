"""Chart-based ambient initial-data geometry (M, g, k).

An AmbientSpace evaluates the metric g, the symmetric 2-tensor k, their
coordinate derivatives (analytic closed forms for catalog entries, central
finite differences otherwise), curvature, covariant derivatives of k, and
the constraint densities mu, J at arbitrary chart points.

All evaluators are vectorized over a leading batch of chart points: inputs
of shape (..., 3) give tensors of shape (..., 3, 3) etc.  Derivative index
layout: dg[..., c, a, b] = d_c g_ab and d2g[..., c, d, a, b] = d_c d_d g_ab.
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import CatalogError, ChartDomainError, GeometryError

_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class AmbientSpace:
    name: str
    params: dict
    metric_fn: object
    k_fn: object = None            # None means k identically 0
    dmetric_fn: object = None
    d2metric_fn: object = None
    dk_fn: object = None
    chart_fn: object = None        # None means the whole chart R^3
    efield_fn: object = None       # electric vector field (optional extra data)
    derivative_mode: str = "analytic"
    fd_step: float = None
    dimension: int = 3

    @property
    def time_symmetric(self):
        return self.k_fn is None

    def contains(self, points):
        if self.chart_fn is None:
            return np.ones(np.shape(points)[:-1], dtype=bool)
        return np.asarray(self.chart_fn(np.asarray(points, dtype=float)))

    def check_points(self, points):
        ok = self.contains(points)
        if not np.all(ok):
            raise ChartDomainError(
                f"{np.count_nonzero(~ok)} point(s) outside the chart of '{self.name}'")

    def metric(self, points):
        points = np.asarray(points, dtype=float)
        self.check_points(points)
        g = self.metric_fn(points)
        _require_spd(g, self.name)
        return g

    def k_tensor(self, points):
        points = np.asarray(points, dtype=float)
        if self.k_fn is None:
            return np.zeros(points.shape[:-1] + (3, 3))
        return self.k_fn(points)

    def efield(self, points):
        if self.efield_fn is None:
            return None
        return self.efield_fn(np.asarray(points, dtype=float))

    def with_derivative_mode(self, mode, step=None):
        """Return a copy using 'analytic' or 'fd' derivatives."""
        if mode not in ("analytic", "fd"):
            raise ValueError("derivative mode must be 'analytic' or 'fd'")
        if mode == "analytic" and self.dmetric_fn is None:
            raise ValueError(f"catalog entry '{self.name}' has no analytic derivatives")
        return replace(self, derivative_mode=mode, fd_step=step)


def _require_spd(g, name):
    # Sylvester criterion; cheaper than eigvalsh per point
    m1 = g[..., 0, 0]
    m2 = g[..., 0, 0] * g[..., 1, 1] - g[..., 0, 1] * g[..., 1, 0]
    m3 = np.linalg.det(g)
    if not (np.all(m1 > 0) and np.all(m2 > 0) and np.all(m3 > 0)):
        raise GeometryError(f"metric of '{name}' is not positive definite at a queried point")
    sym = np.max(np.abs(g - np.swapaxes(g, -1, -2)))
    if sym > 1e-12 * max(1.0, float(np.max(np.abs(g)))):
        raise GeometryError(f"metric of '{name}' is not symmetric at a queried point")


# ---------------------------------------------------------------------------
# derivative bundles (analytic or finite-difference)

def _fd_steps(points, step):
    if step is not None:
        h1 = h2 = float(step)
        return h1, h2
    scale = np.maximum(1.0, np.linalg.norm(points, axis=-1))
    # optimal central-difference steps: truncation vs roundoff
    h1 = float(np.max(scale)) * _EPS ** (1.0 / 3.0)
    h2 = float(np.max(scale)) * _EPS ** 0.25
    return h1, h2


def _fd_first(fn, points, h):
    out = None
    for c in range(3):
        e = np.zeros(3)
        e[c] = h
        d = (fn(points + e) - fn(points - e)) / (2.0 * h)
        if out is None:
            out = np.zeros(points.shape[:-1] + (3,) + d.shape[len(points.shape) - 1:])
        out[..., c, :, :] = d
    return out


def _fd_second(fn, points, h):
    out = np.zeros(points.shape[:-1] + (3, 3, 3, 3))
    for d_ in range(3):
        e = np.zeros(3)
        e[d_] = h
        dplus = _fd_first(fn, points + e, h)
        dminus = _fd_first(fn, points - e, h)
        out[..., d_, :, :] = (dplus - dminus) / (2.0 * h)
    # symmetrize the derivative pair
    return 0.5 * (out + np.swapaxes(out, -4, -3))


def _analytic(space):
    return space.derivative_mode == "analytic" and space.dmetric_fn is not None


def _second_order(space, points):
    """d2g and dk at points (dk is 0 when k is), honoring the derivative mode."""
    analytic = _analytic(space)
    if analytic:
        d2g = space.d2metric_fn(points)
    else:
        d2g = _fd_second(space.metric_fn, points, _fd_steps(points, space.fd_step)[1])
    if space.k_fn is None:
        dk = np.zeros(points.shape[:-1] + (3, 3, 3))
    elif analytic and space.dk_fn is not None:
        dk = space.dk_fn(points)
    else:
        dk = _fd_first(space.k_fn, points, _fd_steps(points, space.fd_step)[0])
    return d2g, dk


def _first_kind(dg):
    """T_dbc = d_b g_dc + d_c g_db - d_d g_bc.

    Given d2g it returns d_a T_dbc, because d2g[..., a, :, :, :] = d_a dg.
    """
    return (np.einsum("...bdc->...dbc", dg)
            + np.einsum("...cdb->...dbc", dg)
            - dg)


def _christoffels(ginv, dg):
    return 0.5 * np.einsum("...ad,...dbc->...abc", ginv, _first_kind(dg))


def christoffels_at(space, points):
    """Gamma^a_bc, g, g^{-1} and dg at the given chart points.

    The one evaluation of first-order metric data; it checks chart and SPD.
    """
    points = np.asarray(points, dtype=float)
    g = space.metric(points)
    if _analytic(space):
        dg = space.dmetric_fn(points)
    else:
        dg = _fd_first(space.metric_fn, points, _fd_steps(points, space.fd_step)[0])
    ginv = np.linalg.inv(g)
    return _christoffels(ginv, dg), g, ginv, dg


def _ricci(ginv, gamma, dg, d2g):
    """R_bd = d_a Gamma^a_bd - d_d Gamma^a_ab + Gamma^a_ae Gamma^e_bd - Gamma^a_de Gamma^e_ab.

    Every term is contracted to two indices before a 3x3 result is formed:
    with Q_c = g^{-1} d_c g and D_{cd,ab} = d_c d_d g_ab as a 9x9 matrix,
      d_a Gamma^a_bd = -w_e Gamma^e_bd + (S_bd + S_db - (g^{ae} d_a d_e g)_bd) / 2,
      d_d Gamma^a_ab = (g^{ae} d_d d_b g_ae - tr(Q_d Q_b)) / 2,
      Gamma^a_ae = tr(Q_e) / 2,
    where w_e = sum_a (Q_a)_ae and S_bd = g^{ae} d_b d_a g_de.
    """
    batch = ginv.shape[:-2]
    gcol = ginv.reshape(batch + (9, 1))
    Q = ginv[..., None, :, :] @ dg
    trQ = np.trace(Q, axis1=-2, axis2=-1)
    w = np.diagonal(Q, axis1=-3, axis2=-2).sum(axis=-1)
    D = d2g.reshape(batch + (9, 9))
    box = np.swapaxes(gcol, -1, -2) @ D     # g^{ae} d_a d_e g_bd
    trace_hess = D @ gcol                   # g^{ae} d_d d_b g_ae
    S = np.moveaxis(d2g, -2, -3).reshape(batch + (9, 9)) @ gcol
    QQ = Q.reshape(batch + (3, 9)) @ np.swapaxes(Q, -1, -2).reshape(batch + (3, 9)).swapaxes(-1, -2)
    gs = np.ascontiguousarray(np.swapaxes(gamma, -3, -2))    # gs[d, a, e] = Gamma^a_de
    GG = gs.reshape(batch + (3, 9)) @ gs.reshape(batch + (9, 3))
    lin = (0.5 * trQ - w)[..., None, :] @ gamma.reshape(batch + (3, 9))
    S = S.reshape(batch + (3, 3))
    second = S + np.swapaxes(S, -1, -2) - box.reshape(S.shape) - trace_hess.reshape(S.shape)
    return lin.reshape(S.shape) + 0.5 * (second + QQ) - GG


def _scalar(ginv, ricci):
    return np.sum(ginv * ricci, axis=(-2, -1))


@dataclass(frozen=True)
class CurvatureData:
    christoffels: np.ndarray   # Gamma^a_bc
    riemann: np.ndarray        # R_abcd (all indices down)
    ricci: np.ndarray          # R_ab
    scalar: np.ndarray
    metric: np.ndarray
    inv_metric: np.ndarray


def curvature_at(space, points):
    points = np.asarray(points, dtype=float)
    gamma, g, ginv, dg = christoffels_at(space, points)
    d2g, _ = _second_order(space, points)
    # dGamma[..., c, a, d, b] = d_c Gamma^a_db
    dginv = -np.einsum("...ae,...cef,...fb->...cab", ginv, dg, ginv)
    dgamma = 0.5 * (np.einsum("...cae,...edb->...cadb", dginv, _first_kind(dg))
                    + np.einsum("...ae,...cedb->...cadb", ginv, _first_kind(d2g)))
    # R^a_bcd = d_c Gamma^a_db - d_d Gamma^a_cb + Gamma^a_ce Gamma^e_db - Gamma^a_de Gamma^e_cb
    riem_up = (np.einsum("...cadb->...abcd", dgamma)
               - np.einsum("...dacb->...abcd", dgamma)
               + np.einsum("...ace,...edb->...abcd", gamma, gamma)
               - np.einsum("...ade,...ecb->...abcd", gamma, gamma))
    riemann = np.einsum("...ae,...ebcd->...abcd", g, riem_up)
    ricci = _ricci(ginv, gamma, dg, d2g)
    return CurvatureData(gamma, riemann, ricci, _scalar(ginv, ricci), g, ginv)


def _nabla_k(gamma, k, dk):
    """(nabla_a k)_bc = d_a k_bc - Gamma^d_ab k_dc - Gamma^d_ac k_bd."""
    corr = np.moveaxis(gamma, -3, -1) @ k[..., None, :, :]
    return dk - corr - np.swapaxes(corr, -1, -2)


def nabla_k_at(space, points):
    """(nabla_a k)_bc = d_a k_bc - Gamma^d_ab k_dc - Gamma^d_ac k_bd."""
    return ambient_fields_at(space, points).nabla_k


@dataclass(frozen=True)
class AmbientFields:
    """Ambient fields that surface quantities read, at a batch of chart points."""

    ricci: np.ndarray      # R_ab
    scalar: np.ndarray
    nabla_k: np.ndarray    # (nabla_a k)_bc
    mu: np.ndarray
    J: np.ndarray          # covector components J_a
    jnorm: np.ndarray      # |J|_g
    ksq: np.ndarray        # |k|^2_g


def ambient_fields_at(space, points):
    """Ric, Sc, nabla k, mu, J and |k|^2 at chart points."""
    points = np.asarray(points, dtype=float)
    _, _, ginv, dg = christoffels_at(space, points)
    return _fields(space, points, ginv, dg, space.k_tensor(points))


def _fields(space, points, ginv, dg, k):
    """AmbientFields from first-order data already evaluated at points.

    2 mu = Sc + (tr k)^2 - |k|^2 and J = div(k - (tr k) g).
    """
    d2g, dk = _second_order(space, points)
    gamma = _christoffels(ginv, dg)
    ricci = _ricci(ginv, gamma, dg, d2g)
    scalar = _scalar(ginv, ricci)
    nk = _nabla_k(gamma, k, dk)
    kmix = ginv @ k                          # k^a_b
    trk = np.trace(kmix, axis1=-2, axis2=-1)
    ksq = np.sum(kmix * np.swapaxes(kmix, -1, -2), axis=(-2, -1))
    # J_a = g^{bc} (nabla_b k)_{ca} - g^{bc} (nabla_a k)_{bc}
    J = (np.einsum("...bc,...bca->...a", ginv, nk)
         - np.einsum("...bc,...abc->...a", ginv, nk))
    jnorm = np.sqrt(np.einsum("...ab,...a,...b->...", ginv, J, J))
    return AmbientFields(ricci=ricci, scalar=scalar, nabla_k=nk,
                         mu=0.5 * (scalar + trk ** 2 - ksq), J=J, jnorm=jnorm, ksq=ksq)


@dataclass(frozen=True)
class ConstraintData:
    mu: np.ndarray
    J: np.ndarray          # covector components J_a
    dec_margin: np.ndarray


def constraint_data_at(space, points):
    """Energy/momentum densities 2 mu = Sc + (tr k)^2 - |k|^2, J = div(k - (tr k) g)."""
    f = ambient_fields_at(space, points)
    return ConstraintData(mu=f.mu, J=f.J, dec_margin=f.mu - f.jnorm)


# ---------------------------------------------------------------------------
# catalog of closed-form model spaces
#
# Two analytic families cover every entry:
#   A. "areal polar" metrics g_ab = delta_ab + psi(r) x_a x_b, which is
#      phi(r) dr^2 + r^2 dOmega^2 with phi = 1 + psi r^2 in polar form;
#   B. conformally flat metrics g_ab = C(r) delta_ab.
# Derivatives use the smooth ratios u1 = psi'/r, u2 = u1'/r (resp. w1 = C'/r,
# w2 = w1'/r) so nothing divides by r where r = 0 is in the chart.


def _outer_xx(points):
    return points[..., :, None] * points[..., None, :]


def _areal_fns(psi, u1, u2):
    eye = np.eye(3)
    # constant d_c d_d (x_a x_b) = delta_ca delta_db + delta_cb delta_da
    ddxx = np.einsum("ca,db->cdab", eye, eye) + np.einsum("cb,da->cdab", eye, eye)
    # d_c (x_a x_b) = x_p ddxx_pcab
    dxx = ddxx.reshape(3, 27)
    # u1 (delta_cd x_a x_b + x_c d_d (x_a x_b) + x_d d_c (x_a x_b)) = u1 x_p x_q U_pq,cdab
    U = (np.einsum("cd,pa,qb->pqcdab", eye, eye, eye)
         + np.einsum("pc,qdab->pqcdab", eye, ddxx)
         + np.einsum("pd,qcab->pqcdab", eye, ddxx)).reshape(9, 81)
    ddxx = ddxx.reshape(81)

    def metric(points):
        r = np.linalg.norm(points, axis=-1)
        return eye + psi(r)[..., None, None] * _outer_xx(points)

    def dmetric(points):
        # d_c g_ab = u1 x_c x_a x_b + psi d_c (x_a x_b)
        r = np.linalg.norm(points, axis=-1)
        batch = points.shape[:-1]
        xxx = _outer_xx(points).reshape(batch + (9, 1)) * points[..., None, :]
        out = u1(r)[..., None] * xxx.reshape(batch + (27,))
        out += psi(r)[..., None] * (points @ dxx)
        return out.reshape(batch + (3, 3, 3))

    def d2metric(points):
        # d_c d_d g_ab = u2 x_c x_d x_a x_b + u1 x_p x_q U_pq,cdab + psi ddxx_cdab
        r = np.linalg.norm(points, axis=-1)
        batch = points.shape[:-1]
        xx = _outer_xx(points).reshape(batch + (9,))
        out = ((u2(r)[..., None] * xx)[..., :, None] * xx[..., None, :]).reshape(batch + (81,))
        out += (u1(r)[..., None] * xx) @ U
        out += psi(r)[..., None] * ddxx
        return out.reshape(batch + (3, 3, 3, 3))

    return metric, dmetric, d2metric


def _conformal_fns(C, w1, w2):
    eye = np.eye(3)

    def metric(points):
        r = np.linalg.norm(points, axis=-1)
        return C(r)[..., None, None] * np.broadcast_to(eye, points.shape[:-1] + (3, 3))

    def dmetric(points):
        r = np.linalg.norm(points, axis=-1)
        return np.einsum("...c,ab->...cab", w1(r)[..., None] * points, eye)

    def d2metric(points):
        r = np.linalg.norm(points, axis=-1)
        xx = _outer_xx(points)
        core = w2(r)[..., None, None] * xx + w1(r)[..., None, None] * eye
        return np.einsum("...cd,ab->...cdab", core, eye)

    return metric, dmetric, d2metric


def _euclidean():
    zero = lambda r: np.zeros_like(r)
    metric, dmetric, d2metric = _areal_fns(zero, zero, zero)
    return AmbientSpace("euclidean", {}, metric, None, dmetric, d2metric)


def _reissner_nordstrom(m, q, name="reissner_nordstrom"):
    if m < 0:
        raise CatalogError("mass m must be >= 0")
    # slice metric phi = (1 - 2m/r + q^2/r^2)^(-1); psi = (2mr - q^2) / (r^2 (r^2 - 2mr + q^2))
    def N(r):
        return 2.0 * m * r - q * q

    def D(r):
        return r ** 2 * (r ** 2 - 2.0 * m * r + q * q)

    def D1(r):
        return 4.0 * r ** 3 - 6.0 * m * r ** 2 + 2.0 * q * q * r

    def D2(r):
        return 12.0 * r ** 2 - 12.0 * m * r + 2.0 * q * q

    def psi(r):
        return N(r) / D(r)

    def dpsi(r):
        return (2.0 * m * D(r) - N(r) * D1(r)) / D(r) ** 2

    def d2psi(r):
        # quotient rule with N'' = 0
        return -N(r) * D2(r) / D(r) ** 2 \
            - 2.0 * D1(r) * (2.0 * m * D(r) - N(r) * D1(r)) / D(r) ** 3

    def u1(r):
        return dpsi(r) / r

    def u2(r):
        return (d2psi(r) - dpsi(r) / r) / r ** 2

    if q * q <= m * m:
        r_plus = m + np.sqrt(m * m - q * q)
    else:
        r_plus = 0.0

    def chart(points):
        r = np.linalg.norm(points, axis=-1)
        return r > r_plus * (1.0 + 1e-12) if r_plus > 0 else r > 0

    metric, dmetric, d2metric = _areal_fns(psi, u1, u2)

    def efield(points):
        r = np.linalg.norm(points, axis=-1)
        phi = 1.0 + psi(r) * r ** 2
        coef = q / (r ** 3 * np.sqrt(phi))
        return coef[..., None] * points

    return AmbientSpace(name, {"m": m, "q": q}, metric, None, dmetric, d2metric,
                        chart_fn=chart, efield_fn=efield if q != 0.0 else None)


def _hyperbolic_metric_fns(a):
    def psi(r):
        return -1.0 / (a * a + r * r)

    def u1(r):
        return 2.0 / (a * a + r * r) ** 2

    def u2(r):
        return -8.0 / (a * a + r * r) ** 3

    return _areal_fns(psi, u1, u2)


def _hyperboloid(a):
    if a <= 0:
        raise CatalogError("hyperboloid needs a > 0")
    metric, dmetric, d2metric = _hyperbolic_metric_fns(a)

    def k_fn(points):
        return metric(points) / a

    def dk_fn(points):
        return dmetric(points) / a

    return AmbientSpace("hyperboloid", {"a": a}, metric, k_fn, dmetric, d2metric, dk_fn)


def _hyperbolic(a):
    if a <= 0:
        raise CatalogError("hyperbolic needs a > 0")
    metric, dmetric, d2metric = _hyperbolic_metric_fns(a)
    return AmbientSpace("hyperbolic", {"a": a}, metric, None, dmetric, d2metric)


def _paraboloid(alpha):
    if alpha <= 0:
        raise CatalogError("paraboloid needs alpha > 0")
    a2 = alpha * alpha

    def psi(r):
        return np.full_like(np.asarray(r, dtype=float), -a2)

    zero = lambda r: np.zeros_like(np.asarray(r, dtype=float))
    metric, dmetric, d2metric = _areal_fns(psi, zero, zero)

    def kappa(r):
        return alpha / np.sqrt(1.0 - a2 * r * r)

    def k_fn(points):
        r = np.linalg.norm(points, axis=-1)
        return kappa(r)[..., None, None] * np.broadcast_to(np.eye(3), points.shape[:-1] + (3, 3))

    def dk_fn(points):
        r = np.linalg.norm(points, axis=-1)
        v1 = alpha ** 3 * (1.0 - a2 * r * r) ** (-1.5)   # kappa'/r
        return np.einsum("...c,ab->...cab", v1[..., None] * points, np.eye(3))

    def chart(points):
        r = np.linalg.norm(points, axis=-1)
        return r < (1.0 / alpha) * (1.0 - 1e-12)

    return AmbientSpace("paraboloid", {"alpha": alpha}, metric, k_fn,
                        dmetric, d2metric, dk_fn, chart_fn=chart)


def _hemisphere(radius):
    if radius <= 0:
        raise CatalogError("hemisphere needs radius > 0")
    R2 = radius * radius
    # conformal chart of the round 3-sphere: the equator is the coordinate
    # sphere r = 2 * radius, strictly inside the chart

    def C(r):
        return (1.0 + r * r / (4.0 * R2)) ** (-2.0)

    def w1(r):
        return -1.0 / (R2 * (1.0 + r * r / (4.0 * R2)) ** 3)

    def w2(r):
        return 1.5 / (R2 * R2 * (1.0 + r * r / (4.0 * R2)) ** 4)

    metric, dmetric, d2metric = _conformal_fns(C, w1, w2)
    return AmbientSpace("hemisphere", {"radius": radius}, metric, None, dmetric, d2metric)


def catalog(name, **params):
    """Construct a catalog AmbientSpace by name.

    Names: euclidean, schwarzschild(m), reissner_nordstrom(m, q),
    hyperboloid(a), paraboloid(alpha), hyperbolic(a | Lambda),
    hemisphere(radius | Lambda).
    """
    try:
        if name == "euclidean":
            _reject_extra(params, ())
            return _euclidean()
        if name == "schwarzschild":
            _reject_extra(params, ("m",))
            return replace(_reissner_nordstrom(float(params.get("m", 1.0)), 0.0,
                                               name="schwarzschild"),
                           params={"m": float(params.get("m", 1.0))})
        if name == "reissner_nordstrom":
            _reject_extra(params, ("m", "q"))
            return _reissner_nordstrom(float(params.get("m", 1.0)), float(params.get("q", 0.0)))
        if name == "hyperboloid":
            _reject_extra(params, ("a",))
            return _hyperboloid(float(params.get("a", 1.0)))
        if name == "hyperbolic":
            _reject_extra(params, ("a", "Lambda"))
            if "Lambda" in params:
                lam = float(params["Lambda"])
                if lam >= 0:
                    raise CatalogError("hyperbolic needs Lambda < 0")
                return _hyperbolic(np.sqrt(-3.0 / lam))
            return _hyperbolic(float(params.get("a", 1.0)))
        if name == "paraboloid":
            _reject_extra(params, ("alpha",))
            return _paraboloid(float(params.get("alpha", 0.5)))
        if name == "hemisphere":
            _reject_extra(params, ("radius", "Lambda"))
            if "Lambda" in params:
                lam = float(params["Lambda"])
                if lam <= 0:
                    raise CatalogError("hemisphere needs Lambda > 0")
                return _hemisphere(np.sqrt(3.0 / lam))
            return _hemisphere(float(params.get("radius", 1.0)))
    except (TypeError, ValueError) as exc:
        if isinstance(exc, CatalogError):
            raise
        raise CatalogError(f"invalid parameters for catalog entry '{name}': {exc}") from exc
    raise CatalogError(f"unknown catalog entry '{name}'")


def _reject_extra(params, allowed):
    extra = set(params) - set(allowed)
    if extra:
        raise CatalogError(f"unexpected parameter(s): {sorted(extra)}")


def attach_efield(space, efield_fn):
    """Attach an electric vector field to an existing space."""
    return replace(space, efield_fn=efield_fn)
