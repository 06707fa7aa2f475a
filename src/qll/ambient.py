"""Chart-based ambient initial-data geometry (M, g, k).

An AmbientSpace evaluates the metric g, the symmetric 2-tensor k, their
first coordinate derivatives, curvature, covariant derivatives of k, and
the constraint densities mu, J at arbitrary chart points.  Every derivative
is a closed form that the space supplies: dmetric_fn and ricci_fn always,
and dk_fn with k_fn; umbilic data k = g / a gives umbilic_a instead of both.
Ric is the one curvature input; in three dimensions it determines the
Riemann tensor, which curvature_at forms from it.  On data whose k is
parallel (parallel_k: k = 0, or k = g / a by metric compatibility) nabla k
and J are exact zeros, and neither Gamma nor dk is formed.

All evaluators are vectorized over a leading batch of chart points: inputs
of shape (..., 3) give tensors of shape (..., 3, 3) etc.  Derivative index
layout: dg[..., c, a, b] = d_c g_ab.
"""

import numbers
from dataclasses import dataclass, replace

import numpy as np

from .errors import CatalogError, ChartDomainError, GeometryError


@dataclass(frozen=True)
class AmbientSpace:
    name: str
    params: dict
    metric_fn: object
    k_fn: object = None            # k_ab; with no umbilic_a either, k is identically 0
    dmetric_fn: object = None      # d_c g_ab, required
    dk_fn: object = None           # d_c k_ab, required exactly when k_fn is given
    ricci_fn: object = None        # R_ab, required
    chart_fn: object = None        # None means the whole chart R^3
    efield_fn: object = None       # electric vector field (optional extra data)
    # a when k = g / a (umbilic data), in place of k_fn and dk_fn: k_tensor and the
    # build divide g by a, and nabla k = 0
    umbilic_a: float = None

    def __post_init__(self):
        if self.k_fn is not None and self.umbilic_a is not None:
            raise CatalogError(f"space '{self.name}' gives k twice: by k_fn and by umbilic_a")
        needed = ["dmetric_fn", "ricci_fn"] + (["dk_fn"] if self.k_fn is not None else [])
        missing = [name for name in needed if getattr(self, name) is None]
        if missing:
            raise CatalogError(f"space '{self.name}' lacks the closed form(s) {', '.join(missing)}")

    @property
    def time_symmetric(self):
        return self.k_fn is None and self.umbilic_a is None

    @property
    def parallel_k(self):
        """nabla k = 0 exactly: k = 0, or umbilic k = g / a by metric compatibility."""
        return self.k_fn is None

    def check_points(self, points):
        """Points with a non-finite chart radius, then points outside the chart, are
        ChartDomainErrors; the first check runs before any closed form."""
        sq = np.einsum("...a,...a->...", points, points)    # |x|^2, without overflow warnings
        if not np.isfinite(np.max(sq)):
            bad = np.count_nonzero(~np.isfinite(sq))
            raise ChartDomainError(f"non-finite chart radius |x| at {bad} point(s) queried "
                                   f"in '{self.name}'")
        if self.chart_fn is None:
            return
        ok = np.asarray(self.chart_fn(points))
        if not np.all(ok):
            raise ChartDomainError(
                f"{np.count_nonzero(~ok)} point(s) outside the chart of '{self.name}'")

    def metric(self, points):
        return self._metric_and_inverse(points)[0]

    def _metric_and_inverse(self, points):
        """g and g^{-1} at points, after the chart, SPD and symmetry checks."""
        points = np.asarray(points, dtype=float)
        self.check_points(points)
        g = self.metric_fn(points)
        return g, _spd_inverse(g, self.name)

    def k_tensor(self, points):
        """k at points: g / a on umbilic data, a read-only zero view (_zeros) on
        time-symmetric data."""
        points = np.asarray(points, dtype=float)
        if self.umbilic_a is not None:
            return self.metric_fn(points) / self.umbilic_a
        return _zeros(points.shape[:-1] + (3, 3)) if self.k_fn is None else self.k_fn(points)

    def efield(self, points):
        if self.efield_fn is None:
            return None
        return self.efield_fn(np.asarray(points, dtype=float))


# row-major places of the cofactors 00, 01, 02, 11, 12, 22 of a symmetric 3x3
_SYM_TO_FULL = [0, 1, 2, 1, 3, 4, 2, 4, 5]


def _spd_inverse(g, name):
    """g^{-1} of a batch of symmetric 3x3 metrics by the adjugate.

    Sylvester's criterion reads its minors from the same cofactors (the last
    one is det g), and it and the symmetry check run before the division.
    """
    a, b, c = g[..., 0, 0], g[..., 0, 1], g[..., 0, 2]
    d, e, f = g[..., 1, 1], g[..., 1, 2], g[..., 2, 2]
    cof = np.stack([d * f - e * e, c * e - b * f, b * e - c * d,
                    a * f - c * c, b * c - a * e, a * d - b * b], axis=-1)
    det = a * cof[..., 0] + b * cof[..., 1] + c * cof[..., 2]
    if not (np.all(a > 0) and np.all(cof[..., 5] > 0) and np.all(det > 0)):
        raise GeometryError(f"metric of '{name}' is not positive definite at a queried point")
    sym = max(float(np.max(np.abs(g[..., i, j] - g[..., j, i])))
              for i, j in ((0, 1), (0, 2), (1, 2)))
    if sym > 1e-12 * max(1.0, float(np.max(np.abs(g)))):
        raise GeometryError(f"metric of '{name}' is not symmetric at a queried point")
    return (cof / det[..., None])[..., _SYM_TO_FULL].reshape(g.shape)


# T_dbc = d_b g_dc + d_c g_db - d_d g_bc as a constant map from dg[x, y, z] to T[d, b, c]
_I27 = np.eye(27).reshape((3,) * 6)
_FIRST_KIND = (np.einsum("xyzbdc->xyzdbc", _I27) + np.einsum("xyzcdb->xyzdbc", _I27)
               - _I27).reshape(27, 27)


def _first_kind(dg):
    """T_dbc = d_b g_dc + d_c g_db - d_d g_bc, one product with a constant matrix."""
    return (dg.reshape(dg.shape[:-3] + (27,)) @ _FIRST_KIND).reshape(dg.shape)


def _christoffels(ginv, dg):
    """Gamma^a_bc = g^{ad} T_dbc / 2, one (3 x 3) @ (3 x 9) product per point."""
    batch = ginv.shape[:-2]
    T = _first_kind(dg).reshape(batch + (3, 9))
    return ((0.5 * ginv) @ T).reshape(batch + (3, 3, 3))


def christoffels_at(space, points):
    """Gamma^a_bc, g, g^{-1} and dg at chart points, after the chart and SPD checks."""
    points = np.asarray(points, dtype=float)
    g, ginv = space._metric_and_inverse(points)
    dg = space.dmetric_fn(points)
    return _christoffels(ginv, dg), g, ginv, dg


def _zeros(shape):
    """A read-only +0.0 array of shape that holds one double (every stride is 0)."""
    return np.broadcast_to(0.0, shape)


def _bilinear(M, u, v):
    """M(u, v) = M_ab u^a v^b per point: einsum("...ab,...a,...b->...") term by term, with
    its products (M_ab u^a) v^b summed from 0 in its order, so the results are equal."""
    out = 0.0
    for a in range(3):
        for b in range(3):
            out = out + M[..., a, b] * u[..., a] * v[..., b]
    return out


def _scalar(ginv, ricci):
    return np.einsum("...ab,...ab->...", ginv, ricci)


@dataclass(frozen=True)
class CurvatureData:
    christoffels: np.ndarray   # Gamma^a_bc
    riemann: np.ndarray        # R_abcd (all indices down)
    ricci: np.ndarray          # R_ab
    scalar: np.ndarray
    metric: np.ndarray
    inv_metric: np.ndarray


def curvature_at(space, points):
    """Gamma, R_abcd, Ric and Sc at chart points.

    The Weyl tensor vanishes in three dimensions, so R_abcd = g_ac S_bd +
    g_bd S_ac - g_ad S_bc - g_bc S_ad with S = Ric - (Sc/4) g.
    """
    points = np.asarray(points, dtype=float)
    gamma, g, ginv, _ = christoffels_at(space, points)
    ricci = space.ricci_fn(points)
    scalar = _scalar(ginv, ricci)
    P = np.einsum("...ac,...bd->...abcd", g, ricci - 0.25 * scalar[..., None, None] * g)
    Q = P - np.swapaxes(P, -2, -1)
    return CurvatureData(gamma, Q - np.swapaxes(Q, -4, -3), ricci, scalar, g, ginv)


def _nabla_k(gamma, k, dk):
    """(nabla_a k)_bc = d_a k_bc - Gamma^d_ab k_dc - Gamma^d_ac k_bd.

    C_abc = Gamma^d_ab k_dc is one (9 x 3) @ (3 x 3) product per point, with
    rows ab.  (dk - C) - C^T is written into C's own buffer, one (b, c)/(c, b)
    pair at a time; no argument is written, as dk may be an array the space keeps.
    """
    batch = k.shape[:-2]
    out = (np.swapaxes(gamma.reshape(batch + (3, 9)), -1, -2) @ k).reshape(dk.shape)
    for b in range(3):
        out[..., b, b] = (dk[..., b, b] - out[..., b, b]) - out[..., b, b]
        for c in range(b + 1, 3):
            bc = (dk[..., b, c] - out[..., b, c]) - out[..., c, b]
            out[..., c, b] = (dk[..., c, b] - out[..., c, b]) - out[..., b, c]
            out[..., b, c] = bc
    return out


def nabla_k_at(space, points):
    """(nabla_a k)_bc = d_a k_bc - Gamma^d_ab k_dc - Gamma^d_ac k_bd."""
    return constraint_data_at(space, points).nabla_k


@dataclass(frozen=True)
class AmbientFields:
    """Ambient fields that surface quantities read, at a batch of chart points."""

    ricci: np.ndarray      # R_ab
    scalar: np.ndarray
    nabla_k: np.ndarray    # (nabla_a k)_bc; None on a k_fn surface, which keeps its trace
    mu: np.ndarray
    J: np.ndarray          # covector components J_a
    jnorm: np.ndarray      # |J|_g
    ksq: np.ndarray        # |k|^2_g

    @property
    def dec_margin(self):
        """mu - |J|, which the dominant energy condition keeps >= 0."""
        return self.mu - self.jnorm


def constraint_data_at(space, points):
    """Ric, Sc, nabla k and the densities 2 mu = Sc + (tr k)^2 - |k|^2,
    J = div(k - (tr k) g) at chart points."""
    points = np.asarray(points, dtype=float)
    _, ginv = space._metric_and_inverse(points)
    dg = [] if space.parallel_k else [space.dmetric_fn(points)]
    return _fields(space, points, ginv, dg, space.k_tensor(points))


def _fields(space, points, ginv, dg, k):
    """AmbientFields from first-order data already evaluated at points.

    dg is [dg] on k_fn data, else [].  The fill empties the list, so that
    dg is freed once Gamma and dk exist: a caller's reference to an argument
    would keep it alive until the return.  Gamma is formed only for nabla k.
    Where k is parallel, nabla k, J and |J| are exact +0.0 read-only zero
    views, and on time-symmetric data |k|^2 is too.
    """
    dg = dg.pop() if dg else None
    gamma = None if dg is None else _christoffels(ginv, dg)
    ricci = space.ricci_fn(points)
    scalar = _scalar(ginv, ricci)
    if space.parallel_k:
        nk, J, jnorm = (_zeros(scalar.shape + tail) for tail in ((3, 3, 3), (3,), ()))
    else:
        dk = space.dk_fn(points)
        del dg
        nk = _nabla_k(gamma, k, dk)
        del gamma, dk
        # J_a = g^{bc} (nabla_b k)_{ca} - g^{bc} (nabla_a k)_{bc}
        J = (np.einsum("...bc,...bca->...a", ginv, nk)
             - np.einsum("...bc,...abc->...a", ginv, nk))
        jnorm = np.sqrt(_bilinear(ginv, J, J))
    if space.time_symmetric:
        ksq = _zeros(scalar.shape)
        # Sc + 0.0 turns a -0.0 into +0.0, exactly as Sc + (tr k)^2 - |k|^2 does
        mu = 0.5 * (scalar + 0.0)
    else:
        kmix = ginv @ k                      # k^a_b
        trk = np.trace(kmix, axis1=-2, axis2=-1)
        ksq = np.sum(kmix * np.swapaxes(kmix, -1, -2), axis=(-2, -1))
        mu = 0.5 * (scalar + trk ** 2 - ksq)
    return AmbientFields(ricci=ricci, scalar=scalar, nabla_k=nk, mu=mu, J=J, jnorm=jnorm, ksq=ksq)


# ---------------------------------------------------------------------------
# catalog of closed-form model spaces
#
# Two analytic families cover every entry:
#   A. "areal polar" metrics g_ab = delta_ab + psi(r) x_a x_b, which is
#      phi(r) dr^2 + r^2 dOmega^2 with phi = 1 + psi r^2 in polar form;
#   B. conformally flat metrics g_ab = C(r) delta_ab.
# Derivatives use the smooth ratios u1 = psi'/r (resp. w1 = C'/r, w2 = w1'/r)
# so nothing divides by r where r = 0 is in the chart.  Each family builder
# returns the AmbientSpace fields metric_fn, dmetric_fn and ricci_fn; Ric of
# both forms is a delta_ab + b x_a x_b.


def _outer_xx(points):
    return np.einsum("...a,...b->...ab", points, points)


# d_c (x_a x_b) = x_p dxx_pcab with the constant map dxx_pcab = d_p d_c (x_a x_b)
_DXX = (np.einsum("pa,cb->pcab", np.eye(3), np.eye(3))
        + np.einsum("pb,ca->pcab", np.eye(3), np.eye(3))).reshape(3, 27)


def _areal_fns(psi, u1):
    eye = np.eye(3)

    def metric(points):
        r = np.linalg.norm(points, axis=-1)
        return eye + psi(r)[..., None, None] * _outer_xx(points)

    def dmetric(points):
        # d_c g_ab = u1 x_c x_a x_b + psi d_c (x_a x_b), the u1 term added slice by
        # slice c into the psi term's product, so that one rank-3 array is formed
        r = np.linalg.norm(points, axis=-1)
        out = ((psi(r)[..., None] * points) @ _DXX).reshape(points.shape[:-1] + (3, 3, 3))
        xx = u1(r)[..., None, None] * _outer_xx(points)
        for c in range(3):
            out[..., c, :, :] += points[..., c, None, None] * xx
        return out

    def ricci(points):
        # R_ab = alpha delta_ab + beta x_a x_b with phi = 1 + psi r^2
        r = np.linalg.norm(points, axis=-1)
        p, v, r2 = psi(r), u1(r), r * r
        phi = 1.0 + p * r2
        half = 0.5 / phi ** 2
        alpha = p / phi + (v * r2 + 2.0 * p) * half
        beta = (v + 2.0 * p * v * r2 + 2.0 * p * p) * half
        return alpha[..., None, None] * eye + beta[..., None, None] * _outer_xx(points)

    return dict(metric_fn=metric, dmetric_fn=dmetric, ricci_fn=ricci)


def _conformal_fns(C, w1, w2):
    eye = np.eye(3)

    def metric(points):
        r = np.linalg.norm(points, axis=-1)
        return C(r)[..., None, None] * np.broadcast_to(eye, points.shape[:-1] + (3, 3))

    def dmetric(points):
        r = np.linalg.norm(points, axis=-1)
        return np.einsum("...c,ab->...cab", w1(r)[..., None] * points, eye)

    def ricci(points):
        # R_ab = -(4 s + (t + s^2) r^2) delta_ab - (t - s^2) x_a x_b
        # with s = w1 / (2 C) and t = (w2 C - w1^2) / (2 C^2)
        r = np.linalg.norm(points, axis=-1)
        c, v = C(r), w1(r)
        s = 0.5 * v / c
        t = 0.5 * (w2(r) * c - v * v) / (c * c)
        alpha = -(4.0 * s + (t + s * s) * r * r)
        return alpha[..., None, None] * eye - (t - s * s)[..., None, None] * _outer_xx(points)

    return dict(metric_fn=metric, dmetric_fn=dmetric, ricci_fn=ricci)


def _euclidean():
    zero = lambda r: np.zeros_like(r)
    return AmbientSpace("euclidean", {}, **_areal_fns(zero, zero))


def _reissner_nordstrom(m, q, name="reissner_nordstrom"):
    if m < 0:
        raise CatalogError("mass m must be >= 0")
    # slice metric phi = (1 - 2m/r + q^2/r^2)^(-1); psi = N / D with
    # N = 2mr - q^2 and D = r^2 (r^2 - 2mr + q^2)
    def N_D(r):
        return 2.0 * m * r - q * q, r ** 2 * (r ** 2 - 2.0 * m * r + q * q)

    def psi(r):
        N, D = N_D(r)
        return N / D

    def u1(r):
        # psi' / r by the quotient rule, with N' = 2m and D' = 4r^3 - 6mr^2 + 2q^2 r
        N, D = N_D(r)
        return (2.0 * m * D - N * (4.0 * r ** 3 - 6.0 * m * r ** 2 + 2.0 * q * q * r)) / D ** 2 / r

    if q * q <= m * m:
        r_plus = m + np.sqrt(m * m - q * q)
    else:
        r_plus = 0.0

    def chart(points):
        r = np.linalg.norm(points, axis=-1)
        return r > r_plus * (1.0 + 1e-12) if r_plus > 0 else r > 0

    def efield(points):
        r = np.linalg.norm(points, axis=-1)
        phi = 1.0 + psi(r) * r ** 2
        coef = q / (r ** 3 * np.sqrt(phi))
        return coef[..., None] * points

    return AmbientSpace(name, {"m": m, "q": q}, chart_fn=chart,
                        efield_fn=efield if q != 0.0 else None, **_areal_fns(psi, u1))


def _hyperbolic_metric_fns(a):
    # psi = -1 / (a^2 + r^2), u1 = psi' / r = 2 / (a^2 + r^2)^2
    return _areal_fns(lambda r: -1.0 / (a * a + r * r), lambda r: 2.0 / (a * a + r * r) ** 2)


def _hyperboloid(a):
    if a <= 0:
        raise CatalogError("hyperboloid needs a > 0")
    return AmbientSpace("hyperboloid", {"a": a}, umbilic_a=a, **_hyperbolic_metric_fns(a))


def _schwarzschild(m):
    return replace(_reissner_nordstrom(m, 0.0, name="schwarzschild"), params={"m": m})


def _scale_or_Lambda(name, key, value, Lambda, sign):
    """A space form's length scale given as key = value, or by a Lambda of the given sign.

    Neither given means 1; both given is an error.
    """
    if Lambda is None:
        return 1.0 if value is None else value
    if value is not None:
        raise CatalogError(f"{name} takes {key} or Lambda, not both")
    if sign * Lambda <= 0:
        raise CatalogError(f"{name} needs Lambda {'>' if sign > 0 else '<'} 0")
    return np.sqrt(3.0 / abs(Lambda))


def _hyperbolic(a, Lambda):
    a = _scale_or_Lambda("hyperbolic", "a", a, Lambda, -1.0)
    if a <= 0:
        raise CatalogError("hyperbolic needs a > 0")
    return AmbientSpace("hyperbolic", {"a": a}, **_hyperbolic_metric_fns(a))


def _paraboloid(alpha):
    if alpha <= 0:
        raise CatalogError("paraboloid needs alpha > 0")
    a2 = alpha * alpha

    def psi(r):
        return np.full_like(np.asarray(r, dtype=float), -a2)

    zero = lambda r: np.zeros_like(np.asarray(r, dtype=float))

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

    return AmbientSpace("paraboloid", {"alpha": alpha}, k_fn=k_fn, dk_fn=dk_fn, chart_fn=chart,
                        **_areal_fns(psi, zero))


def _hemisphere(radius, Lambda):
    radius = _scale_or_Lambda("hemisphere", "radius", radius, Lambda, 1.0)
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

    return AmbientSpace("hemisphere", {"radius": radius}, **_conformal_fns(C, w1, w2))


# name -> (constructor, default of each parameter); a default of None marks
# one of two alternative parameters, absent unless given
CATALOG = {
    "euclidean": (_euclidean, {}),
    "schwarzschild": (_schwarzschild, {"m": 1.0}),
    "reissner_nordstrom": (_reissner_nordstrom, {"m": 1.0, "q": 0.0}),
    "hyperboloid": (_hyperboloid, {"a": 1.0}),
    "hyperbolic": (_hyperbolic, {"a": None, "Lambda": None}),
    "paraboloid": (_paraboloid, {"alpha": 0.5}),
    "hemisphere": (_hemisphere, {"radius": None, "Lambda": None}),
}


def catalog(name, **params):
    """Construct a catalog AmbientSpace by name.

    Names: euclidean, schwarzschild(m), reissner_nordstrom(m, q),
    hyperboloid(a), paraboloid(alpha), hyperbolic(a | Lambda),
    hemisphere(radius | Lambda).
    """
    return _lookup(CATALOG, "catalog entry", name, params)


def _lookup(table, kind, name, params):
    """table[name]'s constructor called with its defaults, overridden by params.

    Each given value is converted to its default's type (float where the
    default is None).  An unknown name or key, a bool or any other value that
    is not a real number, a value that does not convert, a non-finite float
    and an integer parameter given a value that is not exactly an integer
    are CatalogErrors.
    """
    if not isinstance(name, str) or name not in table:
        raise CatalogError(f"unknown {kind} '{name}'")
    build, defaults = table[name]
    extra = set(params) - set(defaults)
    if extra:
        raise CatalogError(f"unexpected parameter(s): {sorted(extra)}")
    given = {}
    for k, v in params.items():
        convert = float if defaults[k] is None else type(defaults[k])
        if isinstance(v, bool) or not isinstance(v, numbers.Real):
            raise CatalogError(f"invalid parameters for {kind} '{name}': '{k}' must be "
                               f"{'an integer' if convert is int else 'a number'}, got {v!r}")
        try:
            given[k] = convert(v)
        except (ValueError, OverflowError) as exc:
            raise CatalogError(f"invalid parameters for {kind} '{name}': {exc}") from exc
        if convert is int and given[k] != v:
            raise CatalogError(f"parameter '{k}' of {kind} '{name}' must be an integer, got {v!r}")
        if convert is float and not np.isfinite(given[k]):
            raise CatalogError(f"parameter '{k}' of {kind} '{name}' must be finite, got {given[k]}")
    return build(**dict(defaults, **given))
