"""A test oracle for the curvature closed forms: exact second derivatives of
the catalog metrics, central differences and the Riemann formula.

The library reads a space's derivatives and curvature only through its
closed forms dmetric_fn, dk_fn and ricci_fn.  The oracle checks them two
ways.  exact_metric gives each catalog entry's d2g[..., c, d, a, b] =
d_c d_d g_ab, written from its radial functions, to feed the one Riemann
formula (riemann_up).  differenced and differenced_ricci form the same
quantities from central differences of metric_fn and k_fn alone, so that a
space built from them (conftest.fd_space) is an independent route to every
closed form.
"""

import numpy as np

from qll.ambient import _christoffels, _first_kind, _spd_inverse

_EPS = np.finfo(float).eps
_EYE = np.eye(3)
# d_c d_d (x_a x_b) = delta_ca delta_db + delta_cb delta_da
_DDXX = np.einsum("ca,db->cdab", _EYE, _EYE) + np.einsum("cb,da->cdab", _EYE, _EYE)


def _reissner_nordstrom(m, q=0.0):
    """psi = N / D with N = 2mr - q^2, D = r^2 (r^2 - 2mr + q^2); r = 0 is outside the chart."""
    def radial(r):
        N, D = 2.0 * m * r - q * q, r ** 2 * (r ** 2 - 2.0 * m * r + q * q)
        D1 = 4.0 * r ** 3 - 6.0 * m * r ** 2 + 2.0 * q * q * r
        D2 = 12.0 * r ** 2 - 12.0 * m * r + 2.0 * q * q
        dpsi = (2.0 * m * D - N * D1) / D ** 2
        d2psi = -N * D2 / D ** 2 - 2.0 * D1 * (2.0 * m * D - N * D1) / D ** 3   # N'' = 0
        return N / D, dpsi / r, (d2psi - dpsi / r) / r ** 2
    return radial


def _hyperbolic(a):
    def radial(r):
        s = a * a + r * r
        return -1.0 / s, 2.0 / s ** 2, -8.0 / s ** 3
    return radial


def _paraboloid(alpha):
    def radial(r):
        zero = np.zeros_like(r)
        return zero - alpha * alpha, zero, zero
    return radial


def _euclidean():
    return lambda r: (np.zeros_like(r),) * 3


# areal-polar entries g = delta + psi(r) x x: name -> params -> r -> (psi, u1, u2)
# with the ratios u1 = psi'/r and u2 = u1'/r, smooth where r = 0 is in the chart
AREAL = {
    "euclidean": _euclidean,
    "schwarzschild": _reissner_nordstrom,
    "reissner_nordstrom": _reissner_nordstrom,
    "hyperboloid": _hyperbolic,
    "hyperbolic": _hyperbolic,
    "paraboloid": _paraboloid,
}


def _hemisphere(radius):
    """C = (1 + r^2 / 4R^2)^-2 and the ratios w1 = C'/r, w2 = w1'/r."""
    def ratios(r):
        s = 1.0 + r * r / (4.0 * radius ** 2)
        return s ** -2.0, -1.0 / (radius ** 2 * s ** 3), 1.5 / (radius ** 4 * s ** 4)
    return ratios


def exact_metric(name, **params):
    """(metric, d2metric) of a catalog entry, from its radial functions."""
    if name == "hemisphere":
        ratios = _hemisphere(**params)

        def metric(x):
            return ratios(np.linalg.norm(x, axis=-1))[0][..., None, None] * _EYE

        def d2metric(x):
            # d_c d_d g_ab = (w2 x_c x_d + w1 delta_cd) delta_ab
            _, w1, w2 = ratios(np.linalg.norm(x, axis=-1))
            xx = np.einsum("...c,...d->...cd", x, x)
            core = w2[..., None, None] * xx + w1[..., None, None] * _EYE
            return np.einsum("...cd,ab->...cdab", core, _EYE)

        return metric, d2metric

    radial = AREAL[name](**params)

    def metric(x):
        psi = radial(np.linalg.norm(x, axis=-1))[0]
        return _EYE + psi[..., None, None] * np.einsum("...a,...b->...ab", x, x)

    def d2metric(x):
        # d_c d_d g_ab = u2 x_c x_d x_a x_b + psi d_c d_d (x_a x_b)
        #   + u1 (delta_cd x_a x_b + x_c d_d (x_a x_b) + x_d d_c (x_a x_b))
        psi, u1, u2 = radial(np.linalg.norm(x, axis=-1))
        xx = np.einsum("...a,...b->...ab", x, x)
        dxx = np.einsum("ca,...b->...cab", _EYE, x) + np.einsum("cb,...a->...cab", _EYE, x)
        lin = (np.einsum("cd,...ab->...cdab", _EYE, xx) + np.einsum("...c,...dab->...cdab", x, dxx)
               + np.einsum("...d,...cab->...cdab", x, dxx))
        return (u2[..., None, None, None, None] * np.einsum("...cd,...ab->...cdab", xx, xx)
                + u1[..., None, None, None, None] * lin + psi[..., None, None, None, None] * _DDXX)

    return metric, d2metric


# ---------------------------------------------------------------------------
# central differences and the Riemann formula

def fd_steps(points):
    """First- and second-derivative steps, one pair per point.

    Per point, the optimal central-difference steps (truncation vs roundoff)
    scale with max(1, |x|), so a point's differences do not depend on the
    other points of the batch.
    """
    scale = np.maximum(1.0, np.linalg.norm(points, axis=-1))[..., None]
    return scale * _EPS ** (1.0 / 3.0), scale * _EPS ** 0.25


def fd_first(fn, points, h):
    """d_c fn by central differences with a step h from fd_steps (or a scalar step)."""
    h = np.asarray(h)
    d = np.stack([fn(points + h * e) - fn(points - h * e) for e in np.eye(3)],
                 axis=points.ndim - 1)
    # h per point, broadcast over c and fn's tensor indices
    return d / (2.0 * h).reshape(h.shape[:-1] + (1,) * (d.ndim - points.ndim + 1))


def fd_second(fn, points, h):
    """d_d d_c fn: the differences of the differences, symmetrized in (d, c)."""
    d2 = fd_first(lambda x: fd_first(fn, x, h), points, h)
    return 0.5 * (d2 + np.swapaxes(d2, -4, -3))


def differenced(fn):
    """d_c fn by central differences with the first-derivative steps of fd_steps."""
    return lambda points: fd_first(fn, points, fd_steps(points)[0])


def riemann_up(ginv, gamma, dg, d2g):
    """R^a_bcd = d_c Gamma^a_db - d_d Gamma^a_cb + Gamma^a_ce Gamma^e_db - Gamma^a_de Gamma^e_cb.

    With d_c Gamma^a_db = (d_c g^{ae} T_edb + g^{ae} d_c T_edb) / 2 and
    d_c g^{ae} = -(g^{-1} d_c g g^{-1})^{ae}, both halves of
    M[c, a, d, b] = d_c Gamma^a_db + Gamma^a_ce Gamma^e_db are batched
    (3 x 3) @ (3 x 9) products, and R^a_bcd = M[c, a, d, b] - M[d, a, c, b].
    _first_kind of d2g is d_c T_edb, because d2g[..., c, :, :, :] = d_c dg.
    """
    batch = ginv.shape[:-2]
    gi = ginv[..., None, :, :]
    dginv = -(gi @ dg @ gi)                                  # [c, a, e]
    T = _first_kind(dg).reshape(batch + (1, 3, 9))
    dT = _first_kind(d2g).reshape(batch + (3, 3, 9))         # d_c T_edb
    gs = np.swapaxes(gamma, -3, -2)                          # gs[c, a, e] = Gamma^a_ce
    M = 0.5 * (dginv @ T + gi @ dT) + gs @ gamma.reshape(batch + (1, 3, 9))
    M = M.reshape(batch + (3, 3, 3, 3))
    # [c, a, d, b] -> [a, b, c, d]
    return np.moveaxis(M - np.swapaxes(M, -4, -2), (-4, -3, -2, -1), (-2, -4, -1, -3))


def differenced_ricci(metric_fn, dmetric_fn):
    """R_ab as the contraction R^a_bad of the Riemann tensor of central-difference
    d2g, with dg and Gamma from dmetric_fn."""
    def ricci(points):
        ginv = _spd_inverse(metric_fn(points), "oracle")
        dg = dmetric_fn(points)
        d2g = fd_second(metric_fn, points, fd_steps(points)[1])
        return np.trace(riemann_up(ginv, _christoffels(ginv, dg), dg, d2g), axis1=-4, axis2=-2)
    return ricci
