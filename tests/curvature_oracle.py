"""Exact second derivatives of the catalog metrics, a test oracle.

The library reads a catalog space's curvature only through its closed-form
Ricci tensor.  These d2g[..., c, d, a, b] = d_c d_d g_ab, written from each
entry's radial functions, feed the one Riemann formula (ambient._riemann_up)
so that the closed forms can be checked against it.
"""

import numpy as np

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
