"""Gauss-Legendre x uniform-phi grids on the sphere.

Scalar fields live on arrays of shape (ntheta, nphi) with theta increasing
in (0, pi) (Gauss-Legendre nodes in cos theta, so the poles are excluded)
and phi uniform periodic on [0, 2pi).

Differentiation in theta interpolates trigonometrically on the closed
meridian circle obtained by continuing a field through the poles with

    f(-theta, phi + pi) = parity * f(theta, phi),

where parity is +1 for scalars and (-1)^(#theta indices) for tensor
components in the (theta, phi) coordinate basis.  Differentiation in phi
uses 4th-order periodic central differences.
"""

from functools import cached_property

import numpy as np

from .errors import NumericError
from .harmonics import HarmonicTransform

TWO_PI = 2.0 * np.pi


class SphereGrid:
    """Nodes, quadrature weights and differentiation operators."""

    def __init__(self, ntheta, nphi):
        if ntheta < 4:
            raise ValueError("ntheta must be >= 4")
        if nphi < 8 or nphi % 2 != 0:
            # pole continuation pairs phi_j with phi_{j + nphi/2}
            raise ValueError("nphi must be even and >= 8")
        self.ntheta = int(ntheta)
        self.nphi = int(nphi)

        x, w = np.polynomial.legendre.leggauss(self.ntheta)
        order = np.argsort(-x)  # cos(theta) decreasing <=> theta increasing
        self.costheta = x[order]
        self.glweights = w[order]
        self.theta = np.arccos(self.costheta)
        self.sintheta = np.sin(self.theta)
        self.phi = TWO_PI * np.arange(self.nphi) / self.nphi
        self.dphi_step = TWO_PI / self.nphi

        # quadrature of f dtheta dphi against sin(theta):  sum(wq * f)
        self.base_weights = (self.glweights / self.sintheta)[:, None] \
            * np.full(self.nphi, self.dphi_step)

        self._build_theta_operators()
        self._build_unit_sphere_fields()

    # -- theta: trigonometric differentiation on the doubled meridian circle

    def _build_theta_operators(self):
        n = self.ntheta
        t = np.concatenate([self.theta, TWO_PI - self.theta])
        # basis: cos(k t), k = 0..n-1  and  sin(k t), k = 1..n.
        # cos(n t) is omitted: the doubled node set has only n distinct
        # values of cos(t), so the even block would be rank deficient.
        kc = np.arange(0, n)
        ks = np.arange(1, n + 1)
        C = np.cos(np.outer(t, kc))
        S = np.sin(np.outer(t, ks))
        V = np.concatenate([C, S], axis=1)
        V1 = np.concatenate([-kc * np.sin(np.outer(t, kc)), ks * np.cos(np.outer(t, ks))], axis=1)
        V2 = np.concatenate([-(kc ** 2) * C, -(ks ** 2) * S], axis=1)
        Vinv = np.linalg.inv(V)
        # only rows at the original (first n) nodes are needed
        self._dt1 = (V1 @ Vinv)[:n]
        self._dt2 = (V2 @ Vinv)[:n]
        # negative-sum trick: make both operators annihilate constants
        # exactly, which keeps coordinate-sphere geometry at the eps floor
        for d in (self._dt1, self._dt2):
            idx = np.arange(n)
            d[idx, idx] -= d.sum(axis=1)

    def _doubled(self, F, parity):
        mirrored = np.roll(F, self.nphi // 2, axis=1)
        return np.concatenate([F, parity * mirrored], axis=0)

    def dtheta(self, F, parity=1):
        return self._dt1 @ self._doubled(F, parity)

    def d2theta(self, F, parity=1):
        return self._dt2 @ self._doubled(F, parity)

    # -- phi: 4th-order periodic central differences

    def dphi(self, F):
        h = self.dphi_step
        return (8.0 * (np.roll(F, -1, axis=1) - np.roll(F, 1, axis=1))
                - (np.roll(F, -2, axis=1) - np.roll(F, 2, axis=1))) / (12.0 * h)

    def d2phi(self, F):
        h = self.dphi_step
        return (-(np.roll(F, -2, axis=1) + np.roll(F, 2, axis=1))
                + 16.0 * (np.roll(F, -1, axis=1) + np.roll(F, 1, axis=1))
                - 30.0 * F) / (12.0 * h ** 2)

    def dthetaphi(self, F, parity=1):
        return self.dphi(self.dtheta(F, parity))

    # -- unit-sphere direction fields (analytic, used to assemble embeddings)

    def _build_unit_sphere_fields(self):
        st = self.sintheta[:, None]
        ct = self.costheta[:, None]
        cp = np.cos(self.phi)[None, :]
        sp = np.sin(self.phi)[None, :]
        zeros = np.zeros((self.ntheta, self.nphi))

        def pack(a, b, c):
            return np.stack(np.broadcast_arrays(a, b, c), axis=-1)

        self.nhat = pack(st * cp, st * sp, ct + zeros)
        self.dth_nhat = pack(ct * cp, ct * sp, -st + zeros)
        self.dph_nhat = pack(-st * sp, st * cp, zeros)
        self.d2th_nhat = -self.nhat
        self.dthph_nhat = pack(-ct * sp, ct * cp, zeros)
        self.d2ph_nhat = pack(-st * cp, -st * sp, zeros)

    # -- spherical-harmonic analysis and the half grid, built once per grid

    @cached_property
    def harmonic_transform(self):
        return HarmonicTransform(self)

    @cached_property
    def coarse_grid(self):
        """The half grid (ntheta//2, 2*(nphi//4)) of the flow's coarse stage."""
        return SphereGrid(self.ntheta // 2, 2 * (self.nphi // 4))

    # -- quadrature

    def integrate(self, F, jacobian):
        """Integral of F * jacobian dtheta dphi; jacobian = sqrt(det g_Sigma)."""
        vals = F * jacobian
        if not np.all(np.isfinite(vals)):
            raise NumericError("non-finite field value in quadrature")
        return float(np.sum(self.base_weights * vals))
