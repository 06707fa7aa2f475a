"""Real spherical harmonics on SphereGrid nodes.

Provides pointwise evaluation (surface perturbations, test lapses), a
Gauss-Legendre-exact analysis/synthesis pair used to filter fields by
spherical-harmonic degree, and one transfer between grids through the
coefficients (resample), which also reads the share of a field outside the
target grid's band.
"""

import numpy as np


def _legendre_table(x, lmax, m):
    """Normalized associated Legendre P~_l^m(x) for l = m..lmax.

    Normalization: integral of (P~_l^m)^2 over [-1, 1] equals 1, so that
    Y_lm = P~_l^m(cos theta) e^(i m phi) / sqrt(2 pi) is orthonormal on S^2.
    Returns array of shape (lmax - m + 1, len(x)).
    """
    x = np.asarray(x, dtype=float)
    s = np.sqrt(np.clip(1.0 - x * x, 0.0, None))
    pmm = np.full_like(x, np.sqrt(0.5))
    for k in range(1, m + 1):
        pmm = -np.sqrt((2 * k + 1) / (2.0 * k)) * s * pmm
    rows = [pmm]
    if lmax > m:
        rows.append(np.sqrt(2 * m + 3.0) * x * pmm)
    for l in range(m + 2, lmax + 1):
        a = np.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
        b = np.sqrt(((l - 1.0) ** 2 - m * m) / (4.0 * (l - 1.0) ** 2 - 1.0))
        rows.append(a * (x * rows[-1] - b * rows[-2]))
    return np.stack(rows, axis=0)


def real_harmonic(l, m, theta, phi):
    """Orthonormal real spherical harmonic Y_{lm} (Condon-Shortley phase)."""
    if abs(m) > l:
        raise ValueError("need |m| <= l")
    x = np.cos(theta)
    p = _legendre_table(x, l, abs(m))[-1]
    if m == 0:
        return p / np.sqrt(2.0 * np.pi)
    if m > 0:
        return p * np.cos(m * phi) / np.sqrt(np.pi)
    return p * np.sin(-m * phi) / np.sqrt(np.pi)


def real_harmonic_grid(grid, l, m):
    """real_harmonic sampled on all grid nodes, shape (ntheta, nphi)."""
    theta = grid.theta[:, None]
    phi = grid.phi[None, :]
    return real_harmonic(l, m, theta, phi) * np.ones((grid.ntheta, grid.nphi))


def band(ntheta, nphi):
    """(lmax, mmax), the degrees and orders that an ntheta x nphi grid resolves."""
    return ntheta - 1, min(ntheta - 1, nphi // 2 - 1)


class HarmonicTransform:
    """Analysis/synthesis between grid fields and harmonic coefficients.

    Coefficients are one complex array c[m, l], m = 0..mmax and l = 0..lmax,
    zero where l < m (orders m < 0 follow from c_{l,-m} = conj(c_lm) for a real
    field).  Exact (to roundoff) for fields band-limited to degree
    lmax = ntheta - 1 and order |m| <= nphi/2 - 1; higher content is discarded,
    which makes `filtered` a symmetric positive semi-definite smoother.
    """

    def __init__(self, grid):
        self.grid = grid
        self.lmax, self.mmax = band(grid.ntheta, grid.nphi)
        # per-m Legendre matrices on the Gauss-Legendre nodes
        self._pm = [_legendre_table(grid.costheta, self.lmax, m)
                    for m in range(self.mmax + 1)]
        self._wgl = grid.glweights

    def analyze(self, F):
        """Complex coefficients c[m, l] of F against P~_l^m e^(i m phi)."""
        Fm = np.fft.rfft(F, axis=1) / self.grid.nphi
        c = np.zeros((self.mmax + 1, self.lmax + 1), dtype=complex)
        for m in range(self.mmax + 1):
            c[m, m:] = self._pm[m] @ (self._wgl * Fm[:, m])
        return c

    def synthesize(self, c):
        Fm = np.zeros((self.grid.ntheta, self.grid.nphi // 2 + 1), dtype=complex)
        for m in range(self.mmax + 1):
            Fm[:, m] = self._pm[m].T @ c[m, m:]
        return np.fft.irfft(Fm * self.grid.nphi, n=self.grid.nphi, axis=1)

    def filtered(self, F, damping):
        """Apply a per-degree factor damping(l) (array over l = 0..lmax)."""
        return self.synthesize(self.analyze(F) * np.asarray(damping, dtype=float))


def resample(F, source, target):
    """F on grid source carried to grid target, and the L2 share of F outside target's band.

    The field goes through the harmonic coefficients of one analysis on
    source: those outside target's band are dropped (restriction) and those
    outside source's band are zero (prolongation), so a field inside both
    bands is carried exactly, to roundoff.  The share ||F - P F|| / ||F||, with
    P the projection onto target's degrees and orders, is read from the same
    analysis: its coefficients outside target's band, plus the part of F that
    the analysis cannot see (F less the synthesis of its coefficients: the phi
    Nyquist mode, and degrees above source's band at each order), which the
    restriction would otherwise drop unnoticed.
    """
    src, dst = source.harmonic_transform, target.harmonic_transform
    c = src.analyze(F)
    unseen = F - src.synthesize(c)
    # squared norms in coefficient units: the quadrature over the sphere / (2 pi)
    weights = source.glweights[:, None] / source.nphi
    outside = float(np.sum(weights * unseen * unseen))
    total = float(np.sum(weights * F * F))
    for m in range(src.mmax + 1):
        weight = 1.0 if m == 0 else 2.0          # c_{l,-m} = conj(c_lm) for a real F
        tail = c[m, dst.lmax + 1:] if m <= dst.mmax else c[m, m:]
        outside += weight * np.vdot(tail, tail).real
    share = np.sqrt(outside / total) if total > 0.0 else 0.0
    kept = np.zeros((dst.mmax + 1, dst.lmax + 1), dtype=complex)
    m, l = min(src.mmax, dst.mmax) + 1, min(src.lmax, dst.lmax) + 1
    kept[:m, :l] = c[:m, :l]
    return dst.synthesize(kept), float(share)


def band_limited_field(grid, lmax, rng, scale=1.0):
    """Random real field with content only in degrees 2..lmax."""
    F = np.zeros((grid.ntheta, grid.nphi))
    for l in range(2, lmax + 1):
        for m in range(-l, l + 1):
            F += rng.normal(scale=scale) * real_harmonic_grid(grid, l, m)
    return F
