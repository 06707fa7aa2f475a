"""Real spherical harmonics on SphereGrid nodes.

Provides pointwise evaluation (surface perturbations, test lapses), a
Gauss-Legendre-exact analysis/synthesis pair used to filter fields by
spherical-harmonic degree, and resampling between grids through the
coefficients.
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


class HarmonicTransform:
    """Analysis/synthesis between grid fields and harmonic coefficients.

    Exact (to roundoff) for fields band-limited to degree lmax = ntheta - 1
    and order |m| <= nphi/2 - 1; higher content is discarded, which makes `filtered`
    a symmetric positive semi-definite smoother.
    """

    def __init__(self, grid):
        self.grid = grid
        self.lmax = grid.ntheta - 1
        self.mmax = min(self.lmax, grid.nphi // 2 - 1)
        # per-m Legendre matrices on the Gauss-Legendre nodes
        self._pm = [_legendre_table(grid.costheta, self.lmax, m)
                    for m in range(self.mmax + 1)]
        self._wgl = grid.glweights

    def analyze(self, F):
        """Complex coefficients c[m][l - m] of F against P~_l^m e^(i m phi)."""
        Fm = np.fft.rfft(F, axis=1) / self.grid.nphi
        coeffs = []
        for m in range(self.mmax + 1):
            coeffs.append(self._pm[m] @ (self._wgl * Fm[:, m]))
        return coeffs

    def synthesize(self, coeffs):
        Fm = np.zeros((self.grid.ntheta, self.grid.nphi // 2 + 1), dtype=complex)
        for m in range(self.mmax + 1):
            Fm[:, m] = self._pm[m].T @ coeffs[m]
        return np.fft.irfft(Fm * self.grid.nphi, n=self.grid.nphi, axis=1)

    def filtered(self, F, damping):
        """Apply a per-degree factor damping(l) (array over l = 0..lmax)."""
        damping = np.asarray(damping, dtype=float)
        coeffs = self.analyze(F)
        for m in range(self.mmax + 1):
            coeffs[m] = coeffs[m] * damping[m:self.lmax + 1]
        return self.synthesize(coeffs)


def resample(F, source, target):
    """F on grid source carried to grid target through its harmonic coefficients.

    Coefficients outside the target's band are dropped (restriction) and those
    outside the source's band are zero (prolongation), so a field inside both
    bands is carried exactly, to roundoff.
    """
    src, dst = source.harmonic_transform, target.harmonic_transform
    coeffs = src.analyze(F)
    out = [np.zeros(dst.lmax - m + 1, dtype=complex) for m in range(dst.mmax + 1)]
    for m in range(min(src.mmax, dst.mmax) + 1):
        n = min(src.lmax, dst.lmax) - m + 1
        out[m][:n] = coeffs[m][:n]
    return dst.synthesize(out)


def band_limited_field(grid, lmax, rng, scale=1.0):
    """Random real field with content only in degrees 2..lmax."""
    F = np.zeros((grid.ntheta, grid.nphi))
    for l in range(2, lmax + 1):
        for m in range(-l, l + 1):
            F += rng.normal(scale=scale) * real_harmonic_grid(grid, l, m)
    return F
