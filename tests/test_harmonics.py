import numpy as np
import pytest

from qll.grids import SphereGrid
from qll.harmonics import HarmonicTransform, band_limited_field, real_harmonic_grid, resample


def sphere_inner(grid, f, g):
    jac = grid.sintheta[:, None] * np.ones((grid.ntheta, grid.nphi))
    return grid.integrate(f * g, jac)


def test_real_harmonics_orthonormal():
    grid = SphereGrid(20, 40)
    basis = [(0, 0), (1, -1), (1, 0), (2, 2), (3, -1), (4, 0)]
    for i, (l1, m1) in enumerate(basis):
        y1 = real_harmonic_grid(grid, l1, m1)
        for (l2, m2) in basis[i:]:
            y2 = real_harmonic_grid(grid, l2, m2)
            expected = 1.0 if (l1, m1) == (l2, m2) else 0.0
            assert abs(sphere_inner(grid, y1, y2) - expected) < 1e-12


def test_transform_roundtrip_band_limited():
    grid = SphereGrid(20, 40)
    rng = np.random.default_rng(3)
    f = band_limited_field(grid, 6, rng)
    tr = HarmonicTransform(grid)
    back = tr.synthesize(tr.analyze(f))
    assert np.max(np.abs(back - f)) < 1e-11


def test_filtered_identity_and_damping():
    grid = SphereGrid(16, 32)
    tr = HarmonicTransform(grid)
    f = real_harmonic_grid(grid, 3, 2) + 0.5 * real_harmonic_grid(grid, 1, 0)
    ones = np.ones(tr.lmax + 1)
    assert np.max(np.abs(tr.filtered(f, ones) - f)) < 1e-11
    kill3 = ones.copy()
    kill3[3] = 0.0
    assert np.max(np.abs(tr.filtered(f, kill3) - 0.5 * real_harmonic_grid(grid, 1, 0))) < 1e-11


def test_filtered_is_positive_semidefinite():
    # <f, S f> >= 0 for a nonnegative damping profile
    grid = SphereGrid(16, 32)
    tr = HarmonicTransform(grid)
    damping = 1.0 / (1.0 + 0.05 * (np.arange(tr.lmax + 1) * np.arange(1, tr.lmax + 2)) ** 2)
    rng = np.random.default_rng(11)
    for _ in range(5):
        f = rng.normal(size=(16, 32))
        assert sphere_inner(grid, f, tr.filtered(f, damping)) >= -1e-12


def test_resample_between_grids():
    coarse, fine = SphereGrid(16, 32), SphereGrid(32, 64)
    terms = [(2, 1, 0.3), (7, -5, -0.2), (15, 15, 0.1)]
    on = {grid: sum(a * real_harmonic_grid(grid, l, m) for l, m, a in terms)
          for grid in (coarse, fine)}
    # inside both bands, prolongation and restriction are exact
    assert np.max(np.abs(resample(on[coarse], coarse, fine)[0] - on[fine])) < 1e-12
    assert np.max(np.abs(resample(on[fine], fine, coarse)[0] - on[coarse])) < 1e-12
    # restriction drops a degree above the coarse band, in l or in m
    for l, m in ((16, 0), (20, 17)):
        above = real_harmonic_grid(fine, l, m)
        assert np.max(np.abs(resample(on[fine] + above, fine, coarse)[0] - on[coarse])) < 1e-12


def test_restrict_reads_the_share_outside_the_band():
    coarse, fine = SphereGrid(16, 32), SphereGrid(32, 64)
    inside = 1.0 + 0.05 * real_harmonic_grid(fine, 2, 0) + 0.01 * real_harmonic_grid(fine, 15, -3)
    assert resample(inside, fine, coarse)[1] <= 1e-14
    # a 1e-9 bump above the coarse band, in l or in m, reads 1e-9 / ||F||
    norm = np.sqrt(sphere_inner(fine, inside, inside))
    for l, m in ((16, 0), (17, 16), (20, -17)):
        share = resample(inside + 1e-9 * real_harmonic_grid(fine, l, m), fine, coarse)[1]
        assert abs(share * norm / 1e-9 - 1.0) < 1e-4
    # so does content the analysis on the fine grid cannot see: its phi
    # Nyquist mode (quadrature norm sqrt(4 pi)) and a degree above its band
    nyquist = np.cos(32 * fine.phi)[None, :] * np.ones((fine.ntheta, 1))
    share = resample(inside + 1e-9 * nyquist, fine, coarse)[1]
    assert abs(share * norm / (1e-9 * np.sqrt(4.0 * np.pi)) - 1.0) < 1e-4
    assert resample(inside + 1e-9 * real_harmonic_grid(fine, 40, 5), fine, coarse)[1] > 1e-10


# The list-format transform that the coefficient array c[m, l] replaced, kept
# as an oracle: one array of degrees l = m..lmax per order m, and the transfer
# as restrict (field and share) over _synthesized.
def list_analyze(tr, F):
    Fm = np.fft.rfft(F, axis=1) / tr.grid.nphi
    return [tr._pm[m] @ (tr._wgl * Fm[:, m]) for m in range(tr.mmax + 1)]


def list_synthesize(tr, coeffs):
    Fm = np.zeros((tr.grid.ntheta, tr.grid.nphi // 2 + 1), dtype=complex)
    for m in range(tr.mmax + 1):
        Fm[:, m] = tr._pm[m].T @ coeffs[m]
    return np.fft.irfft(Fm * tr.grid.nphi, n=tr.grid.nphi, axis=1)


def list_filtered(tr, F, damping):
    coeffs = list_analyze(tr, F)
    for m in range(tr.mmax + 1):
        coeffs[m] = coeffs[m] * damping[m:tr.lmax + 1]
    return list_synthesize(tr, coeffs)


def list_synthesized(coeffs, dst):
    out = [np.zeros(dst.lmax - m + 1, dtype=complex) for m in range(dst.mmax + 1)]
    for m in range(min(len(coeffs), dst.mmax + 1)):
        n = min(len(coeffs[m]), dst.lmax - m + 1)
        out[m][:n] = coeffs[m][:n]
    return list_synthesize(dst, out)


def list_restrict(F, source, target):
    src = source.harmonic_transform
    coeffs = list_analyze(src, F)
    unseen = F - list_synthesize(src, coeffs)
    weights = source.glweights[:, None] / source.nphi
    outside = float(np.sum(weights * unseen * unseen))
    total = float(np.sum(weights * F * F))
    dst = target.harmonic_transform
    for m, c in enumerate(coeffs):
        weight = 1.0 if m == 0 else 2.0
        kept = dst.lmax - m + 1 if m <= dst.mmax else 0
        outside += weight * np.vdot(c[kept:], c[kept:]).real
    share = np.sqrt(outside / total) if total > 0.0 else 0.0
    return list_synthesized(coeffs, dst), float(share)


@pytest.mark.parametrize("shape", [(12, 24), (16, 32), (48, 96)], ids=lambda s: f"{s[0]}x{s[1]}")
def test_coefficient_array_equals_the_list_format(shape):
    grid = SphereGrid(*shape)
    fine = SphereGrid(2 * shape[0], 2 * shape[1])
    tr = grid.harmonic_transform
    ell = np.arange(tr.lmax + 1, dtype=float)
    smoothing = 1.0 / (1.0 + 0.05 * (ell * (ell + 1.0)) ** 2)
    rng = np.random.default_rng(19)
    for _ in range(3):
        F = rng.normal(size=shape)
        for damping in (smoothing, np.ones(tr.lmax + 1)):
            assert np.array_equal(tr.filtered(F, damping), list_filtered(tr, F, damping))
        for target in (grid.coarse_grid, fine):
            field, share = resample(F, grid, target)
            expected_field, expected_share = list_restrict(F, grid, target)
            assert np.array_equal(field, expected_field)
            assert share == expected_share
