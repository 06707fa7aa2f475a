import numpy as np

from qll.grids import SphereGrid
from qll.harmonics import (HarmonicTransform, band_limited_field,
                           real_harmonic_grid, resample)


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
    assert np.max(np.abs(resample(on[coarse], coarse, fine) - on[fine])) < 1e-12
    assert np.max(np.abs(resample(on[fine], fine, coarse) - on[coarse])) < 1e-12
    # restriction drops a degree above the coarse band, in l or in m
    for l, m in ((16, 0), (20, 17)):
        above = real_harmonic_grid(fine, l, m)
        assert np.max(np.abs(resample(on[fine] + above, fine, coarse) - on[coarse])) < 1e-12
