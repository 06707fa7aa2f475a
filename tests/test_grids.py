import numpy as np
import pytest

from qll.grids import SphereGrid


def smooth_field(grid, parity=1):
    """A smooth test field with the requested pole-continuation parity."""
    th = grid.theta[:, None]
    ph = grid.phi[None, :]
    if parity == 1:
        return np.cos(th) + np.sin(th) * np.cos(ph) * np.ones_like(th + ph)
    # one theta index: e.g. d/dtheta of the even field above
    return -np.sin(th) + np.cos(th) * np.cos(ph) * np.ones_like(th + ph)


def test_grid_rejects_bad_shapes():
    with pytest.raises(ValueError):
        SphereGrid(2, 32)
    with pytest.raises(ValueError):
        SphereGrid(16, 31)


def test_dtheta_spectral_accuracy():
    grid = SphereGrid(24, 48)
    f = smooth_field(grid)
    th = grid.theta[:, None]
    ph = grid.phi[None, :]
    exact = -np.sin(th) + np.cos(th) * np.cos(ph) * np.ones_like(f)
    assert np.max(np.abs(grid.dtheta(f) - exact)) < 1e-11


def test_d2theta_spectral_accuracy():
    grid = SphereGrid(24, 48)
    f = smooth_field(grid)
    th = grid.theta[:, None]
    ph = grid.phi[None, :]
    exact = -np.cos(th) - np.sin(th) * np.cos(ph) * np.ones_like(f)
    assert np.max(np.abs(grid.d2theta(f) - exact)) < 1e-9


def test_dtheta_odd_parity():
    grid = SphereGrid(24, 48)
    f = smooth_field(grid, parity=-1)
    th = grid.theta[:, None]
    ph = grid.phi[None, :]
    exact = -np.cos(th) - np.sin(th) * np.cos(ph) * np.ones_like(f)
    assert np.max(np.abs(grid.dtheta(f, parity=-1) - exact)) < 1e-11


def test_derivatives_annihilate_constants():
    grid = SphereGrid(32, 64)
    c = np.full((32, 64), 3.7)
    assert np.max(np.abs(grid.dtheta(c))) < 1e-11
    assert np.max(np.abs(grid.d2theta(c))) < 1e-9
    assert np.max(np.abs(grid.dphi(c))) == 0.0
    assert np.max(np.abs(grid.d2phi(c))) < 1e-12


def test_dphi_fourth_order():
    f = lambda grid: np.sin(3.0 * grid.phi)[None, :] * np.ones((grid.ntheta, grid.nphi))
    errs = []
    for nphi in (32, 64):
        grid = SphereGrid(16, nphi)
        exact = 3.0 * np.cos(3.0 * grid.phi)[None, :] * np.ones((16, nphi))
        errs.append(np.max(np.abs(grid.dphi(f(grid)) - exact)))
    assert errs[1] < errs[0] / 12.0  # 4th order: factor 16 per doubling


def test_quadrature_unit_sphere_area():
    grid = SphereGrid(16, 32)
    jac = grid.sintheta[:, None] * np.ones((16, 32))
    val = grid.integrate(np.ones((16, 32)), jac)
    assert abs(val - 4.0 * np.pi) < 1e-12


def test_quadrature_spherical_harmonic_orthogonality():
    from qll.harmonics import real_harmonic_grid
    grid = SphereGrid(16, 32)
    jac = grid.sintheta[:, None] * np.ones((16, 32))
    y22 = real_harmonic_grid(grid, 2, 2)
    y31 = real_harmonic_grid(grid, 3, 1)
    assert abs(grid.integrate(y22 * y22, jac) - 1.0) < 1e-12
    assert abs(grid.integrate(y22 * y31, jac)) < 1e-12


def test_nonfinite_field_raises():
    from qll.errors import NumericError
    grid = SphereGrid(16, 32)
    f = np.ones((16, 32))
    f[3, 5] = np.nan
    with pytest.raises(NumericError):
        grid.integrate(f, np.ones_like(f))


def test_pole_continuation_identity():
    # the extension rule r(-theta, phi + pi) = r(theta, phi) is exactly what
    # _doubled implements; differentiating data synthesized from a global
    # smooth function must then be consistent between the paired meridians
    grid = SphereGrid(20, 40)
    th = grid.theta[:, None]
    ph = grid.phi[None, :]
    f = np.sin(th) ** 2 * np.cos(2 * ph) + np.cos(th)
    doubled = grid._doubled(f, 1)
    assert np.allclose(doubled[grid.ntheta:], np.roll(f, grid.nphi // 2, axis=1))


BIT_GRIDS = [(12, 24), (16, 32), (48, 96)]


def roll_dphi(grid, F):
    h = grid.dphi_step
    return (8.0 * (np.roll(F, -1, axis=1) - np.roll(F, 1, axis=1))
            - (np.roll(F, -2, axis=1) - np.roll(F, 2, axis=1))) / (12.0 * h)


def roll_d2phi(grid, F):
    h = grid.dphi_step
    return (-(np.roll(F, -2, axis=1) + np.roll(F, 2, axis=1))
            + 16.0 * (np.roll(F, -1, axis=1) + np.roll(F, 1, axis=1))
            - 30.0 * F) / (12.0 * h ** 2)


@pytest.mark.parametrize("shape", BIT_GRIDS, ids=[f"{nt}x{nph}" for nt, nph in BIT_GRIDS])
def test_phi_stencils_and_doubling_equal_the_roll_forms(shape):
    # the same operations in the same order as the np.roll stencils: equal, not close
    grid = SphereGrid(*shape)
    F = np.random.default_rng(shape[0]).standard_normal(shape) * np.logspace(-6, 6, shape[1])
    assert np.array_equal(grid.dphi(F), roll_dphi(grid, F))
    assert np.array_equal(grid.d2phi(F), roll_d2phi(grid, F))
    for parity in (1, -1):
        rolled = np.concatenate([F, parity * np.roll(F, grid.nphi // 2, axis=1)], axis=0)
        assert np.array_equal(grid._doubled(F, parity), rolled)
        assert np.array_equal(grid.dtheta(F, parity), grid._dt1 @ rolled)
