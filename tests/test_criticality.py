import numpy as np
import pytest

from qll import criticality as cr
from qll import surface as sf
from qll.ambient import catalog
from qll.grids import SphereGrid
from qll.harmonics import band_limited_field, real_harmonic_grid


# -- willmore mode ------------------------------------------------------------

def test_euclidean_round_sphere_critical(grid48, euclidean):
    geom = sf.induced_geometry(euclidean, sf.coordinate_sphere(grid48, 1.0))
    rep = cr.residual_report(euclidean, geom, "willmore", 0.0)
    assert rep.linf_residual < 1e-6
    assert abs(rep.lambda_star) < 1e-8


def test_hyperboloid_willmore_multiplier(grid48, hyperboloid):
    # corrected space-form Ricci gives lambda = 2/a^2
    geom = sf.induced_geometry(hyperboloid, sf.coordinate_sphere(grid48, 1.0))
    assert cr.residual_report(hyperboloid, geom, "willmore", 2.0).linf_residual < 1e-6
    assert abs(cr.residual_report(hyperboloid, geom, "willmore").lambda_star - 2.0) < 1e-6


def test_schwarzschild_willmore_multiplier(grid48, schwarzschild):
    geom = sf.induced_geometry(schwarzschild, sf.coordinate_sphere(grid48, 4.0))
    lam = cr.residual_report(schwarzschild, geom, "willmore").lambda_star
    # constant on the sphere: lambda* = -Lap H / H - Ric(nu,nu) = 2m/r^3
    assert abs(lam - 2.0 / 64.0) < 1e-6
    assert cr.residual_report(schwarzschild, geom, "willmore", lam).linf_residual < 1e-6


# -- hawking mode -------------------------------------------------------------

def test_reduces_to_willmore_when_k_zero(grid32, schwarzschild):
    geom = sf.induced_geometry(schwarzschild, sf.coordinate_sphere(grid32, 4.0))
    rw = cr.residual_report(schwarzschild, geom, "willmore", 0.3).residual_field
    rh = cr.residual_report(schwarzschild, geom, "hawking", 0.3).residual_field
    assert np.max(np.abs(rw - rh)) < 1e-12


def test_hyperboloid_spheres_are_critical(grid48, hyperboloid):
    for r in (0.5, 1.0, 2.0):
        geom = sf.induced_geometry(hyperboloid, sf.coordinate_sphere(grid48, r))
        assert cr.residual_report(hyperboloid, geom, "hawking", 0.0).linf_residual < 1e-6


def test_paraboloid_spheres_are_critical(grid48, paraboloid):
    for r in (0.5, 1.0, 1.5):
        geom = sf.induced_geometry(paraboloid, sf.coordinate_sphere(grid48, r))
        assert cr.residual_report(paraboloid, geom, "hawking", 0.0).linf_residual < 1e-6


def test_paraboloid_willmore_multiplier(grid48, paraboloid):
    for r in (0.5, 1.0, 1.5):
        geom = sf.induced_geometry(paraboloid, sf.coordinate_sphere(grid48, r))
        lam = cr.residual_report(paraboloid, geom, "willmore").lambda_star
        u = 0.25 * r * r
        assert abs(lam - 0.5 / (1.0 - u) ** 2) < 1e-6
        assert abs(cr.residual_report(paraboloid, geom, "hawking").lambda_star) < 1e-8


# -- lambda* / reports --------------------------------------------------------

def test_lambda_star_orthogonality(grid32, schwarzschild):
    mesh = sf.round_sphere_with_harmonics(grid32, 4.0, [(2, 0, 0.05)])
    geom = sf.induced_geometry(schwarzschild, mesh)
    rep = cr.residual_report(schwarzschild, geom, "willmore")
    assert abs(sf.integrate(geom, rep.residual_field * geom.H)) < 1e-10 * rep.l2_residual + 1e-12


def test_residual_floor_under_refinement(hyperboloid):
    # on symmetric critical surfaces every field is constant, so there is no
    # truncation error to converge away: the residual sits at the roundoff
    # floor from the first resolution on
    linfs = []
    for (nt, nph) in ((24, 48), (48, 96)):
        grid = SphereGrid(nt, nph)
        geom = sf.induced_geometry(hyperboloid, sf.coordinate_sphere(grid, 1.0))
        linfs.append(cr.residual_report(hyperboloid, geom, "hawking", 0.0).linf_residual)
    assert all(v < 1e-7 for v in linfs)


def test_invalid_mode_rejected(grid32, euclidean):
    geom = sf.induced_geometry(euclidean, sf.coordinate_sphere(grid32, 1.0))
    with pytest.raises(ValueError):
        cr.residual_report(euclidean, geom, "maximal")


# -- first_variation_check ----------------------------------------------------

def test_variation_constant_lapse_on_round_sphere(grid32, euclidean):
    mesh = sf.coordinate_sphere(grid32, 1.0)
    alpha = np.ones((32, 64))
    chk = cr.first_variation_check(euclidean, mesh, alpha, s_values=(1e-2, 5e-3))
    # both the derivative of the functional and the prediction vanish
    assert abs(chk.prediction) < 1e-10
    assert all(abs(row.quotient) < 1e-8 for row in chk.rows)


def test_variation_y2_on_round_sphere(grid32, euclidean):
    mesh = sf.coordinate_sphere(grid32, 1.0)
    alpha = real_harmonic_grid(grid32, 2, 0)
    chk = cr.first_variation_check(euclidean, mesh, alpha,
                                   s_values=(4e-3, 2e-3, 1e-3))
    assert chk.rows[-1].rel_error < 1e-3
    assert chk.observed_order > 1.9


def test_variation_exercises_k_terms(grid32, paraboloid):
    rng = np.random.default_rng(5)
    mesh = sf.round_sphere_with_harmonics(grid32, 1.0, [(2, 1, 0.02)])
    alpha = band_limited_field(grid32, 4, rng, scale=0.3)
    chk = cr.first_variation_check(paraboloid, mesh, alpha,
                                   s_values=(1.6e-2, 8e-3, 1e-3))
    assert chk.rows[-1].rel_error < 1e-2
    assert chk.observed_order > 1.9


def test_variation_order_is_nan_below_roundoff(grid24, hyperboloid):
    # zonal surface, m = 1 lapse: the functional is even in s, so every
    # quotient error is roundoff and has no order
    mesh = sf.round_sphere_with_harmonics(grid24, 1.0, [(2, 0, 0.05)])
    alpha = real_harmonic_grid(grid24, 3, 1)
    chk = cr.first_variation_check(hyperboloid, mesh, alpha, s_values=(1.6e-2, 8e-3, 4e-3))
    assert abs(chk.prediction) < 1e-14
    assert all(row.abs_error < 1e-13 / row.s for row in chk.rows)
    assert np.isnan(chk.observed_order)
    assert all(np.isnan(order) for order in chk.pairwise_orders)


@pytest.mark.parametrize("name,params,r", [
    ("euclidean", {}, 1.0),
    ("schwarzschild", {"m": 1.0}, 4.0),
    ("hyperboloid", {"a": 1.0}, 1.0),
    ("paraboloid", {"alpha": 0.5}, 1.0),
])
def test_variation_second_order_on_catalog(grid32, name, params, r):
    space = catalog(name, **params)
    mesh = sf.round_sphere_with_harmonics(grid32, r, [(2, 0, 0.02), (3, 1, 0.01)])
    alpha = real_harmonic_grid(grid32, 2, 0) + 0.5 * real_harmonic_grid(grid32, 3, -1)
    chk = cr.first_variation_check(space, mesh, alpha, s_values=(1.6e-2, 8e-3, 4e-3))
    assert chk.observed_order > 1.9
    assert chk.rows[-1].rel_error < 1e-2


def test_radial_rate_on_round_sphere_is_lapse(grid32, euclidean):
    geom = sf.induced_geometry(euclidean, sf.coordinate_sphere(grid32, 1.7))
    alpha = band_limited_field(grid32, 3, np.random.default_rng(0))
    rate = cr.radial_rate(geom, alpha)
    assert np.max(np.abs(rate - alpha)) < 1e-10
