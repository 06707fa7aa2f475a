import dataclasses
import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qll import functionals as fn
from qll import surface as sf
from qll.ambient import catalog
from qll.errors import ConfigError, EmbeddingError, HypothesisError
from qll.grids import SphereGrid


def off_centre_mesh(grid, r):
    return sf.round_sphere_with_harmonics(grid, r, [(2, 1, 0.05), (3, 0, 0.03)],
                                          center=(0.1, -0.05, 0.2))


# -- hawking_energy ----------------------------------------------------------

def test_round_sphere_energy_vanishes(grid32, euclidean):
    for r in (0.5, 1.0, 4.0):
        geom = sf.induced_geometry(euclidean, sf.coordinate_sphere(grid32, r))
        assert abs(fn.hawking_energy(geom)) < 1e-10


def test_hyperboloid_slice_energy_vanishes(grid48, hyperboloid):
    for r in (0.5, 1.0, 2.0):
        geom = sf.induced_geometry(hyperboloid, sf.coordinate_sphere(grid48, r))
        assert abs(fn.hawking_energy(geom)) < 1e-8


def test_schwarzschild_energy_is_mass(grid48, schwarzschild):
    geom = sf.induced_geometry(schwarzschild, sf.coordinate_sphere(grid48, 4.0))
    assert abs(fn.hawking_energy(geom) - 1.0) < 1e-6


def test_ellipsoid_energy_negative_two_grids(euclidean):
    values = []
    for (nt, nph) in ((32, 64), (48, 96)):
        grid = SphereGrid(nt, nph)
        geom = sf.induced_geometry(euclidean, sf.ellipsoid(grid, (1.0, 1.0, 1.2)))
        values.append(fn.hawking_energy(geom))
    assert values[0] < 0.0 and values[1] < 0.0
    assert abs(values[0] - values[1]) / abs(values[1]) < 0.01


def test_energy_upper_bound(grid32, euclidean, hyperboloid):
    # E <= sqrt(area/16pi), equality iff the H^2 - P^2 integral vanishes
    for space, mesh in ((euclidean, sf.ellipsoid(grid32, (1.0, 1.0, 1.1))),
                        (hyperboloid, sf.coordinate_sphere(grid32, 1.0))):
        geom = sf.induced_geometry(space, mesh)
        bound = np.sqrt(geom.area / (16.0 * np.pi))
        energy = fn.hawking_energy(geom)
        assert energy <= bound + 1e-12


def test_energy_bound_saturated_on_minimal_equator(grid32):
    # H = P = 0 on the equator of the 3-sphere, so E = sqrt(area/16pi) = 1/2
    space = catalog("hemisphere", radius=1.0)
    geom = sf.induced_geometry(space, sf.coordinate_sphere(grid32, 2.0))
    assert abs(fn.hawking_energy(geom) - 0.5) < 1e-10


# -- charged -----------------------------------------------------------------

def test_zero_field_charge(grid32, euclidean, schwarzschild):
    # every energy shares one mass formula, so a zero charge term is exact
    for base, mesh in ((euclidean, sf.coordinate_sphere(grid32, 1.0)),
                       (schwarzschild, off_centre_mesh(grid32, 4.0))):
        space = dataclasses.replace(base, efield_fn=lambda pts: np.zeros_like(pts))
        geom = sf.induced_geometry(space, mesh)
        Q, eq, _ = fn.charged_hawking_energy(geom)
        assert Q == 0.0
        assert eq == fn.hawking_energy(geom)
        assert fn.energy_report(space, geom).hawking_energy == fn.hawking_energy(geom)


def test_missing_field_is_config_error(grid32, euclidean):
    geom = sf.induced_geometry(euclidean, sf.coordinate_sphere(grid32, 1.0))
    with pytest.raises(ConfigError):
        fn.charge_flux(geom)


def test_reissner_nordstrom_charge_and_energy(grid48):
    space = catalog("reissner_nordstrom", m=1.0, q=0.5)
    for r in (3.0, 4.0):
        geom = sf.induced_geometry(space, sf.coordinate_sphere(grid48, r))
        Q, eq, conv = fn.charged_hawking_energy(geom)
        assert abs(Q - 0.5) < 1e-8
        assert abs(eq - 1.0) < 1e-6
        assert conv == "H2"
        assert eq >= fn.hawking_energy(geom)


def test_charged_energy_on_k_data_integrates_h2_minus_p2(grid32, hyperboloid):
    # k = g/a gives P = 2/a on every surface, so an H^2 integrand would be off
    # by the P^2 integral; with H^2 - P^2 the charge term is the only difference
    space = dataclasses.replace(
        hyperboloid, efield_fn=lambda pts: 0.3 * pts / np.linalg.norm(pts, axis=-1)[..., None] ** 3)
    geom = sf.induced_geometry(space, off_centre_mesh(grid32, 1.0))
    Q, eq, conv = fn.charged_hawking_energy(geom)
    assert conv == "H2-P2"
    assert Q != 0.0 and np.min(np.abs(geom.P)) > 1.0
    charge_term = np.sqrt(geom.area / (16.0 * np.pi)) * 4.0 * np.pi * Q ** 2 / geom.area
    assert abs(eq - (fn.hawking_energy(geom) + charge_term)) < 1e-12


def test_magnetic_charge_term(grid32):
    space = catalog("reissner_nordstrom", m=1.0, q=0.5)
    geom = sf.induced_geometry(space, sf.coordinate_sphere(grid32, 4.0))
    _, eq0, _ = fn.charged_hawking_energy(geom)
    _, eqb, _ = fn.charged_hawking_energy(geom, extra_charge_sq=0.25)
    assert eqb > eq0


# -- cosmological constant ---------------------------------------------------

def test_lambda_zero_reduces_to_hawking(grid32, euclidean, schwarzschild):
    for space, mesh in ((euclidean, sf.ellipsoid(grid32, (1.0, 1.0, 1.15))),
                        (schwarzschild, off_centre_mesh(grid32, 4.0))):
        geom = sf.induced_geometry(space, mesh)
        assert fn.lambda_hawking_energy(geom, 0.0) == fn.hawking_energy(geom)
        assert fn.energy_report(space, geom).hawking_energy == fn.hawking_energy(geom)


def test_hyperbolic_geodesic_spheres(grid32):
    space = catalog("hyperbolic", Lambda=-3.0)
    for r in (0.5, 1.0, 2.0):
        geom = sf.induced_geometry(space, sf.coordinate_sphere(grid32, r))
        assert abs(fn.lambda_hawking_energy(geom, -3.0)) < 1e-7


def test_s3_equator_minimal(grid48):
    space = catalog("hemisphere", Lambda=3.0)
    geom = sf.induced_geometry(space, sf.coordinate_sphere(grid48, 2.0))
    assert np.max(np.abs(geom.H)) < 1e-10
    assert abs(geom.area - 12.0 * np.pi / 3.0) < 1e-9
    assert abs(fn.lambda_hawking_energy(geom, 3.0)) < 1e-7


# -- f integrals -------------------------------------------------------------

def test_f_on_time_symmetric_round_sphere(grid32, euclidean):
    geom = sf.induced_geometry(euclidean, sf.coordinate_sphere(grid32, 1.0))
    out = fn.f_integrals(euclidean, geom, beta=0.25, lam=0.0)
    for key in ("f", "f_beta", "f_tilde"):
        assert abs(out[key]) < 1e-10


def test_hyperboloid_slice_f_integral(grid48, hyperboloid):
    geom = sf.induced_geometry(hyperboloid, sf.coordinate_sphere(grid48, 1.0))
    out = fn.f_integrals(hyperboloid, geom, lam=0.0)
    assert abs(out["f"] - 6.0 * np.pi) < 1e-6
    assert out["f"] > 0.0
    assert abs(out["f_tilde"]) < 1e-6


def test_paraboloid_slice_f_tilde_vanishes(grid48, paraboloid):
    for r in (0.5, 1.0, 1.5):
        geom = sf.induced_geometry(paraboloid, sf.coordinate_sphere(grid48, r))
        out = fn.f_integrals(paraboloid, geom)
        u = 0.25 * r * r
        expected = (0.5 * r) ** 2 * 0.25 * (3 - 4 * u + 2 * u * u) / (1 - u) ** 3
        assert abs(out["f"] - expected * geom.area) < 1e-6
        assert abs(out["f_tilde"]) < 1e-6


def test_f_beta_half_matches_f_on_time_symmetric(grid32, euclidean):
    geom = sf.induced_geometry(euclidean, sf.ellipsoid(grid32, (1.0, 1.0, 1.2)))
    out = fn.f_integrals(euclidean, geom, beta=0.5)
    assert abs(out["f"] - out["f_beta"]) < 1e-12


def test_f_requires_positive_h(grid32):
    space = catalog("hemisphere", radius=1.0)
    geom = sf.induced_geometry(space, sf.coordinate_sphere(grid32, 3.0))
    assert np.min(geom.H) < 0.0
    with pytest.raises(HypothesisError):
        fn.f_integrals(space, geom)


def test_lambda_shifts_by_area(grid32, hyperboloid):
    geom = sf.induced_geometry(hyperboloid, sf.coordinate_sphere(grid32, 1.0))
    out0 = fn.f_integrals(hyperboloid, geom, lam=0.0)
    out1 = fn.f_integrals(hyperboloid, geom, lam=0.5)
    assert abs((out0["f"] - out1["f"]) - 0.5 * geom.area) < 1e-10


# -- brown_york_round --------------------------------------------------------

def test_brown_york_euclidean_round(grid32, euclidean):
    geom = sf.induced_geometry(euclidean, sf.coordinate_sphere(grid32, 2.0))
    assert abs(fn.brown_york_round(geom)) < 1e-10


def test_brown_york_schwarzschild(grid48, schwarzschild):
    for r in (3.0, 4.0, 8.0):
        geom = sf.induced_geometry(schwarzschild, sf.coordinate_sphere(grid48, r))
        expected = r * (1.0 - np.sqrt(1.0 - 2.0 / r))
        assert abs(fn.brown_york_round(geom) - expected) < 1e-6


def test_brown_york_large_r_limit(schwarzschild):
    grid = SphereGrid(24, 48)
    geom = sf.induced_geometry(schwarzschild, sf.coordinate_sphere(grid, 400.0))
    assert abs(fn.brown_york_round(geom) - 1.0) < 2e-3


def test_brown_york_warns_on_k_data(grid32, hyperboloid, caplog):
    geom = sf.induced_geometry(hyperboloid, sf.coordinate_sphere(grid32, 1.0))
    with caplog.at_level(logging.INFO, logger="qll.functionals"):
        val = fn.brown_york_round(geom)
    [record] = caplog.records
    assert (record.name, record.levelno) == ("qll.functionals", logging.INFO)
    assert "k != 0" in record.getMessage()
    assert abs(val - (1.0 - np.sqrt(2.0))) < 1e-8
    assert val < 0.0


def test_brown_york_rejects_nonround(grid32, euclidean):
    geom = sf.induced_geometry(euclidean, sf.ellipsoid(grid32, (1.0, 1.0, 1.3)))
    with pytest.raises(EmbeddingError):
        fn.brown_york_round(geom)


# -- EnergyReport ------------------------------------------------------------

def test_report_reconstruction_invariant(grid32, hyperboloid):
    geom = sf.induced_geometry(hyperboloid, sf.coordinate_sphere(grid32, 1.0))
    rep = fn.energy_report(hyperboloid, geom)
    rebuilt = np.sqrt(rep.area / (16.0 * np.pi)) * (1.0 - rep.hawking_functional / (4.0 * np.pi))
    assert abs(rebuilt - rep.hawking_energy) < 1e-12
    assert abs(0.25 * (rep.willmore_integral - rep.p_integral) - rep.hawking_functional) < 1e-12


def test_report_dec_on_minkowski_slices(grid32, hyperboloid, paraboloid):
    for space in (hyperboloid, paraboloid):
        geom = sf.induced_geometry(space, sf.coordinate_sphere(grid32, 0.9))
        rep = fn.energy_report(space, geom)
        assert abs(rep.dec_min) < 1e-8


def test_report_charged_inequality(grid32):
    space = catalog("reissner_nordstrom", m=1.0, q=0.5)
    geom = sf.induced_geometry(space, sf.coordinate_sphere(grid32, 3.0))
    rep = fn.energy_report(space, geom)
    assert rep.charged_energy >= rep.hawking_energy
    assert rep.charge == pytest.approx(0.5, abs=1e-8)


@settings(max_examples=8, deadline=None)
@given(c=st.floats(0.3, 3.0))
def test_euclidean_scaling_law(c):
    # scaling the mesh by c scales the energy by c
    grid = SphereGrid(24, 48)
    space = catalog("euclidean")
    base = sf.ellipsoid(grid, (1.0, 1.0, 1.2))
    e1 = fn.hawking_energy(sf.induced_geometry(space, base))
    e2 = fn.hawking_energy(sf.induced_geometry(space, base.scaled(c)))
    assert e2 == pytest.approx(c * e1, rel=1e-10)
