import dataclasses

import numpy as np
import pytest

from qll import highdim as hd
from qll import surface as sf
from qll.ambient import catalog
from qll.errors import CatalogError, GeometryError
from qll.functionals import f_integrals
from qll.grids import SphereGrid


def test_unit_sphere_volumes():
    assert abs(hd.unit_sphere_volume(2) - 4.0 * np.pi) < 1e-14
    assert abs(hd.unit_sphere_volume(3) - 2.0 * np.pi ** 2) < 1e-13


@pytest.mark.parametrize("n", [3, 4, 5, 7])
def test_euclidean_round_sphere_multiplier(n):
    model = hd.euclidean_model(n)
    for r in (0.5, 1.0, 2.5):
        lam = (n - 3) * (n - 1) / (2.0 * r * r)
        rep = hd.radial_sphere(model, r, lam=lam)
        assert abs(rep.willmore_nd_residual) < 1e-10
        assert abs(rep.lambda_star - lam) < 1e-10
        assert abs(rep.energy_1_static) < 1e-10
        assert abs(rep.energy_2_static) < 1e-10


def test_n3_multiplier_vanishes():
    rep = hd.radial_sphere(hd.euclidean_model(3), 1.0)
    assert abs(rep.lambda_star) < 1e-14


@pytest.mark.parametrize("n", [4, 5])
def test_nd_schwarzschild_energies_equal_mass(n):
    # substituting H = (n-1) sqrt(1 - 2m/r^(n-2)) / r into either definition
    # collapses to m for every radius
    model = hd.schwarzschild_model(n, 1.0)
    for r in (3.0, 4.0):
        rep = hd.radial_sphere(model, r)
        f = 1.0 - 2.0 / r ** (n - 2)
        assert abs(rep.H - (n - 1) * np.sqrt(f) / r) < 1e-13
        assert abs(rep.energy_1_static - 1.0) < 1e-10
        assert abs(rep.energy_2_static - 1.0) < 1e-10
        assert rep.energy_1_static > 0.0 and rep.energy_2_static > 0.0


def test_mass_perturbation_sign():
    for n in (4, 5):
        flat = hd.radial_sphere(hd.euclidean_model(n), 2.0)
        curved = hd.radial_sphere(hd.schwarzschild_model(n, 0.5), 2.0)
        assert abs(flat.energy_1_static) < 1e-12
        assert abs(flat.energy_2_static) < 1e-12
        assert curved.energy_1_static > 0.0
        assert curved.energy_2_static > 0.0


@pytest.mark.parametrize("name,params,r", [
    ("euclidean", {}, 1.0),
    ("schwarzschild", {"m": 1.0}, 4.0),
    ("hyperboloid", {"a": 1.0}, 1.0),
    ("paraboloid", {"alpha": 0.5}, 1.0),
])
def test_n3_reduction_against_meshed_module(name, params, r):
    model = hd.radial_model(name, **params)
    d1, d2 = hd.nd_energy_consistency(model, r)
    assert d1 < 1e-8
    assert d2 < 1e-8


def test_consistency_requires_n3():
    with pytest.raises(ValueError):
        hd.nd_energy_consistency(hd.euclidean_model(4), 1.0)


def test_f_nd_reduces_to_f_pointwise():
    # n = 3 radial f equals the meshed integrand on coordinate spheres
    grid = SphereGrid(24, 48)
    cases = [("hyperboloid", {"a": 1.0}, 1.0), ("paraboloid", {"alpha": 0.5}, 0.8)]
    for name, params, r in cases:
        model = hd.radial_model(name, **params)
        rep = hd.radial_sphere(model, r)
        space = catalog(name, **params)
        geom = sf.induced_geometry(space, sf.coordinate_sphere(grid, r))
        mesh_f = f_integrals(space, geom)["f"] / geom.area
        assert abs(rep.f_nd - mesh_f) < 1e-10


def test_f_nd_term_identity_at_n3():
    # the n/(2(n-1)) coefficient is exactly 3/4 at n = 3
    rep = hd.radial_sphere(hd.hyperboloid_model(1.0), 1.0)
    H, P, ksq, trk = rep.H, rep.P, rep.ksq, rep.trk
    f3 = ((P / H) ** 2 * ksq + 0.5 * trk ** 2 - 0.75 * P ** 2
          - (P / H) * (rep.dnu_trk - rep.dnu_knn) - 0.5 * ksq - rep.jnorm)
    assert abs(rep.f_nd - f3) < 1e-12


def test_radial_vacuum_slices():
    for model in (hd.hyperboloid_model(1.0), hd.paraboloid_model(0.5)):
        rep = hd.radial_sphere(model, 0.9)
        assert abs(rep.mu) < 1e-12
        assert abs(rep.jnorm) < 1e-12


def test_domain_checks():
    model = hd.schwarzschild_model(3, 1.0)
    with pytest.raises(GeometryError):
        hd.radial_sphere(model, 1.5)  # inside the horizon
    with pytest.raises(GeometryError):
        hd.radial_sphere(hd.paraboloid_model(0.5), 2.5)
    with pytest.raises(CatalogError):
        hd.radial_model("torus")
    with pytest.raises(CatalogError):
        hd.euclidean_model(2)
    with pytest.raises(CatalogError):  # k without its analytic derivatives
        dataclasses.replace(hd.hyperboloid_model(1.0), dk_tan=None)


@pytest.mark.parametrize("name,params,r", [
    ("euclidean", {}, 1.0),
    ("schwarzschild", {"m": 1.0}, 4.0),
    ("hyperboloid", {"a": 1.0}, 0.9),
    ("paraboloid", {"alpha": 0.5}, 0.9),
])
def test_radial_model_parameters(name, params, r):
    assert hd.radial_model(name, **params).n == 3
    model = hd.radial_model(name, n=4, **params)
    assert model.n == 4
    # each catalog model is a vacuum slice in every dimension
    rep = hd.radial_sphere(model, r)
    assert rep.n == 4 and abs(rep.mu) < 1e-12 and abs(rep.jnorm) < 1e-12
    with pytest.raises(CatalogError):
        hd.radial_model(name, mass=2.0, **params)
    with pytest.raises(CatalogError):
        hd.radial_model(name, n=[4], **params)


def test_radial_sweep_shapes():
    rows = hd.radial_sweep(hd.schwarzschild_model(4, 1.0), [3.0, 4.0, 5.0])
    assert len(rows) == 3
    assert [r.r for r in rows] == [3.0, 4.0, 5.0]
    d = rows[0].as_dict()
    assert list(d) == [f.name for f in dataclasses.fields(rows[0])]
