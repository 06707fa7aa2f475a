import dataclasses
import re

import numpy as np
import pytest

from qll import highdim as hd
from qll import surface as sf
from qll.ambient import catalog
from qll.errors import CatalogError, GeometryError, NumericError
from qll.functionals import f_integrals, hawking_energy
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
    # the meshed twin of an n = 3 radial model is the catalog space of the same name
    geom = sf.induced_geometry(catalog(name, **params),
                               sf.coordinate_sphere(SphereGrid(48, 96), r))
    energy3 = hawking_energy(geom)
    rep = hd.radial_sphere(hd.radial_model(name, **params), r)
    assert abs(rep.energy_1_dynamic - energy3) < 1e-8
    assert abs(rep.energy_2_dynamic - energy3) < 1e-8


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
        hd.radial_model([])
    # RadialModel checks the dimension, and schwarzschild_model builds the model before its
    # horizon (2m)^(1/(n - 2)) divides by n - 2
    for name, build in (("euclidean", lambda: hd.euclidean_model(2)),
                        ("schwarzschild", lambda: hd.schwarzschild_model(2, 1.0)),
                        ("schwarzschild", lambda: hd.radial_model("schwarzschild", n=2))):
        with pytest.raises(CatalogError, match=f"'{name}' needs dimension n >= 3, got n = 2$"):
            build()
    with pytest.raises(CatalogError):  # k without its analytic derivatives
        dataclasses.replace(hd.hyperboloid_model(1.0), dk_tan=None)
    # out of floating-point range: the profile (r ** (n - 2)), Gamma(n/2), the energies, or
    # r ** 2 underflowing to a zero divisor
    for model, r in ((hd.schwarzschild_model(1000, 1.0), 3.0), (hd.euclidean_model(400), 1.0),
                     (hd.euclidean_model(3), 1e150), (hd.euclidean_model(4), 1e-300)):
        named = re.escape(f"'{model.name}' at n = {model.n}, r = {r}")
        with pytest.raises(NumericError, match=named):
            hd.radial_sphere(model, r)
    with pytest.raises(NumericError, match="out of floating-point range"):
        hd.radial_sphere(dataclasses.replace(hd.euclidean_model(3), phi=lambda r: np.nan), 1.0)


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
    # an integer parameter is not truncated: 4.0 is 4, but 3.7 and True are errors
    assert hd.radial_model(name, n=4.0, **params).n == 4
    for value in (3.7, True, "4"):
        with pytest.raises(CatalogError, match="'n'.*integer"):
            hd.radial_model(name, n=value, **params)


def test_radial_sweep_shapes():
    rows = hd.radial_sweep(hd.schwarzschild_model(4, 1.0), [3.0, 4.0, 5.0])
    assert len(rows) == 3
    assert [r.r for r in rows] == [3.0, 4.0, 5.0]
    d = rows[0].as_dict()
    assert list(d) == [f.name for f in dataclasses.fields(rows[0])]
