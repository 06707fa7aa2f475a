import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fd_space
from curvature_oracle import differenced_ricci
from qll import surface as sf
from qll.ambient import catalog, constraint_data_at, curvature_at, nabla_k_at
from qll.criticality import residual_report
from qll.errors import GeometryError
from qll.functionals import energy_report, f_integrals
from qll.grids import SphereGrid
from qll.harmonics import real_harmonic_grid


# -- induced_geometry --------------------------------------------------------

def test_euclidean_round_sphere(grid48, euclidean):
    geom = sf.induced_geometry(euclidean, sf.coordinate_sphere(grid48, 2.0))
    assert np.max(np.abs(geom.H - 1.0)) < 1e-10
    assert np.max(geom.traceless_sq) < 1e-12
    assert np.max(np.abs(geom.gauss_curvature - 0.25)) < 1e-9
    assert np.max(np.abs(geom.P)) == 0.0
    assert abs(geom.area - 16.0 * np.pi) < 1e-10


def test_hyperboloid_slice_sphere(grid48, hyperboloid):
    geom = sf.induced_geometry(hyperboloid, sf.coordinate_sphere(grid48, 1.0))
    assert np.max(np.abs(geom.H - 2.0 * np.sqrt(2.0))) < 1e-10
    assert np.max(np.abs(geom.P - 2.0)) < 1e-10
    assert np.max(geom.traceless_sq) < 1e-12


def test_paraboloid_slice_sphere(grid48, paraboloid):
    geom = sf.induced_geometry(paraboloid, sf.coordinate_sphere(grid48, 1.0))
    assert np.max(np.abs(geom.H - 2.0 / np.sqrt(0.75))) < 1e-10
    assert np.max(np.abs(geom.P - 1.0 / np.sqrt(0.75))) < 1e-10


def test_offcenter_sphere_in_euclidean(grid32, euclidean):
    geom = sf.induced_geometry(
        euclidean, sf.coordinate_sphere(grid32, 1.5, center=(0.3, -0.2, 0.7)))
    assert np.max(np.abs(geom.H - 2.0 / 1.5)) < 1e-10
    assert abs(geom.area - 9.0 * np.pi) < 1e-9


def test_mesh_outside_chart_rejected(grid32, paraboloid, schwarzschild):
    from qll.errors import ChartDomainError
    with pytest.raises(ChartDomainError):
        sf.induced_geometry(paraboloid, sf.coordinate_sphere(grid32, 2.5))
    with pytest.raises(ChartDomainError):
        sf.induced_geometry(schwarzschild, sf.coordinate_sphere(grid32, 1.5))


def test_degenerate_mesh_rejected(grid32):
    with pytest.raises(GeometryError):
        sf.SurfaceMesh(grid32, np.zeros((32, 64)), np.zeros(3))
    rad = np.ones((32, 64))
    rad[5, 7] = -1.0
    with pytest.raises(GeometryError):
        sf.SurfaceMesh(grid32, rad, np.zeros(3))


def test_null_expansion_identity(grid32, hyperboloid):
    geom = sf.induced_geometry(hyperboloid, sf.coordinate_sphere(grid32, 0.8))
    lhs = geom.theta_plus * geom.theta_minus
    rhs = 0.5 * (geom.P ** 2 - geom.H ** 2)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


# -- integrate ---------------------------------------------------------------

def test_integrate_constant(grid32, euclidean):
    geom = sf.induced_geometry(euclidean, sf.coordinate_sphere(grid32, 1.0))
    assert abs(sf.integrate(geom, 1.0) - 4.0 * np.pi) < 1e-10


def test_integrate_h_squared(grid32, euclidean):
    geom = sf.induced_geometry(euclidean, sf.coordinate_sphere(grid32, 3.0))
    assert abs(sf.integrate(geom, geom.H ** 2) - 16.0 * np.pi) < 1e-9


@pytest.mark.parametrize("builder", [
    lambda g: sf.coordinate_sphere(g, 1.0),
    lambda g: sf.ellipsoid(g, (1.0, 1.0, 1.2)),
    lambda g: sf.round_sphere_with_harmonics(g, 1.0, [(2, 2, 0.02), (3, 1, 0.01)]),
])
def test_gauss_bonnet(grid48, euclidean, builder):
    geom = sf.induced_geometry(euclidean, builder(grid48))
    assert abs(sf.integrate(geom, geom.gauss_curvature) - 4.0 * np.pi) < 1e-6


def test_quadrature_convergence_ellipsoid(euclidean):
    defects = []
    for (nt, nph) in ((16, 32), (32, 64), (64, 128)):
        grid = SphereGrid(nt, nph)
        geom = sf.induced_geometry(euclidean, sf.ellipsoid(grid, (1.0, 1.0, 1.3)))
        defects.append(abs(sf.integrate(geom, geom.gauss_curvature) - 4.0 * np.pi))
    for coarse, fine in zip(defects, defects[1:]):
        assert fine <= max(coarse / 4.0, 1e-9)


# -- surface calculus --------------------------------------------------------

def test_gradient_and_laplacian_of_constant(grid32, euclidean):
    geom = sf.induced_geometry(euclidean, sf.coordinate_sphere(grid32, 1.0))
    c = np.full((32, 64), 2.5)
    gt, gp = sf.surface_gradient(geom, c)
    assert np.max(np.abs(gt)) < 1e-11
    assert np.max(np.abs(gp)) < 1e-11
    assert np.max(np.abs(sf.surface_laplacian(geom, c))) < 1e-9


def test_laplacian_first_harmonic(grid48, euclidean):
    geom = sf.induced_geometry(euclidean, sf.coordinate_sphere(grid48, 1.0))
    f = geom.X[..., 2]
    assert np.max(np.abs(sf.surface_laplacian(geom, f) + 2.0 * f)) < 1e-6


def test_laplacian_scales_with_radius(grid32, euclidean):
    geom = sf.induced_geometry(euclidean, sf.coordinate_sphere(grid32, 2.0))
    y = real_harmonic_grid(grid32, 2, 0)
    assert np.max(np.abs(sf.surface_laplacian(geom, y) + 1.5 * y)) < 1e-8


def test_tangential_divergence_of_k_slice(grid48, paraboloid):
    geom = sf.induced_geometry(paraboloid, sf.coordinate_sphere(grid48, 1.0))
    V = np.einsum("...ab,...bc,...c->...a", geom.ginv_amb, geom.k_amb, geom.nu)
    assert np.max(np.abs(sf.tangential_divergence(geom, V))) < 1e-8


def test_divergence_of_gradient_is_laplacian(grid48, euclidean):
    geom = sf.induced_geometry(euclidean, sf.coordinate_sphere(grid48, 1.0))
    y = real_harmonic_grid(grid48, 2, 1)
    V = sf.gradient_ambient(geom, y)
    div = sf.tangential_divergence(geom, V)
    lap = sf.surface_laplacian(geom, y)
    assert np.max(np.abs(div - lap)) < 1e-7


def test_normal_component_discarded_in_divergence(grid32, euclidean):
    geom = sf.induced_geometry(euclidean, sf.coordinate_sphere(grid32, 1.0))
    div = sf.tangential_divergence(geom, geom.nu.copy())
    assert np.max(np.abs(div)) < 1e-10


# -- gauss_equation_check ----------------------------------------------------

@pytest.mark.parametrize("name,params,r,tol", [
    ("euclidean", {}, 2.0, 1e-6),
    ("hyperboloid", {"a": 1.0}, 1.0, 1e-6),
    ("schwarzschild", {"m": 1.0}, 4.0, 1e-5),
])
def test_gauss_equation_on_catalog_spheres(grid48, name, params, r, tol):
    space = catalog(name, **params)
    geom = sf.induced_geometry(space, sf.coordinate_sphere(grid48, r))
    assert np.max(np.abs(sf.gauss_equation_check(space, geom))) < tol


def test_gauss_equation_refinement(euclidean):
    errs = []
    for (nt, nph) in ((24, 48), (48, 96)):
        grid = SphereGrid(nt, nph)
        mesh = sf.round_sphere_with_harmonics(grid, 1.0, [(2, 1, 0.03)])
        geom = sf.induced_geometry(euclidean, mesh)
        errs.append(np.max(np.abs(sf.gauss_equation_check(euclidean, geom))))
    assert errs[1] <= max(errs[0] / 4.0, 1e-9)


# -- ambient node fields -----------------------------------------------------

def assert_close(got, ref):
    assert np.max(np.abs(got - ref)) <= 1e-12 * max(1.0, float(np.max(np.abs(ref))))


# name -> (params, mean radius) of a perturbed sphere inside the chart
CATALOG_SURFACES = {
    "euclidean": ({}, 1.0),
    "schwarzschild": ({"m": 1.0}, 4.0),
    "reissner_nordstrom": ({"m": 1.0, "q": 0.5}, 4.0),
    "hyperboloid": ({"a": 1.0}, 1.0),
    "paraboloid": ({"alpha": 0.5}, 1.0),
    "hyperbolic": ({"a": 1.0}, 1.0),
    "hemisphere": ({"radius": 1.0}, 1.0),
}


@pytest.mark.parametrize("name,mode", [(name, "analytic") for name in sorted(CATALOG_SURFACES)]
                         + [("hyperboloid", "fd")])
def test_cached_fields_match_pointwise_evaluators(grid24, name, mode):
    params, r = CATALOG_SURFACES[name]
    space = catalog(name, **params)
    if mode == "fd":
        space = fd_space(space)
    geom = sf.induced_geometry(space, sf.round_sphere_with_harmonics(grid24, r, [(2, 1, 0.03)]))
    fields = sf.ambient_fields(space, geom)
    assert fields is geom.ambient
    curv = curvature_at(space, geom.X)
    cons = constraint_data_at(space, geom.X)
    assert_close(fields.ricci, curv.ricci)
    assert_close(fields.scalar, curv.scalar)
    # the fill keeps only the normal trace of nabla k
    assert_close(geom.dnu_k_trace, sf.tangential_trace_dnu_k(geom, nabla_k_at(space, geom.X)))
    assert_close(fields.mu, cons.mu)
    assert_close(fields.J, cons.J)
    assert_close(fields.mu - fields.jnorm, cons.dec_margin)


@pytest.mark.parametrize("name", sorted(CATALOG_SURFACES))
def test_fill_without_closed_form_ricci_matches_catalog(grid24, name):
    # the oracle's Ric, contracted from the Riemann tensor of central-difference
    # d2g, must give the closed-form fill on a surface to the tolerance of
    # test_missing_second_derivatives_are_differenced
    params, r0 = CATALOG_SURFACES[name]
    space = catalog(name, **params)
    mesh = sf.round_sphere_with_harmonics(grid24, r0, [(2, 1, 0.05), (3, -2, 0.03)],
                                          center=(0.1, 0.05, -0.07))
    ref = sf.induced_geometry(space, mesh).ambient
    differenced = differenced_ricci(space.metric_fn, space.dmetric_fn)
    got = sf.induced_geometry(dataclasses.replace(space, ricci_fn=differenced), mesh).ambient
    for field in ("ricci", "scalar", "mu", "dec_margin"):
        exact = getattr(ref, field)
        scale = np.max(np.abs(exact)) + 1.0
        assert np.max(np.abs(getattr(got, field) - exact)) / scale < 1e-5, field


@pytest.mark.parametrize("evaluate", [
    energy_report, f_integrals, sf.gauss_equation_check,
    lambda space, geom: residual_report(space, geom, "hawking"),
], ids=["energy_report", "f_integrals", "gauss_equation_check", "residual_report"])
def test_other_space_is_rejected(grid24, hyperboloid, evaluate):
    geom = sf.induced_geometry(hyperboloid, sf.coordinate_sphere(grid24, 1.0))
    # equal catalog data, but not the space the geometry was built on
    with pytest.raises(ValueError, match="built on"):
        evaluate(catalog("hyperboloid", a=1.0), geom)


def _counted_space(space, names, calls):
    """A copy of space whose evaluators named in names count their calls in calls."""
    def counted(name):
        fn = getattr(space, name)

        def wrapper(points):
            calls[name] += 1
            return fn(points)
        return wrapper

    return dataclasses.replace(space, **{name: counted(name) for name in names})


def test_ambient_fields_evaluated_once_per_surface(grid24, hyperboloid, monkeypatch):
    # the field fill reads the catalog's closed-form Ricci tensor, once per surface; the
    # hyperboloid's k = g / a and dk = dg / a come from the g and dg the build holds
    calls = dict.fromkeys(("metric_fn", "dmetric_fn", "ricci_fn", "k_fn", "dk_fn",
                           "gauss_curvature"), 0)
    space = _counted_space(hyperboloid, list(calls)[:-1], calls)
    intrinsic = sf._gauss_curvature_intrinsic

    def gauss_curvature(*args):
        calls["gauss_curvature"] += 1
        return intrinsic(*args)

    monkeypatch.setattr(sf, "_gauss_curvature_intrinsic", gauss_curvature)
    geom = sf.induced_geometry(space, sf.round_sphere_with_harmonics(grid24, 1.0, [(2, 0, 0.05)]))
    residual_report(space, geom, "willmore")
    residual_report(space, geom, "hawking")
    assert calls["gauss_curvature"] == 0
    energy_report(space, geom)
    sf.gauss_equation_check(space, geom)
    assert calls == {"metric_fn": 1, "dmetric_fn": 1, "ricci_fn": 1,
                     "k_fn": 0, "dk_fn": 0, "gauss_curvature": 1}
    assert geom.k_amb.tobytes() == hyperboloid.k_fn(geom.X).tobytes()


def test_time_symmetric_surface_never_forms_christoffels(grid24, schwarzschild, monkeypatch):
    # the build reads the second fundamental form from dg and the fill reads
    # the closed-form Ricci tensor, so no Gamma is formed on k = 0 data
    import qll.ambient as amb

    def no_christoffels(*args):
        raise AssertionError("Christoffel symbols formed")

    monkeypatch.setattr(amb, "_christoffels", no_christoffels)
    assert not hasattr(sf, "_christoffels")
    geom = sf.induced_geometry(schwarzschild,
                               sf.round_sphere_with_harmonics(grid24, 4.0, [(2, 1, 0.05)]))
    residual_report(schwarzschild, geom, "willmore")
    residual_report(schwarzschild, geom, "hawking")
    energy_report(schwarzschild, geom)


@pytest.mark.parametrize("name", ["euclidean", "hemisphere", "hyperbolic",
                                  "reissner_nordstrom", "schwarzschild"])
def test_time_symmetric_completion_matches_explicit_zero_k(grid24, name):
    # the k-terms skipped on k = 0 data are exact zeros: H, P, tr k and the
    # null expansions equal, bit for bit, those of an explicit k = 0
    params, r0 = CATALOG_SURFACES[name]
    space = catalog(name, **params)
    zero_k = dataclasses.replace(
        space, k_fn=lambda X: np.zeros(X.shape[:-1] + (3, 3)),
        dk_fn=lambda X: np.zeros(X.shape[:-1] + (3, 3, 3)))
    assert space.time_symmetric and not zero_k.time_symmetric
    mesh = sf.round_sphere_with_harmonics(grid24, r0, [(2, 1, 0.05), (3, -2, 0.03)],
                                          center=(0.1, 0.05, -0.07))
    skipped, explicit = sf.induced_geometry(space, mesh), sf.induced_geometry(zero_k, mesh)
    for field in ("H", "P", "trk", "theta_plus", "theta_minus"):
        assert getattr(skipped, field).tobytes() == getattr(explicit, field).tobytes(), field


def test_completed_area_stage_is_the_full_build(grid24, schwarzschild):
    calls = dict.fromkeys(("metric_fn", "dmetric_fn"), 0)
    space = _counted_space(schwarzschild, calls, calls)
    mesh = sf.round_sphere_with_harmonics(grid24, 4.0, [(2, 1, 0.05), (3, -2, 0.03)])
    stage = sf._area_stage(space, mesh)
    assert calls == {"metric_fn": 1, "dmetric_fn": 0}
    geom = sf.induced_geometry(space, stage)
    # the completion reuses the stage's checked g and g^{-1}
    assert calls == {"metric_fn": 1, "dmetric_fn": 1}
    full = sf.induced_geometry(space, mesh)
    for f in dataclasses.fields(sf.SurfaceGeometry):
        value = getattr(geom, f.name)
        if isinstance(value, np.ndarray):
            assert np.array_equal(value, getattr(full, f.name)), f.name
    assert geom.area == full.area == stage.area
    # K on first use is bitwise the K of the area stage's own det g_Sigma
    K = sf._gauss_curvature_intrinsic(grid24, stage.g_tt, stage.g_tp, stage.g_pp,
                                      geom.inv_induced, stage.det2)
    assert np.array_equal(geom.gauss_curvature, K)


# -- mesh I/O ----------------------------------------------------------------

def test_mesh_io_roundtrip(tmp_path, grid32):
    mesh = sf.round_sphere_with_harmonics(grid32, 1.3, [(2, -1, 0.04)],
                                          center=(0.1, 0.2, -0.3))
    path = tmp_path / "mesh.txt"
    sf.save_mesh(mesh, path)
    back = sf.load_mesh(path)
    assert np.array_equal(back.radius, mesh.radius)
    assert np.array_equal(back.center, mesh.center)


def test_mesh_io_rejects_truncated(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("16 32 0 0 0\n1.0 2.0\n")
    with pytest.raises(ValueError):
        sf.load_mesh(path)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10 ** 6))
def test_mesh_io_roundtrip_random(tmp_path_factory, seed):
    grid = SphereGrid(8, 16)
    rng = np.random.default_rng(seed)
    mesh = sf.SurfaceMesh(grid, rng.uniform(0.5, 2.0, size=(8, 16)), rng.normal(size=3))
    path = tmp_path_factory.mktemp("io") / "mesh.txt"
    sf.save_mesh(mesh, path)
    back = sf.load_mesh(path, grid)
    assert np.array_equal(back.radius, mesh.radius)


# -- sign conventions --------------------------------------------------------

def test_mean_curvature_sign_convention(grid32, euclidean):
    # shrinking the sphere increases H; outward normal points away from center
    h_small = sf.induced_geometry(euclidean, sf.coordinate_sphere(grid32, 0.5)).H
    h_large = sf.induced_geometry(euclidean, sf.coordinate_sphere(grid32, 2.0)).H
    assert np.all(h_small > h_large)
    geom = sf.induced_geometry(euclidean, sf.coordinate_sphere(grid32, 1.0))
    outward = np.einsum("...a,...a->...", geom.nu, geom.X)
    assert np.all(outward > 0.0)


@pytest.mark.parametrize("name", ["hyperboloid", "schwarzschild"])
def test_each_ambient_contraction_runs_once_per_surface(grid24, name, request, monkeypatch):
    # Ric(nu, nu) and nabla_nu tr k - (nabla_nu k)(nu, nu) are cached on the geometry and
    # read by the energy report, both residual modes and the Gauss-equation check; the
    # second is never contracted on k = 0 data, where it is an exact +0.0
    space = request.getfixturevalue(name)
    traces, ric_nn = [], []
    trace, bilinear = sf.tangential_trace_dnu_k, sf._bilinear

    def counted_trace(geom, nabla_k):
        traces.append(geom)
        return trace(geom, nabla_k)

    def counted_bilinear(M, u, v):
        if M is geom.ambient.ricci:
            ric_nn.append(M)
        return bilinear(M, u, v)

    monkeypatch.setattr(sf, "tangential_trace_dnu_k", counted_trace)
    monkeypatch.setattr(sf, "_bilinear", counted_bilinear)
    r0 = 4.0 if name == "schwarzschild" else 1.0
    geom = sf.induced_geometry(space, sf.round_sphere_with_harmonics(grid24, r0, [(2, 1, 0.05)]))
    energy_report(space, geom)
    residual_report(space, geom, "willmore")
    residual_report(space, geom, "hawking")
    sf.gauss_equation_check(space, geom)
    assert len(ric_nn) == 1
    if space.time_symmetric:
        assert traces == []
        assert np.all(geom.dnu_k_trace == 0.0) and not np.any(np.signbit(geom.dnu_k_trace))
    else:
        assert traces == [geom]
