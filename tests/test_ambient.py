import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_points
from qll.ambient import (catalog, christoffels_at, constraint_data_at,
                         curvature_at, nabla_k_at)
from qll.errors import CatalogError, ChartDomainError, GeometryError


def unit_radial_nu(space, point):
    """g-unit outward radial vector at a chart point."""
    point = np.asarray(point, dtype=float)
    xhat = point / np.linalg.norm(point)
    g = space.metric(point[None])[0]
    return xhat / np.sqrt(xhat @ g @ xhat)


# -- curvature_at ------------------------------------------------------------

def test_euclidean_is_flat(euclidean):
    pts = random_points(np.random.default_rng(0), 20)
    cv = curvature_at(euclidean, pts)
    assert np.max(np.abs(cv.scalar)) < 1e-12
    assert np.max(np.abs(cv.ricci)) < 1e-12
    assert np.max(np.abs(cv.riemann)) < 1e-12


def test_schwarzschild_slice_scalar_flat(schwarzschild):
    pts = np.array([[4.0, 0.0, 0.0], [0.0, 2.5, 2.5], [1.0, 2.0, 3.0]])
    cv = curvature_at(schwarzschild, pts)
    assert np.max(np.abs(cv.scalar)) < 1e-10


def test_hyperboloid_ricci_radial(hyperboloid):
    # space form of curvature -1/a^2: Ric = -(2/a^2) g, so Ric(nu,nu) = -2
    p = np.array([1.0, 0.0, 0.0])
    nu = unit_radial_nu(hyperboloid, p)
    cv = curvature_at(hyperboloid, p[None])
    val = nu @ cv.ricci[0] @ nu
    assert abs(val + 2.0) < 1e-12


def test_riemann_symmetries(paraboloid):
    pts = random_points(np.random.default_rng(1), 10, 0.3, 1.6)
    R = curvature_at(paraboloid, pts).riemann
    assert np.max(np.abs(R + np.swapaxes(R, -4, -3))) < 1e-12
    assert np.max(np.abs(R + np.swapaxes(R, -2, -1))) < 1e-12
    assert np.max(np.abs(R - np.einsum("...abcd->...cdab", R))) < 1e-12
    bianchi = R + np.einsum("...acdb->...abcd", R) + np.einsum("...adbc->...abcd", R)
    assert np.max(np.abs(bianchi)) < 1e-12


CATALOG_SHELLS = {
    "euclidean": ({}, (0.5, 3.0)),
    "schwarzschild": ({"m": 1.0}, (2.5, 6.0)),
    "reissner_nordstrom": ({"m": 1.0, "q": 0.5}, (2.2, 6.0)),
    "hyperboloid": ({"a": 1.0}, (0.5, 3.0)),
    "paraboloid": ({"alpha": 0.5}, (0.3, 1.8)),
    "hyperbolic": ({"a": 1.0}, (0.5, 3.0)),
    "hemisphere": ({"radius": 1.0}, (0.5, 3.0)),
}


@pytest.mark.parametrize("name,fd", [(n, False) for n in CATALOG_SHELLS] + [("hyperboloid", True)],
                         ids=list(CATALOG_SHELLS) + ["fd-hyperboloid"])
def test_ricci_is_riemann_contraction(name, fd):
    # .ricci comes from the Ricci-only kernel, .riemann from the full formula
    params, shell = CATALOG_SHELLS[name]
    space = catalog(name, **params)
    if fd:
        space = space.with_derivative_mode("fd")
    pts = random_points(np.random.default_rng(2), 8, *shell)
    cv = curvature_at(space, pts)
    ric = np.einsum("...ab,...acbd->...cd", cv.inv_metric, cv.riemann)
    assert np.max(np.abs(ric - cv.ricci)) < 1e-11


def test_chart_domain_errors(schwarzschild, paraboloid):
    with pytest.raises(ChartDomainError):
        curvature_at(schwarzschild, np.array([[1.0, 0.0, 0.0]]))  # inside horizon
    with pytest.raises(ChartDomainError):
        curvature_at(paraboloid, np.array([[3.0, 0.0, 0.0]]))     # r >= 1/alpha


# -- nabla_k_at --------------------------------------------------------------

def test_nabla_k_zero_for_time_symmetric(schwarzschild):
    pts = random_points(np.random.default_rng(3), 5, 3.0, 6.0)
    assert np.max(np.abs(nabla_k_at(schwarzschild, pts))) == 0.0


def test_nabla_k_symmetry(paraboloid):
    pts = random_points(np.random.default_rng(4), 6, 0.3, 1.8)
    nk = nabla_k_at(paraboloid, pts)
    assert np.max(np.abs(nk - np.swapaxes(nk, -1, -2))) < 1e-12


def test_paraboloid_radial_derivatives(paraboloid):
    # closed forms for the paraboloid slice at alpha = 0.5
    alpha = 0.5
    for r in (0.5, 1.0, 1.5):
        u = (alpha * r) ** 2
        p = np.array([0.0, 0.0, r])
        nu = unit_radial_nu(paraboloid, p)
        nk = nabla_k_at(paraboloid, p[None])[0]
        ginv = np.linalg.inv(paraboloid.metric(p[None])[0])
        dnu_trk = np.einsum("a,bc,abc->", nu, ginv, nk)
        dnu_knn = np.einsum("a,b,c,abc->", nu, nu, nu, nk)
        assert abs(dnu_trk - alpha ** 3 * r * (5 - 2 * u) / (1 - u) ** 3) < 1e-11
        assert abs(dnu_knn - 3 * alpha ** 3 * r / (1 - u) ** 3) < 1e-11


def test_hyperboloid_tr_k_parallel(hyperboloid):
    # tr k = 3/a is constant, so nabla_nu tr k = 0
    pts = random_points(np.random.default_rng(5), 6)
    nk = nabla_k_at(hyperboloid, pts)
    ginv = np.linalg.inv(hyperboloid.metric(pts))
    dtrk = np.einsum("...bc,...abc->...a", ginv, nk)
    assert np.max(np.abs(dtrk)) < 1e-11


# -- constraint_data_at ------------------------------------------------------

def test_euclidean_constraints_vanish(euclidean):
    pts = random_points(np.random.default_rng(6), 10)
    cd = constraint_data_at(euclidean, pts)
    assert np.max(np.abs(cd.mu)) < 1e-12
    assert np.max(np.abs(cd.J)) < 1e-12
    assert np.max(np.abs(cd.dec_margin)) < 1e-12


@pytest.mark.parametrize("name,params,shell", [
    ("hyperboloid", {"a": 1.0}, (0.3, 3.0)),
    ("paraboloid", {"alpha": 0.5}, (0.3, 1.8)),
])
def test_minkowski_slices_are_vacuum(name, params, shell):
    space = catalog(name, **params)
    pts = random_points(np.random.default_rng(7), 12, *shell)
    cd = constraint_data_at(space, pts)
    assert np.max(np.abs(cd.mu)) < 1e-8
    assert np.max(np.abs(cd.dec_margin)) < 1e-8


def test_hyperboloid_constraint_closed_form(hyperboloid):
    # mu = (Sc + (tr k)^2 - |k|^2)/2 = (-6 + 9 - 3)/2 = 0 at a = 1
    p = np.array([[0.7, -0.2, 0.4]])
    cv = curvature_at(hyperboloid, p)
    assert abs(cv.scalar[0] + 6.0) < 1e-12


# -- catalog -----------------------------------------------------------------

def test_catalog_hyperboloid_traces(hyperboloid):
    p = np.array([[1.0, 0.0, 0.0]])
    g = hyperboloid.metric(p)
    ginv = np.linalg.inv(g)
    k = hyperboloid.k_tensor(p)
    trk = np.einsum("...ab,...ab->...", ginv, k)[0]
    ksq = np.einsum("...ab,...cd,...ac,...bd->...", k, k, ginv, ginv)[0]
    assert abs(trk - 3.0) < 1e-12
    assert abs(ksq - 3.0) < 1e-12


def test_catalog_paraboloid_trace():
    space = catalog("paraboloid", alpha=0.5)
    p = np.array([[0.0, 1.0, 0.0]])
    g = space.metric(p)
    trk = np.einsum("...ab,...ab->...", np.linalg.inv(g), space.k_tensor(p))[0]
    assert abs(trk - 0.5 * 2.5 / 0.75 ** 1.5) < 1e-12


def test_schwarzschild_m0_degenerates_to_euclidean(euclidean):
    space = catalog("schwarzschild", m=0.0)
    pts = random_points(np.random.default_rng(8), 10)
    assert np.max(np.abs(space.metric(pts) - euclidean.metric(pts))) < 1e-14


def test_catalog_errors():
    with pytest.raises(CatalogError):
        catalog("klein_bottle")
    with pytest.raises(CatalogError):
        catalog("hyperboloid", a=-1.0)
    with pytest.raises(CatalogError):
        catalog("schwarzschild", m=-2.0)
    with pytest.raises(CatalogError):
        catalog("euclidean", typo=1)


def test_reissner_nordstrom_field_strength():
    space = catalog("reissner_nordstrom", m=1.0, q=0.5)
    p = random_points(np.random.default_rng(9), 6, 3.0, 6.0)
    E = space.efield(p)
    g = space.metric(p)
    norm = np.sqrt(np.einsum("...a,...b,...ab->...", E, E, g))
    r = np.linalg.norm(p, axis=-1)
    assert np.max(np.abs(norm - 0.5 / r ** 2)) < 1e-12


# -- invariants --------------------------------------------------------------

@pytest.mark.parametrize("name,params,shell", [
    ("euclidean", {}, (0.5, 3.0)),
    ("schwarzschild", {"m": 1.0}, (2.5, 6.0)),
    ("hyperboloid", {"a": 1.0}, (0.4, 3.0)),
    ("paraboloid", {"alpha": 0.5}, (0.3, 1.8)),
    ("hemisphere", {"radius": 1.0}, (0.5, 3.0)),
])
def test_metric_compatibility(name, params, shell):
    space = catalog(name, **params)
    pts = random_points(np.random.default_rng(10), 100, *shell)
    gamma, g, _, dg = christoffels_at(space, pts)
    corr = np.einsum("...dca,...db->...cab", gamma, g)
    nabla_g = dg - corr - np.swapaxes(corr, -1, -2)
    assert np.max(np.abs(nabla_g)) < 1e-8


@pytest.mark.parametrize("name,params,point", [
    ("schwarzschild", {"m": 1.0}, [3.1, 0.7, -0.4]),
    ("hyperboloid", {"a": 1.0}, [0.8, -0.3, 0.5]),
    ("paraboloid", {"alpha": 0.5}, [0.5, 0.5, 0.5]),
    ("hemisphere", {"radius": 1.0}, [0.9, 0.2, -0.7]),
])
def test_contracted_bianchi(name, params, point):
    # div(Ric - Sc g / 2) = 0, with the divergence taken by central
    # differences of the analytic curvature (independent oracle)
    space = catalog(name, **params)
    p = np.asarray(point, dtype=float)
    h = 1e-5 * max(1.0, np.linalg.norm(p))

    def einstein(q):
        cv = curvature_at(space, q[None])
        return (cv.ricci - 0.5 * cv.scalar[..., None, None] * cv.metric)[0]

    dG = np.zeros((3, 3, 3))
    for c in range(3):
        e = np.zeros(3)
        e[c] = h
        dG[c] = (einstein(p + e) - einstein(p - e)) / (2.0 * h)
    cv = curvature_at(space, p[None])
    gamma = cv.christoffels[0]
    G = einstein(p)
    corr = np.einsum("dca,db->cab", gamma, G)
    nabla_G = dG - corr - np.swapaxes(corr, -1, -2)
    div = np.einsum("ca,cab->b", np.linalg.inv(cv.metric[0]), nabla_G)
    assert np.max(np.abs(div)) < 1e-6


@pytest.mark.parametrize("name,params,point", [
    ("schwarzschild", {"m": 1.0}, [0.0, 0.0, 4.0]),
    ("hyperboloid", {"a": 1.0}, [1.0, 0.2, -0.3]),
    ("hemisphere", {"radius": 1.0}, [0.4, 1.1, 0.2]),
])
def test_fd_matches_analytic_at_1e4(name, params, point):
    space = catalog(name, **params)
    fd = space.with_derivative_mode("fd", 1e-4)
    p = np.asarray(point)[None]
    cva = curvature_at(space, p)
    cvf = curvature_at(fd, p)
    scale = np.max(np.abs(cva.ricci)) + 1.0
    assert np.max(np.abs(cvf.ricci - cva.ricci)) / scale < 1e-5


def test_fd_second_order_convergence(hyperboloid):
    p = np.array([[0.9, -0.1, 0.4]])
    exact = curvature_at(hyperboloid, p).ricci
    errs = []
    for h in (2e-3, 1e-3):
        fd = hyperboloid.with_derivative_mode("fd", h)
        errs.append(np.max(np.abs(curvature_at(fd, p).ricci - exact)))
    assert errs[1] < errs[0] / 3.0  # O(h^2): ideally factor 4


def test_fd_mode_without_analytic_derivatives():
    # a space built from a bare metric callable works in fd mode
    from qll.ambient import AmbientSpace
    base = catalog("hyperboloid", a=1.0)
    bare = AmbientSpace("bare", {}, base.metric_fn, base.k_fn, derivative_mode="fd")
    p = np.array([[0.6, 0.3, -0.2]])
    cv = curvature_at(bare, p)
    ref = curvature_at(base, p)
    assert np.max(np.abs(cv.ricci - ref.ricci)) < 1e-7


@settings(max_examples=15, deadline=None)
@given(x=st.floats(-2.0, 2.0), y=st.floats(-2.0, 2.0), z=st.floats(0.2, 2.0))
def test_metric_spd_property(x, y, z):
    space = catalog("hyperboloid", a=1.0)
    g = space.metric(np.array([[x, y, z]]))[0]
    eig = np.linalg.eigvalsh(g)
    assert eig[0] > 0.0
    assert np.allclose(g, g.T)


def test_non_spd_metric_rejected():
    from qll.ambient import AmbientSpace

    pts = np.array([[1.0, 0.0, 0.0]])
    for diag in ((1.0, 1.0, -1.0), (1.0, 1.0, 0.0)):   # indefinite, singular

        def bad_metric(points, diag=diag):
            out = np.zeros(points.shape[:-1] + (3, 3))
            out[...] = np.diag(diag)
            return out

        space = AmbientSpace("bad", {}, bad_metric)
        # the check must come before g^{-1} divides by det g = 0
        with np.errstate(all="raise"):
            with pytest.raises(GeometryError, match="not positive definite"):
                space.metric(pts)
            with pytest.raises(GeometryError, match="not positive definite"):
                christoffels_at(space.with_derivative_mode("fd"), pts)
