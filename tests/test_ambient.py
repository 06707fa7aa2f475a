import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import curvature_oracle as oracle
import qll.ambient as amb
from conftest import fd_space, random_points
from curvature_oracle import differenced_ricci, exact_metric
from qll.ambient import (CATALOG, AmbientSpace, catalog, christoffels_at, constraint_data_at,
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


# name -> (params, shell of random points, whether the chart contains r = 0)
CATALOG_SHELLS = {
    "euclidean": ({}, (0.5, 3.0), True),
    "schwarzschild": ({"m": 1.0}, (2.5, 6.0), False),
    "reissner_nordstrom": ({"m": 1.0, "q": 0.5}, (2.2, 6.0), False),
    "hyperboloid": ({"a": 1.0}, (0.5, 3.0), True),
    "paraboloid": ({"alpha": 0.5}, (0.3, 1.8), True),
    "hyperbolic": ({"a": 1.0}, (0.5, 3.0), True),
    "hemisphere": ({"radius": 1.0}, (0.5, 3.0), True),
}


@pytest.mark.parametrize("name", list(CATALOG_SHELLS))
def test_ricci_is_riemann_contraction(name):
    # curvature_at forms R_abcd from the closed-form Ric by the 3-d identity;
    # the oracle is the full Riemann formula fed with exact d2g, and its
    # contraction R^a_bad must be the closed-form Ric
    params, shell, has_origin = CATALOG_SHELLS[name]
    space = catalog(name, **params)
    metric, d2metric = exact_metric(name, **params)
    pts = random_points(np.random.default_rng(2), 8, *shell)
    if has_origin:
        pts = np.concatenate([pts, np.zeros((1, 3))])
    cv = curvature_at(space, pts)
    assert np.max(np.abs(metric(pts) - cv.metric)) < 1e-14 * np.max(np.abs(cv.metric))
    riem_up = oracle.riemann_up(cv.inv_metric, cv.christoffels, space.dmetric_fn(pts), d2metric(pts))
    riemann = np.einsum("...ae,...ebcd->...abcd", cv.metric, riem_up)
    assert np.max(np.abs(riemann - cv.riemann)) < 1e-11
    ric = np.einsum("...ab,...acbd->...cd", cv.inv_metric, riemann)
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


def test_point_evaluators_form_christoffels_only_for_nabla_k(monkeypatch, hyperboloid,
                                                            schwarzschild):
    # Gamma is formed once for nabla k on k != 0 data and not at all on
    # time-symmetric catalog data, whose Ricci tensor is closed-form
    calls = []
    christoffels = amb._christoffels
    monkeypatch.setattr(amb, "_christoffels", lambda *args: calls.append(1) or christoffels(*args))
    pts = random_points(np.random.default_rng(12), 5, 3.0, 6.0)
    for evaluate, space, count in ((constraint_data_at, hyperboloid, 1),
                                   (nabla_k_at, hyperboloid, 1),
                                   (constraint_data_at, schwarzschild, 0)):
        calls.clear()
        evaluate(space, pts)
        assert len(calls) == count, (evaluate.__name__, space.name)


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
    for name in ([], None, 3):
        with pytest.raises(CatalogError, match="unknown"):
            catalog(name)
    for value in ("x", [], None):
        with pytest.raises(CatalogError, match="invalid parameters"):
            catalog("hyperboloid", a=value)


def test_catalog_scale_or_Lambda():
    assert catalog("hyperbolic", Lambda=-3.0).params == {"a": 1.0}
    assert catalog("hemisphere", Lambda=0.75).params == {"radius": 2.0}
    assert catalog("hyperbolic").params == {"a": 1.0}
    with pytest.raises(CatalogError, match="Lambda < 0"):
        catalog("hyperbolic", Lambda=3.0)
    with pytest.raises(CatalogError, match="Lambda > 0"):
        catalog("hemisphere", Lambda=0.0)
    # Lambda replaces the scale; both together are an error, not a dropped value
    with pytest.raises(CatalogError, match="not both"):
        catalog("hyperbolic", a=2.0, Lambda=-3.0)
    with pytest.raises(CatalogError, match="not both"):
        catalog("hemisphere", radius=5.0, Lambda=3.0)


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_catalog_entries_supply_their_derivatives(name):
    # the fill reads dmetric_fn, ricci_fn and, on k != 0 data, dk_fn or umbilic_a
    space = catalog(name)
    assert space.dmetric_fn is not None and space.ricci_fn is not None
    assert space.k_fn is None or space.dk_fn is not None


def test_catalog_rejects_non_finite_parameters():
    from qll.highdim import radial_model
    for value in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(CatalogError, match="'Lambda'.*finite"):
            catalog("hyperbolic", Lambda=value)
        with pytest.raises(CatalogError, match="'a'.*finite"):
            catalog("hyperboloid", a=value)
        with pytest.raises(CatalogError, match="'m'.*finite"):
            catalog("schwarzschild", m=value)
        with pytest.raises(CatalogError, match="'m'.*finite"):
            radial_model("schwarzschild", m=value)


def test_catalog_parameters_are_real_numbers():
    # a bool or a string is not converted (a = True used to build a = 1.0)
    from qll.highdim import radial_model
    for value in (True, False, "2.5"):
        with pytest.raises(CatalogError, match="'a' must be a number"):
            catalog("hyperboloid", a=value)
        with pytest.raises(CatalogError, match="'Lambda' must be a number"):
            catalog("hemisphere", Lambda=value)
        with pytest.raises(CatalogError, match="'m' must be a number"):
            radial_model("schwarzschild", m=value)
    assert catalog("hyperboloid", a=2).params == {"a": 2.0}
    assert radial_model("schwarzschild", n=10 ** 30).n == 10 ** 30   # no float check of an int
    assert catalog("hyperboloid", a=np.float64(2.5)).params == {"a": 2.5}


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
def test_fd_matches_analytic_at_1e4(monkeypatch, name, params, point):
    space = catalog(name, **params)
    fd = fd_space(space)
    monkeypatch.setattr(oracle, "fd_steps", lambda points: (1e-4, 1e-4))
    p = np.asarray(point)[None]
    cva = curvature_at(space, p)
    cvf = curvature_at(fd, p)
    scale = np.max(np.abs(cva.ricci)) + 1.0
    assert np.max(np.abs(cvf.ricci - cva.ricci)) / scale < 1e-5


def test_fd_second_order_convergence(monkeypatch, hyperboloid):
    p = np.array([[0.9, -0.1, 0.4]])
    exact = curvature_at(hyperboloid, p).ricci
    fd = fd_space(hyperboloid)
    errs = []
    for h in (2e-3, 1e-3):
        monkeypatch.setattr(oracle, "fd_steps", lambda points, h=h: (h, h))
        errs.append(np.max(np.abs(curvature_at(fd, p).ricci - exact)))
    assert errs[1] < errs[0] / 3.0  # O(h^2): ideally factor 4


def test_space_without_closed_forms_is_rejected():
    # the library evaluates closed forms only: the error names each one the fill reads
    base = catalog("hyperboloid", a=1.0)
    with pytest.raises(CatalogError, match=r"'bare' lacks the closed form\(s\) dmetric_fn, "
                                           r"ricci_fn$"):
        AmbientSpace("bare", {}, base.metric_fn)
    with pytest.raises(CatalogError, match=r"dmetric_fn, ricci_fn, dk_fn$"):
        AmbientSpace("bare", {}, base.metric_fn, base.k_fn)
    with pytest.raises(CatalogError, match=r"closed form\(s\) dk_fn$"):
        dataclasses.replace(base, umbilic_a=None, dk_fn=None)
    # umbilic data divides dg by a, so it needs no dk_fn
    assert dataclasses.replace(base, dk_fn=None).umbilic_a == 1.0


def test_fd_mode_without_analytic_derivatives():
    # the oracle's central differences of the bare metric callable, at their own steps
    base = catalog("hyperboloid", a=1.0)
    p = np.array([[0.6, 0.3, -0.2]])
    cv = curvature_at(fd_space(base), p)
    ref = curvature_at(base, p)
    assert np.max(np.abs(cv.ricci - ref.ricci)) < 1e-7


def test_missing_second_derivatives_are_differenced():
    # dg is the space's own function and d2g comes from central differences;
    # the tolerance is test_fd_matches_analytic_at_1e4's
    analytic = catalog("schwarzschild")
    space = dataclasses.replace(
        analytic, ricci_fn=differenced_ricci(analytic.metric_fn, analytic.dmetric_fn))
    pts = random_points(np.random.default_rng(11), 12, 2.5, 6.0)
    got, ref = constraint_data_at(space, pts), constraint_data_at(analytic, pts)
    for name in ("ricci", "scalar", "mu", "dec_margin"):
        exact = getattr(ref, name)
        scale = np.max(np.abs(exact)) + 1.0
        assert np.max(np.abs(getattr(got, name) - exact)) / scale < 1e-5


def test_fd_steps_are_per_point():
    # a point's central differences use its own step, so a far point in the
    # same batch changes none of its differenced derivatives
    p = np.array([[2.5, 0.3, 0.1]])
    batch = np.concatenate([p, [[40.0, 0.0, 0.0]]])
    orders = {1: lambda fn, x: oracle.differenced(fn)(x),
              2: lambda fn, x: oracle.fd_second(fn, x, oracle.fd_steps(x)[1])}
    for name, fn, point, far in (("schwarzschild", "metric_fn", p, batch[1]),
                                 ("paraboloid", "k_fn", 0.2 * p, [1.9, 0.0, 0.0])):
        fn = getattr(catalog(name), fn)
        for order, differences in orders.items():
            alone = differences(fn, point)
            batched = differences(fn, np.concatenate([point, [far]]))
            assert np.array_equal(alone[0], batched[0]), (name, order)
    # the Ricci tensor from those differences is as accurate in the batch as alone
    space, exact = fd_space(catalog("schwarzschild")), catalog("schwarzschild")
    ref = constraint_data_at(exact, batch).ricci
    got = constraint_data_at(space, batch).ricci
    assert np.max(np.abs(got[0] - ref[0])) < 1e-5


@settings(max_examples=15, deadline=None)
@given(x=st.floats(-2.0, 2.0), y=st.floats(-2.0, 2.0), z=st.floats(0.2, 2.0))
def test_metric_spd_property(x, y, z):
    space = catalog("hyperboloid", a=1.0)
    g = space.metric(np.array([[x, y, z]]))[0]
    eig = np.linalg.eigvalsh(g)
    assert eig[0] > 0.0
    assert np.allclose(g, g.T)


def test_non_spd_metric_rejected():
    pts = np.array([[1.0, 0.0, 0.0]])
    for diag in ((1.0, 1.0, -1.0), (1.0, 1.0, 0.0)):   # indefinite, singular

        def bad_metric(points, diag=diag):
            out = np.zeros(points.shape[:-1] + (3, 3))
            out[...] = np.diag(diag)
            return out

        space = fd_space(dataclasses.replace(catalog("euclidean"), name="bad",
                                             metric_fn=bad_metric))
        # the check must come before g^{-1} divides by det g = 0
        with np.errstate(all="raise"):
            with pytest.raises(GeometryError, match="not positive definite"):
                space.metric(pts)
            with pytest.raises(GeometryError, match="not positive definite"):
                christoffels_at(space, pts)
