"""The per-node kernels of induced_geometry and the ambient field fill against
plain einsum/inv references.

The references are the straightforward forms: g^{-1} from np.linalg.inv,
Gamma^a_bc = g^{ad} T_dbc / 2 by einsum, the induced metric and second form
as g(u, v) and -nu_a (X_ij^a + Gamma^a_bc e_i^b e_j^c), and |B_ring|^2 as the
full four-index contraction.  The closed-form kernels must agree with them to
roundoff.
"""

import dataclasses
import inspect
from dataclasses import replace

import numpy as np
import pytest

import qll.ambient as amb
from conftest import fd_space
from qll import surface as sf
from qll.ambient import _spd_inverse, catalog, christoffels_at
from qll.criticality import residual_report
from qll.functionals import energy_report
from qll.grids import SphereGrid

REL_TOL = 1e-12
PERTURBATIONS = [(2, 2, 0.05), (3, -1, 0.04)]
CENTER = (0.1, 0.05, -0.07)

CASES = [
    ("euclidean", {}, 1.0, "analytic"),
    ("schwarzschild", {"m": 1.0}, 4.0, "analytic"),
    ("hyperboloid", {"a": 1.0}, 1.0, "analytic"),
    ("paraboloid", {"alpha": 0.5}, 1.0, "analytic"),
    ("hemisphere", {"radius": 1.0}, 1.0, "analytic"),
    ("hyperboloid", {"a": 1.0}, 1.0, "fd"),
]
CASE_IDS = [f"{name}-{mode}" for name, _, _, mode in CASES]

TIME_SYMMETRIC = [
    ("euclidean", {}, 1.0),
    ("schwarzschild", {"m": 1.0}, 4.0),
    ("reissner_nordstrom", {"m": 1.0, "q": 0.5}, 4.0),
    ("hyperbolic", {"a": 1.0}, 1.0),
    ("hemisphere", {"radius": 1.0}, 1.0),
]


@pytest.fixture(scope="module")
def grid():
    return SphereGrid(24, 48)


def _space(name, params, mode):
    space = catalog(name, **params)
    return fd_space(space) if mode == "fd" else space


def _mesh(grid, r0):
    return sf.round_sphere_with_harmonics(grid, r0, PERTURBATIONS, center=CENTER)


def reference_geometry(space, mesh):
    """g2, B, H, |B_ring|^2, nu and Gamma by the einsum forms."""
    grid, r = mesh.grid, mesh.radius
    X = mesh.embedding()
    r_t, r_p = grid.dtheta(r), grid.dphi(r)
    r_tt, r_tp, r_pp = grid.d2theta(r), grid.dphi(grid.dtheta(r)), grid.d2phi(r)
    nh, nh_t, nh_p = grid.nhat, grid.dth_nhat, grid.dph_nhat
    e_t = r_t[..., None] * nh + r[..., None] * nh_t
    e_p = r_p[..., None] * nh + r[..., None] * nh_p
    X_tt = r_tt[..., None] * nh + 2.0 * r_t[..., None] * nh_t + r[..., None] * grid.d2th_nhat
    X_tp = (r_tp[..., None] * nh + r_t[..., None] * nh_p
            + r_p[..., None] * nh_t + r[..., None] * grid.dthph_nhat)
    X_pp = r_pp[..., None] * nh + 2.0 * r_p[..., None] * nh_p + r[..., None] * grid.d2ph_nhat

    _, g, _, dg = christoffels_at(space, X)
    ginv = np.linalg.inv(g)
    T = (np.einsum("...bdc->...dbc", dg) + np.einsum("...cdb->...dbc", dg) - dg)
    gamma = 0.5 * np.einsum("...ad,...dbc->...abc", ginv, T)

    def dot(u, v):
        return np.einsum("...ab,...a,...b->...", g, u, v)

    g2 = np.stack([np.stack([dot(e_t, e_t), dot(e_t, e_p)], axis=-1),
                   np.stack([dot(e_t, e_p), dot(e_p, e_p)], axis=-1)], axis=-2)
    ginv2 = np.linalg.inv(g2)
    n_cov = np.cross(e_t, e_p)
    n_up = np.einsum("...ab,...b->...a", ginv, n_cov)
    nu = n_up / np.sqrt(np.einsum("...a,...a->...", n_up, n_cov))[..., None]
    nu = nu * np.sign(np.einsum("...a,...a->...", nu, X - mesh.center))[..., None]
    nu_cov = np.einsum("...ab,...b->...a", g, nu)

    def second(Xij, ei, ej):
        acc = Xij + np.einsum("...abc,...b,...c->...a", gamma, ei, ej)
        return -np.einsum("...a,...a->...", nu_cov, acc)

    B_tp = second(X_tp, e_t, e_p)
    B = np.stack([np.stack([second(X_tt, e_t, e_t), B_tp], axis=-1),
                  np.stack([B_tp, second(X_pp, e_p, e_p)], axis=-1)], axis=-2)
    H = np.einsum("...ij,...ij->...", ginv2, B)
    Bring = B - 0.5 * H[..., None, None] * g2
    traceless_sq = np.einsum("...ij,...kl,...ik,...jl->...", Bring, Bring, ginv2, ginv2)
    return {"induced_metric": g2, "second_form": B, "H": H, "traceless_sq": traceless_sq,
            "nu": nu, "christoffels": gamma, "ginv_amb": ginv}


def _rel_err(new, ref):
    return np.max(np.abs(new - ref)) / (1.0 + np.max(np.abs(ref)))


@pytest.mark.parametrize("name, params, r0, mode", CASES, ids=CASE_IDS)
def test_induced_geometry_matches_einsum_reference(grid, name, params, r0, mode):
    space = _space(name, params, mode)
    mesh = _mesh(grid, r0)
    geom = sf.induced_geometry(space, mesh)
    ref = reference_geometry(space, mesh)
    gamma = christoffels_at(space, geom.X)[0]
    new = {"induced_metric": geom.induced_metric, "second_form": geom.second_form,
           "H": geom.H, "traceless_sq": geom.traceless_sq, "nu": geom.nu,
           "christoffels": gamma, "ginv_amb": geom.ginv_amb}
    # |B_ring|^2 is a difference of O(H^2) terms, so it is held to the H^2 scale
    scale = 1.0 + float(np.max(ref["H"] ** 2))
    errors = {key: _rel_err(new[key], ref[key]) for key in ref if key != "traceless_sq"}
    errors["traceless_sq"] = np.max(np.abs(new["traceless_sq"] - ref["traceless_sq"])) / scale
    assert max(errors.values()) <= REL_TOL, errors


@pytest.mark.parametrize("name, params, r0, mode", CASES, ids=CASE_IDS)
def test_closed_form_inverse_matches_linalg(grid, name, params, r0, mode):
    space = _space(name, params, mode)
    X = _mesh(grid, r0).embedding()
    g = space.metric(X)
    ginv = _spd_inverse(g, space.name)
    assert _rel_err(ginv, np.linalg.inv(g)) <= REL_TOL
    assert np.array_equal(ginv, np.swapaxes(ginv, -1, -2))


@pytest.mark.parametrize("name, params, r0", TIME_SYMMETRIC, ids=[c[0] for c in TIME_SYMMETRIC])
def test_time_symmetric_fill_has_exact_zero_k_terms(grid, name, params, r0):
    space = catalog(name, **params)
    assert space.time_symmetric
    geom = sf.induced_geometry(space, _mesh(grid, r0))
    fields = geom.ambient
    for arr in (fields.nabla_k, fields.J, fields.jnorm, fields.ksq):
        assert np.all(arr == 0.0) and not np.any(np.signbit(arr))
    # mu = (Sc + (tr k)^2 - |k|^2) / 2 with k = 0, as the general path forms it
    k = np.zeros_like(geom.ginv_amb)
    kmix = geom.ginv_amb @ k
    trk = np.trace(kmix, axis1=-2, axis2=-1)
    ksq = np.sum(kmix * np.swapaxes(kmix, -1, -2), axis=(-2, -1))
    assert fields.mu.tobytes() == (0.5 * (fields.scalar + trk ** 2 - ksq)).tobytes()


def test_time_symmetric_mu_keeps_the_sign_of_zero(monkeypatch):
    # Sc + 0 - 0 turns Sc = -0.0 into mu = +0.0, where 0.5 * Sc would give -0.0
    scalar = np.array([-0.0, 0.0, -1.5, 2.0])
    monkeypatch.setattr(amb, "_scalar", lambda ginv, ricci: scalar)
    mu = amb.constraint_data_at(catalog("euclidean"), np.ones((4, 3))).mu
    assert mu.tobytes() == (0.5 * (scalar + 0.0 ** 2 - 0.0)).tobytes()
    assert not np.signbit(mu[0])


def test_fill_leaves_an_array_the_space_keeps_unchanged(grid):
    # a dk_fn may hand out an array it keeps; the fill reads it and writes its own buffers
    # (the paraboloid's fill reads its dk_fn; the hyperboloid's divides dg by a instead)
    base = catalog("paraboloid", alpha=0.5)
    mesh = _mesh(grid, 1.0)
    kept = base.dk_fn(mesh.embedding())
    before = kept.copy()
    space = replace(base, dk_fn=lambda points: kept)
    report = energy_report(space, sf.induced_geometry(space, mesh))
    assert np.array_equal(kept, before)
    assert report.as_dict() == energy_report(base, sf.induced_geometry(base, mesh)).as_dict()


def _owners(obj, out):
    """The arrays that own the memory behind each array reachable from obj, by id."""
    if isinstance(obj, np.ndarray):
        while isinstance(obj.base, np.ndarray):
            obj = obj.base
        out[id(obj)] = obj
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            _owners(item, out)
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        for f in dataclasses.fields(obj):
            _owners(getattr(obj, f.name), out)
    return out


@pytest.mark.parametrize("name, params, r0, mode", [
    ("schwarzschild", {"m": 1.0}, 4.0, "analytic"),
    ("hyperboloid", {"a": 1.0}, 1.0, "analytic"),
    ("paraboloid", {"alpha": 0.5}, 1.0, "analytic"),
    ("schwarzschild", {"m": 1.0}, 4.0, "fd"),
    ("hyperboloid", {"a": 1.0}, 1.0, "fd"),
], ids=["schwarzschild", "hyperboloid", "paraboloid", "schwarzschild-fd", "hyperboloid-fd"])
def test_finished_surface_keeps_no_rank3_array(grid, name, params, r0, mode):
    # dg has no reader once the fill exists and nabla k none once its normal trace is
    # formed; a zero view owns one double, so the k = 0 fields do not count
    space = _space(name, params, mode)
    geom = sf.induced_geometry(space, _mesh(grid, r0))
    energy_report(space, geom)
    residual_report(space, geom, "willmore")
    residual_report(space, geom, "hawking")
    kept = _owners([*vars(geom).values(), geom.ambient], {}).values()
    nodes = grid.ntheta * grid.nphi
    assert [a.shape for a in kept if a.size >= 27 * nodes] == []
    if space.time_symmetric:
        fields = geom.ambient
        for arr in (geom.k_amb, geom.trk, geom.P, geom.dnu_k_trace, space.k_tensor(geom.X),
                    fields.nabla_k, fields.J, fields.jnorm, fields.ksq):
            assert not arr.flags.writeable and not any(arr.strides)


BIT_GRIDS = [(12, 24), (16, 32), (48, 96)]
AREAL = [
    ("euclidean", {}, 1.0),
    ("schwarzschild", {"m": 1.0}, 4.0),
    ("reissner_nordstrom", {"m": 1.0, "q": 0.5}, 4.0),
    ("hyperbolic", {"a": 1.0}, 1.0),
    ("paraboloid", {"alpha": 0.5}, 1.0),
]


@pytest.mark.parametrize("shape", BIT_GRIDS, ids=[f"{nt}x{nph}" for nt, nph in BIT_GRIDS])
def test_rewritten_kernels_equal_their_numpy_forms(shape):
    # each kernel does the operations of its old form in the same order: equal, not close
    rng = np.random.default_rng(shape[0])

    def field(*tail):
        return rng.standard_normal(shape + tail) * 10.0 ** rng.integers(-6, 7, shape + tail)

    gamma, k, dk = field(3, 3, 3), field(3, 3), field(3, 3, 3)
    args = [a.copy() for a in (gamma, k, dk)]
    corr = np.moveaxis(gamma, -3, -1) @ k[..., None, :, :]
    assert np.array_equal(amb._nabla_k(gamma, k, dk), dk - corr - np.swapaxes(corr, -1, -2))
    # its own product is its only buffer: no argument is written
    assert all(np.array_equal(a, b) for a, b in zip((gamma, k, dk), args))
    # the areal dmetric adds the u1 term slice by slice to the psi term's product
    grid = SphereGrid(*shape)
    for name, params, r0 in AREAL:
        space = catalog(name, **params)
        x = _mesh(grid, r0).embedding()
        r = np.linalg.norm(x, axis=-1)
        fns = inspect.getclosurevars(space.dmetric_fn).nonlocals
        ref = (np.einsum("...c,...ab->...cab", x, fns["u1"](r)[..., None, None] * amb._outer_xx(x))
               + ((fns["psi"](r)[..., None] * x) @ amb._DXX).reshape(x.shape + (3, 3)))
        assert np.array_equal(space.dmetric_fn(x), ref), name
    M, u, v = field(3, 3), field(3), field(3)
    assert np.array_equal(sf._bilinear(M, u, v), np.einsum("...ab,...a,...b->...", M, u, v))
    assert np.array_equal(sf._cross(u, v), np.cross(u, v))
    # einsum sums from +0.0, so a sum of -0.0 terms is +0.0, which array_equal does not see
    Z, u, v = -np.zeros(shape + (3, 3)), np.abs(u), np.abs(v)
    assert not np.any(np.signbit(np.einsum("...ab,...a,...b->...", Z, u, v)))
    assert not np.any(np.signbit(sf._bilinear(Z, u, v)))
