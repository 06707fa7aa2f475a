"""The per-node kernels of induced_geometry and the ambient field fill against
plain einsum/inv references.

The references are the straightforward forms: g^{-1} from np.linalg.inv,
Gamma^a_bc = g^{ad} T_dbc / 2 by einsum, the induced metric and second form
as g(u, v) and -nu_a (X_ij^a + Gamma^a_bc e_i^b e_j^c), and |B_ring|^2 as the
full four-index contraction.  The closed-form kernels must agree with them to
roundoff.
"""

import numpy as np
import pytest

import qll.ambient as amb
from qll import surface as sf
from qll.ambient import _spd_inverse, catalog, christoffels_at
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
    return space.with_derivative_mode("fd") if mode == "fd" else space


def _mesh(grid, r0):
    return sf.round_sphere_with_harmonics(grid, r0, PERTURBATIONS, center=CENTER)


def reference_geometry(space, mesh):
    """g2, B, H, |B_ring|^2, nu and Gamma by the einsum forms."""
    grid, r = mesh.grid, mesh.radius
    X = mesh.embedding()
    r_t, r_p = grid.dtheta(r), grid.dphi(r)
    r_tt, r_tp, r_pp = grid.d2theta(r), grid.dthetaphi(r), grid.d2phi(r)
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
    mu = amb.ambient_fields_at(catalog("euclidean"), np.ones((4, 3))).mu
    assert mu.tobytes() == (0.5 * (scalar + 0.0 ** 2 - 0.0)).tobytes()
    assert not np.signbit(mu[0])
