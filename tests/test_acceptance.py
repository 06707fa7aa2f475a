"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run as `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here and nowhere else.
"""

import time
from contextlib import contextmanager

import numpy as np

from qll import criticality as cr
from qll import flow
from qll import functionals as fn
from qll import highdim as hd
from qll import surface as sf
from qll.ambient import catalog, constraint_data_at
from qll.grids import SphereGrid
from qll.harmonics import band_limited_field


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"[FAIL] {label}")
        raise
    print(f"[PASS] {label}")


def test_criterion_1_hyperboloid_golden_suite():
    with criterion("criterion 1: hyperboloid slice golden values"):
        space = catalog("hyperboloid", a=1.0)
        grid = SphereGrid(48, 96)
        for r in (0.5, 1.0, 2.0):
            start = time.perf_counter()
            geom = sf.induced_geometry(space, sf.coordinate_sphere(grid, r))
            H_exact = (2.0 / r) * np.sqrt(1.0 + r * r)
            assert np.max(np.abs(geom.H - H_exact)) < 1e-8
            assert np.max(np.abs(geom.P - 2.0)) < 1e-8
            assert np.max(np.sqrt(geom.traceless_sq)) < 1e-8
            assert abs(fn.hawking_energy(geom)) < 1e-8
            assert cr.hawking_residual(space, geom, 0.0).linf_residual < 1e-6
            ints = fn.f_integrals(space, geom, lam=0.0)
            f_exact = 3.0 * r * r / (1.0 + r * r) * 4.0 * np.pi * r * r
            assert ints["f"] > 0.0
            assert abs(ints["f"] - f_exact) < 1e-6
            assert abs(ints["f_tilde"]) < 1e-6
            assert time.perf_counter() - start < 5.0


def test_criterion_2_paraboloid_golden_suite():
    with criterion("criterion 2: paraboloid slice golden values"):
        alpha = 0.5
        space = catalog("paraboloid", alpha=alpha)
        grid = SphereGrid(48, 96)
        for r in (0.5, 1.0, 1.5):
            start = time.perf_counter()
            u = (alpha * r) ** 2
            geom = sf.induced_geometry(space, sf.coordinate_sphere(grid, r))
            assert np.max(np.abs(geom.H - 2.0 / (r * np.sqrt(1 - u)))) < 1e-6
            assert np.max(np.abs(geom.P - 2.0 * alpha / np.sqrt(1 - u))) < 1e-6
            assert np.max(np.abs(geom.trk - alpha * (3 - 2 * u) / (1 - u) ** 1.5)) < 1e-6
            ginv = geom.ginv_amb
            ksq = np.einsum("...ab,...cd,...ac,...bd->...",
                            geom.k_amb, geom.k_amb, ginv, ginv)
            assert np.max(np.abs(ksq - alpha ** 2 * (3 - 4 * u + 2 * u * u) / (1 - u) ** 3)) < 1e-6
            from qll.ambient import nabla_k_at
            nk = nabla_k_at(space, geom.X)
            dnu_trk = np.einsum("...a,...bc,...abc->...", geom.nu, ginv, nk)
            dnu_knn = np.einsum("...a,...b,...c,...abc->...",
                                geom.nu, geom.nu, geom.nu, nk)
            assert np.max(np.abs(dnu_trk - alpha ** 3 * r * (5 - 2 * u) / (1 - u) ** 3)) < 1e-6
            assert np.max(np.abs(dnu_knn - 3 * alpha ** 3 * r / (1 - u) ** 3)) < 1e-6
            k_up_nu = np.einsum("...ab,...bc,...c->...a", ginv, geom.k_amb, geom.nu)
            assert np.max(np.abs(sf.tangential_divergence(geom, k_up_nu))) < 1e-6
            assert abs(fn.hawking_energy(geom)) < 1e-8
            assert abs(cr.best_lambda(space, geom, "hawking")) < 1e-6
            lam_w = 2.0 * alpha ** 2 / (1.0 - u) ** 2
            assert abs(cr.best_lambda(space, geom, "willmore") - lam_w) < 1e-5
            assert time.perf_counter() - start < 5.0


def test_criterion_3_time_symmetric_models():
    with criterion("criterion 3: Euclidean / ellipsoid / Schwarzschild suite"):
        grid = SphereGrid(48, 96)
        euclid = catalog("euclidean")
        # the residual carries units 1/length^3, so the absolute tolerance
        # presumes O(1) radii
        for r in (1.0, 2.0, 3.0):
            geom = sf.induced_geometry(euclid, sf.coordinate_sphere(grid, r))
            assert abs(fn.hawking_energy(geom)) < 1e-8
            assert cr.willmore_residual(euclid, geom, 0.0).linf_residual < 1e-8
        energies = []
        for (nt, nph) in ((32, 64), (48, 96)):
            g = SphereGrid(nt, nph)
            geom = sf.induced_geometry(euclid, sf.ellipsoid(g, (1.0, 1.0, 1.2)))
            energies.append(fn.hawking_energy(geom))
        assert all(e < 0.0 for e in energies)
        assert abs(energies[0] - energies[1]) <= 0.01 * abs(energies[1])
        schw = catalog("schwarzschild", m=1.0)
        for r in (3.0, 4.0, 8.0):
            geom = sf.induced_geometry(schw, sf.coordinate_sphere(grid, r))
            assert abs(fn.hawking_energy(geom) - 1.0) < 1e-6
            expected = r * (1.0 - np.sqrt(1.0 - 2.0 / r))
            assert abs(fn.brown_york_round(geom) - expected) < 1e-6


def test_criterion_4_cosmological_constant():
    with criterion("criterion 4: cosmological-constant suite"):
        grid = SphereGrid(48, 96)
        hyper = catalog("hyperbolic", Lambda=-3.0)
        for r in (0.5, 1.0, 2.0):
            geom = sf.induced_geometry(hyper, sf.coordinate_sphere(grid, r))
            assert abs(fn.lambda_hawking_energy(geom, -3.0)) < 1e-7
        Lambda = 3.0
        hemi = catalog("hemisphere", Lambda=Lambda)
        equator = sf.induced_geometry(hemi, sf.coordinate_sphere(grid, 2.0))
        assert np.max(np.abs(equator.H)) < 1e-7
        assert abs(equator.area - 12.0 * np.pi / Lambda) < 1e-7
        assert abs(fn.lambda_hawking_energy(equator, Lambda)) < 1e-7


def test_criterion_5_charged():
    with criterion("criterion 5: Reissner-Nordstrom charged suite"):
        grid = SphereGrid(48, 96)
        space = catalog("reissner_nordstrom", m=1.0, q=0.5)
        for r in (3.0, 4.0):
            geom = sf.induced_geometry(space, sf.coordinate_sphere(grid, r))
            Q, eq, _ = fn.charged_hawking_energy(geom)
            assert abs(Q - 0.5) < 1e-8
            assert abs(eq - 1.0) < 1e-6
            assert eq >= fn.hawking_energy(geom)


def test_criterion_6_first_variation():
    with criterion("criterion 6: first-variation property suite"):
        grid = SphereGrid(32, 64)
        spaces = [
            (catalog("euclidean"), 1.0),
            (catalog("schwarzschild", m=1.0), 4.0),
            (catalog("paraboloid", alpha=0.5), 1.0),
        ]
        rng = np.random.default_rng(2024)
        for space, r in spaces:
            # perturbed sphere: a generic, non-critical surface, so the
            # linear response int(W alpha) is nonzero and the relative
            # error is meaningful
            mesh = sf.round_sphere_with_harmonics(
                grid, r, [(2, 1, 0.02), (3, 0, 0.015)])
            for _ in range(5):
                alpha = band_limited_field(grid, 4, rng, scale=0.3)
                chk = cr.first_variation_check(space, mesh, alpha,
                                               s_values=(1.6e-2, 8e-3, 1e-3))
                assert chk.rows[-1].s == 1e-3
                assert chk.rows[-1].rel_error <= 1e-2
                assert chk.observed_order >= 1.9


def test_criterion_7_willmore_flow():
    with criterion("criterion 7: Willmore flow suite"):
        start = time.perf_counter()
        grid = SphereGrid(32, 64)
        euclid = catalog("euclidean")
        mesh = sf.round_sphere_with_harmonics(grid, 1.0, [(2, 0, 0.05)])
        config = flow.FlowConfig(mode="willmore", target_area=4.0 * np.pi,
                                 residual_tol=1e-5, max_steps=5000)
        state = flow.run_flow(euclid, config, mesh)
        assert state.status == "converged"
        assert state.step_index <= 5000
        assert state.l2_residual <= 1e-5
        functionals = [rec.functional for rec in state.history]
        assert all(b <= a for a, b in zip(functionals, functionals[1:]))
        target = state.history[0].area
        assert all(abs(rec.area - target) / target <= 1e-8 for rec in state.history)
        final = sf.induced_geometry(euclid, state.mesh)
        assert abs(fn.hawking_energy(final)) <= 1e-4
        assert time.perf_counter() - start < 120.0


def test_criterion_8_higher_dimensional():
    with criterion("criterion 8: higher-dimensional suite"):
        for n in (4, 5, 7):
            model = hd.euclidean_model(n)
            for r in (0.5, 1.0, 2.0):
                lam = (n - 3) * (n - 1) / (2.0 * r * r)
                rep = hd.radial_sphere(model, r, lam=lam)
                assert abs(rep.willmore_nd_residual) < 1e-10
        models = [
            hd.radial_model("euclidean"),
            hd.radial_model("schwarzschild", m=1.0),
            hd.radial_model("hyperboloid", a=1.0),
        ]
        radii = (1.0, 4.0, 1.0)
        grid = SphereGrid(48, 96)
        for model, r in zip(models, radii):
            d1, d2 = hd.nd_energy_consistency(model, r)
            assert d1 <= 1e-8 and d2 <= 1e-8
            space = catalog(model.catalog_name, **(model.catalog_params or {}))
            geom = sf.induced_geometry(space, sf.coordinate_sphere(grid, r))
            if np.all(geom.H > 0.0):
                rep = hd.radial_sphere(model, r)
                mesh_f = fn.f_integrals(space, geom, lam=0.0)["f"] / geom.area
                assert abs(rep.f_nd - mesh_f) <= 1e-8


def test_criterion_9_structural_properties():
    with criterion("criterion 9: structural property suite"):
        grid = SphereGrid(48, 96)
        euclid = catalog("euclidean")
        surfaces = [
            (euclid, sf.coordinate_sphere(grid, 1.0)),
            (euclid, sf.ellipsoid(grid, (1.0, 1.0, 1.2))),
            (euclid, sf.round_sphere_with_harmonics(grid, 1.0, [(2, 2, 0.02)])),
            (catalog("hyperboloid", a=1.0), sf.coordinate_sphere(grid, 1.0)),
            (catalog("paraboloid", alpha=0.5), sf.coordinate_sphere(grid, 1.0)),
            (catalog("schwarzschild", m=1.0), sf.coordinate_sphere(grid, 4.0)),
            (catalog("reissner_nordstrom", m=1.0, q=0.5), sf.coordinate_sphere(grid, 3.0)),
            (catalog("hemisphere", radius=1.0), sf.coordinate_sphere(grid, 2.0)),
        ]
        for space, mesh in surfaces:
            geom = sf.induced_geometry(space, mesh)
            gb = abs(sf.integrate(geom, geom.gauss_curvature) - 4.0 * np.pi)
            assert gb <= 1e-6
            assert np.max(np.abs(sf.gauss_equation_check(space, geom))) <= 1e-5
        for name, params in (("hyperboloid", {"a": 1.0}), ("paraboloid", {"alpha": 0.5})):
            space = catalog(name, **params)
            geom = sf.induced_geometry(space, sf.coordinate_sphere(grid, 0.9))
            cd = constraint_data_at(space, geom.X)
            assert np.max(np.abs(cd.dec_margin)) <= 1e-8
        base = sf.ellipsoid(grid, (1.0, 1.0, 1.2))
        e1 = fn.hawking_energy(sf.induced_geometry(euclid, base))
        for c in (0.5, 2.0):
            ec = fn.hawking_energy(sf.induced_geometry(euclid, base.scaled(c)))
            assert abs(ec - c * e1) <= 1e-6 * max(1.0, abs(c * e1))
