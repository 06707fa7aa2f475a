import copy
import csv
import json
import os
import re
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qll import surface as sf
from qll.cli import RunConfig, dumps_canonical, main
from qll.errors import ConfigError
from qll.grids import SphereGrid


def write_config(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh)
    return str(path)


def test_eval_hyperboloid_sphere(tmp_path):
    cfg = write_config(tmp_path / "run.json", {
        "space": {"name": "hyperboloid", "params": {"a": 1.0}},
        "surface": {"sphere_r": 1.0},
        "grid": [48, 96],
        "output": {"dir": str(tmp_path)},
    })
    assert main(["eval", "--config", cfg]) == 0
    rep = json.loads((tmp_path / "report.json").read_text())
    assert abs(rep["hawking_energy"]) < 1e-8
    assert rep["space_name"] == "hyperboloid"
    assert rep["grid_resolution"] == [48, 96]


def test_eval_on_k_data_keeps_stderr_empty(tmp_path):
    cfg = write_config(tmp_path / "run.json", {
        "space": {"name": "hyperboloid", "params": {"a": 1.0}},
        "surface": {"sphere_r": 1.0},
        "grid": [16, 32],
        "output": {"dir": str(tmp_path)},
    })
    proc = run_cli_process("eval", cfg)
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert json.loads((tmp_path / "report.json").read_text())["brown_york"] is not None


def run_cli_process(task, cfg, *args):
    """`python -m qll.cli task --config cfg *args` in a new process with this checkout's src."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "qll.cli", task, "--config", cfg, *args],
                          env=env, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("task,run", [
    ("eval", {"space": {"name": "euclidean"}, "surface": {"sphere_r": 1e200}}),
    ("eval", {"space": {"name": "schwarzschild"}, "surface": {"sphere_r": 1e200}}),
    ("sweep", {"space": {"name": "schwarzschild"}, "sweep": {"r_values": [4.0, 1e200]}}),
], ids=["eval-euclidean", "eval-schwarzschild", "sweep-schwarzschild"])
def test_non_finite_chart_radius_is_one_error_line(tmp_path, task, run):
    # |x|^2 overflows: one error line that names the chart radius, and no numpy warning
    cfg = write_config(tmp_path / "run.json", dict(run, grid=[16, 32]))
    proc = run_cli_process(task, cfg, "--out", str(tmp_path / "out"))
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "non-finite chart radius" in proc.stderr


def test_eval_deterministic_bytes(tmp_path):
    cfg = write_config(tmp_path / "run.json", {
        "space": {"name": "schwarzschild", "params": {"m": 1.0}},
        "surface": {"sphere_r": 4.0},
        "grid": [24, 48],
        "output": {"dir": str(tmp_path)},
    })
    assert main(["eval", "--config", cfg]) == 0
    first = (tmp_path / "report.json").read_bytes()
    assert main(["eval", "--config", cfg]) == 0
    assert (tmp_path / "report.json").read_bytes() == first


def test_eval_ellipsoid_mesh_file(tmp_path):
    grid = SphereGrid(32, 64)
    sf.save_mesh(sf.ellipsoid(grid, (1.0, 1.0, 1.2)), tmp_path / "ell.txt")
    cfg = write_config(tmp_path / "run.json", {
        "space": {"name": "euclidean"},
        "surface": {"mesh_file": str(tmp_path / "ell.txt")},
        "grid": [32, 64],
        "output": {"dir": str(tmp_path), "format": "csv"},
    })
    assert main(["eval", "--config", cfg]) == 0
    rep = json.loads((tmp_path / "report.json").read_text())
    assert rep["hawking_energy"] < 0.0
    assert read_report_csv(tmp_path / "report.csv") == list(rep.items())


def read_report_csv(path):
    """report.csv as (field, value) pairs in file order; every value cell
    holds canonical JSON once the CSV quoting is undone."""
    with open(path, newline="", encoding="ascii") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["field", "value"]
    assert all(len(row) == 2 for row in rows)
    return [(field, json.loads(value)) for field, value in rows[1:]]


def test_eval_csv_quotes_cells_with_commas(tmp_path):
    cfg = write_config(tmp_path / "run.json", {
        "space": {"name": "reissner_nordstrom", "params": {"m": 1.0, "q": 0.5}},
        "surface": {"sphere_r": 3.0},
        "grid": [16, 32],
        "output": {"dir": str(tmp_path), "format": "csv"},
    })
    assert main(["eval", "--config", cfg]) == 0
    rep = json.loads((tmp_path / "report.json").read_text())
    assert rep["space_params"] == {"m": 1.0, "q": 0.5}
    assert read_report_csv(tmp_path / "report.csv") == list(rep.items())


def test_eval_csv_quotes_cells_with_quotes(tmp_path):
    # one-parameter space: space_params holds quotes but no comma
    cfg = write_config(tmp_path / "run.json", {
        "space": {"name": "hyperboloid", "params": {"a": 1.0}},
        "surface": {"sphere_r": 1.0},
        "grid": [16, 32],
        "output": {"dir": str(tmp_path), "format": "csv"},
    })
    assert main(["eval", "--config", cfg]) == 0
    text = (tmp_path / "report.csv").read_text(encoding="ascii")
    assert 'space_params,"{""a"":1}"\n' in text
    assert 'space_name,"""hyperboloid"""\n' in text
    rep = json.loads((tmp_path / "report.json").read_text())
    assert read_report_csv(tmp_path / "report.csv") == list(rep.items())


def test_residual_paraboloid_sphere(tmp_path):
    cfg = write_config(tmp_path / "run.json", {
        "space": {"name": "paraboloid", "params": {"alpha": 0.5}},
        "surface": {"sphere_r": 1.0},
        "mode": "hawking",
        "lambda_el": 0.0,
        "grid": [48, 96],
        "output": {"dir": str(tmp_path), "format": "csv"},
    })
    assert main(["residual", "--config", cfg]) == 0
    res = json.loads((tmp_path / "residual.json").read_text())
    assert res["linf_residual"] < 1e-6
    rows = (tmp_path / "residual_field.csv").read_text().splitlines()
    assert rows[0] == "theta,phi,residual"
    assert len(rows) == 48 * 96 + 1


def test_flow_task(tmp_path):
    cfg = write_config(tmp_path / "run.json", {
        "space": {"name": "euclidean"},
        "surface": {"round_r": 1.0, "perturbations": [[2, 0, 0.05]]},
        "mode": "willmore",
        "flow": {"target_area": 4.0 * np.pi, "residual_tol": 1e-5},
        "grid": [32, 64],
        "output": {"dir": str(tmp_path)},
    })
    assert main(["flow", "--config", cfg]) == 0
    summary = json.loads((tmp_path / "flow.json").read_text())
    assert summary["status"] == "converged"
    mesh = sf.load_mesh(tmp_path / "final_mesh.txt")
    assert np.max(mesh.radius) - np.min(mesh.radius) < 1e-4
    history = (tmp_path / "flow_history.csv").read_text().splitlines()
    assert history[0] == "step,functional,area,residual,step_size"
    rows = list(csv.DictReader(history))
    # one row per step on the requested grid, its initial surface included;
    # the step numbers run on from the coarse stage's steps on 16x32
    steps = [int(row["step"]) for row in rows]
    assert steps[0] > 0
    assert steps == list(range(steps[0], summary["steps"] + 1))
    assert float(rows[-1]["residual"]) == summary["l2_residual"]


def test_sweep_task(tmp_path):
    cfg = write_config(tmp_path / "run.json", {
        "sweep": {"model": "schwarzschild", "n": 4, "params": {"m": 1.0},
                  "r_values": [3.0, 4.0, 6.0]},
        "output": {"dir": str(tmp_path)},
    })
    assert main(["sweep", "--config", cfg]) == 0
    rows = (tmp_path / "sweep.csv").read_text().splitlines()
    assert len(rows) == 4
    header = rows[0].split(",")
    e1 = [float(r.split(",")[header.index("energy_1_static")]) for r in rows[1:]]
    assert all(abs(v - 1.0) < 1e-10 for v in e1)


@pytest.mark.parametrize("space,extra,r_values", [
    ({"name": "schwarzschild", "params": {"m": 1.0}}, {}, [3.0, 5.0, 8.0]),
    ({"name": "hyperboloid", "params": {"a": 1.0}}, {"Lambda": -3.0}, [0.5, 1.0, 2.0]),
    ({"name": "paraboloid", "params": {"alpha": 0.5}}, {"hypothesis": {"beta": 0.3}},
     [0.5, 1.0, 1.5]),
    ({"name": "reissner_nordstrom", "params": {"m": 1.0, "q": 0.5}},
     {"Lambda": 0.1, "hypothesis": {"beta": 0.25, "lambda": 0.01}}, [3.0, 5.0, 8.0]),
], ids=["schwarzschild", "hyperboloid", "paraboloid", "reissner_nordstrom"])
def test_catalog_sweep_matches_eval(tmp_path, space, extra, r_values):
    # each row is r and the eval report of surface.sphere_r = r under the same config
    run = dict(extra, space=space, grid=[32, 64])
    cfg = write_config(tmp_path / "sweep.json", dict(run, sweep={"r_values": r_values}))
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "sweep")]) == 0
    with open(tmp_path / "sweep" / "sweep.csv", newline="", encoding="ascii") as fh:
        header, *rows = list(csv.reader(fh))
    assert len(rows) == len(r_values)
    for r, row in zip(r_values, rows):
        cfg = write_config(tmp_path / "eval.json", dict(run, surface={"sphere_r": r}))
        assert main(["eval", "--config", cfg, "--out", str(tmp_path / "eval")]) == 0
        report = json.loads((tmp_path / "eval" / "report.json").read_text())
        assert header == ["r", *report]
        assert [json.loads(cell) for cell in row] == [r, *report.values()]


def test_catalog_sweep_hypothesis_violation(tmp_path):
    # as eval: a forced f on a sphere past the 3-sphere's equator exits with status 2
    cfg = write_config(tmp_path / "run.json", {
        "space": {"name": "hemisphere", "params": {"radius": 1.0}}, "grid": [16, 32],
        "hypothesis": {"beta": 0.25}, "sweep": {"r_values": [0.5, 3.0]}})
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 2


def test_varcheck_task(tmp_path):
    cfg = write_config(tmp_path / "run.json", {
        "space": {"name": "euclidean"},
        "surface": {"round_r": 1.0, "perturbations": [[2, 0, 0.03]]},
        "varcheck": {"lapse": {"seed": 1, "lmax": 3}},
        "grid": [32, 64],
        "output": {"dir": str(tmp_path), "format": "csv"},
    })
    assert main(["varcheck", "--config", cfg]) == 0
    chk = json.loads((tmp_path / "varcheck.json").read_text())
    assert chk["observed_order"] > 1.8
    rows = (tmp_path / "varcheck.csv").read_text().splitlines()
    assert rows[0] == "s,quotient,prediction,abs_error,rel_error"
    assert [float(r.split(",")[0]) for r in rows[1:]] == [r["s"] for r in chk["rows"]]


@pytest.mark.parametrize("lapse", [{"seed": 3}, {"lmax": 3}, {"l": 3}])
def test_varcheck_lapse_keys_with_defaults(lapse):
    # either seeded key alone, and l without m or amplitude, are lapses of their form
    assert RunConfig(dict(VALID_RUN, varcheck={"lapse": lapse}), "varcheck").lapse == lapse


def test_eval_with_cosmological_constant(tmp_path):
    cfg = write_config(tmp_path / "run.json", {
        "space": {"name": "hyperbolic", "params": {"Lambda": -3.0}},
        "surface": {"sphere_r": 1.0},
        "Lambda": -3.0,
        "grid": [32, 64],
        "output": {"dir": str(tmp_path)},
    })
    assert main(["eval", "--config", cfg]) == 0
    rep = json.loads((tmp_path / "report.json").read_text())
    assert abs(rep["lambda_energy"]) < 1e-7
    assert rep["Lambda"] == -3.0


def test_grid_override_flag(tmp_path):
    cfg = write_config(tmp_path / "run.json", {
        "space": {"name": "euclidean"},
        "surface": {"sphere_r": 1.0},
        "grid": [48, 96],
        "output": {"dir": str(tmp_path)},
    })
    assert main(["eval", "--config", cfg, "--grid", "24x48"]) == 0
    rep = json.loads((tmp_path / "report.json").read_text())
    assert rep["grid_resolution"] == [24, 48]


def test_exit_code_hypothesis_violation(tmp_path, capsys):
    # H changes sign past the equator of the 3-sphere, so an explicit f
    # request must exit with status 2
    cfg = write_config(tmp_path / "run.json", {
        "space": {"name": "hemisphere", "params": {"radius": 1.0}},
        "surface": {"sphere_r": 3.0},
        "hypothesis": {"beta": 0.25},
        "grid": [16, 32],
        "output": {"dir": str(tmp_path)},
    })
    assert main(["eval", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err == "hypothesis violation: f requires positive mean curvature at every node\n"
    assert not (tmp_path / "report.json").exists()


def test_eval_hypothesis_computes_f_integrals_once(tmp_path, monkeypatch):
    import qll.cli
    import qll.functionals
    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(qll.cli, "f_integrals", counted(qll.cli.f_integrals))
    monkeypatch.setattr(qll.functionals, "f_integrals", counted(qll.functionals.f_integrals))
    cfg = write_config(tmp_path / "run.json", {
        "space": {"name": "paraboloid", "params": {"alpha": 0.5}},
        "surface": {"sphere_r": 1.0},
        "hypothesis": {"beta": 0.25},
        "grid": [24, 48],
        "output": {"dir": str(tmp_path)},
    })
    assert main(["eval", "--config", cfg]) == 0
    assert len(calls) == 1
    assert json.loads((tmp_path / "report.json").read_text())["f_integral"] is not None


VALID_RUN = {"space": {"name": "euclidean"}, "surface": {"sphere_r": 1.0}, "grid": [16, 32]}


def broken(task, **fields):
    return task, json.dumps(dict(VALID_RUN, **fields))


def broken_flow(**flow):
    """A Y20 flow run with one flow field set, and the name of that field."""
    run = dict(VALID_RUN, surface={"round_r": 1.0, "perturbations": [[2, 0, 0.05]]},
               mode="willmore", flow=flow)
    return ("flow", json.dumps(run), *flow)


def broken_sweep(**fields):
    return "sweep", json.dumps({"sweep": dict({"model": "schwarzschild", "r_values": [4.0]},
                                              **fields)})


def sweep_with(catalog_space, **top):
    """A catalog-space (or radial-model) sweep run with the given top-level fields."""
    run = ({"space": {"name": "schwarzschild"}, "sweep": {"r_values": [4.0]}} if catalog_space
           else {"sweep": {"model": "schwarzschild", "r_values": [4.0]}})
    return "sweep", json.dumps(dict(run, **top))


@pytest.mark.parametrize("breakage", [
    lambda: ("eval", "{broken"),
    lambda: ("eval", json.dumps({"space": {"name": "euclidean"}, "grid": [48, 96]})),
    lambda: ("eval", json.dumps({"space": {"name": "euclidean"},
                                 "surface": {"sphere_r": 1.0, "mesh_file": "x"},
                                 "grid": [48, 96]})),
    lambda: ("eval", json.dumps({"space": {"name": "euclidean"},
                                 "surface": {"sphere_r": 1.0}, "grid": [8, 16]})),
    lambda: ("eval", json.dumps({"space": {"name": "no_such_space"},
                                 "surface": {"sphere_r": 1.0}, "grid": [48, 96]})),
    lambda: broken("eval", grid=48),
    lambda: broken("eval", grid=["48", "96"]),
    lambda: broken("eval", output="x"),
    lambda: broken("eval", hypothesis=5),
    lambda: broken("residual", lambda_el=[1]),
    lambda: broken("flow", flow={"target_area": "x"}),
    lambda: broken("varcheck", varcheck={"lapse": [2, 0]}),
    lambda: broken("varcheck", varcheck={"s_values": [0.0, 0.01]}),
    lambda: broken_sweep(params=5),
    lambda: broken_sweep(r_values=5),
    lambda: broken_sweep(params={"mass": 2.0}),
    lambda: ("eval", "[1, 2]"),
    # flow settings that are out of range or not settings; the error line must name the field
    lambda: broken_flow(max_backtracks=-1),
    lambda: broken_flow(smoothing_tau=-0.25),
    lambda: broken_flow(initial_step=-0.1),
    lambda: broken_flow(max_steps=-3),
    # unknown keys are errors that name the key, not silently dropped
    lambda: broken_flow(residual_tl=1e-5),
    lambda: ("varcheck", json.dumps(dict(VALID_RUN, varcheck={"lapse": {"l": 2, "ell": 3}})),
             "varcheck.lapse.ell"),
    # a space form is given by its scale or by Lambda, not both
    lambda: broken("eval", space={"name": "hyperbolic", "params": {"a": 2.0, "Lambda": -3.0}}),
    # JSON's NaN parses to a float; the catalog names the non-finite parameter
    lambda: (*broken("eval", space={"name": "hyperboloid", "params": {"a": float("nan")}}),
             "'a'", "finite"),
    # an integer model parameter is not truncated (n = 3.7 used to run as n = 3)
    lambda: (*broken_sweep(params={"n": 3.7, "m": 1.0}, r_values=[3.0]), "'n'", "integer"),
    # a float catalog parameter is a number, not a bool (a = true used to run as a = 1)
    lambda: (*broken("eval", space={"name": "hyperboloid", "params": {"a": True}}), "'a'"),
    # harmonic degree and order are integers ([2.7, true, 0.05] used to run as [2, 1, 0.05])
    lambda: (*broken("eval", surface={"round_r": 1.0, "perturbations": [[2.7, True, 0.05]]}),
             "surface.perturbations[0].l"),
    # unknown keys in surface and hypothesis name the key
    lambda: (*broken("eval", surface={"sphere_r": 1.0, "centre": [0.1, 0.0, 0.0]}),
             "surface.centre"),
    lambda: (*broken("eval", hypothesis={"betta": 0.3}), "hypothesis.betta"),
    # r ** (n - 2) overflows at n = 1000: a NumericError naming the model, n and r
    lambda: (*broken_sweep(n=1000, params={"m": 1.0}, r_values=[3.0]),
             "'schwarzschild'", "n = 1000", "r = 3.0"),
    # n = 2 is rejected before schwarzschild's horizon (2m)^(1/(n - 2)) divides by zero
    lambda: (*broken_sweep(n=2, params={"m": 1.0}), "'schwarzschild'", "n = 2"),
    # non-finite numbers, which JSON's NaN and Infinity parse to, and an integer
    # beyond a float's range
    lambda: broken_flow(residual_tol=float("nan")),
    lambda: (*broken("eval", Lambda=float("inf")), "'Lambda'", "finite"),
    lambda: (*broken("eval", Lambda=10 ** 400), "'Lambda'", "finite"),
    # unknown keys at the top level and in every section name the key
    lambda: (*broken("eval", Lamda=-3.0), "'Lamda'"),
    lambda: (*broken("eval", output={"fromat": "csv"}), "output.fromat"),
    lambda: (*broken("eval", space={"name": "euclidean", "parms": {}}), "space.parms"),
    lambda: (*broken_sweep(r_value=[4.0]), "sweep.r_value"),
    lambda: (*broken("varcheck", varcheck={"s_value": [0.01]}), "varcheck.s_value"),
    # a catalog space's sweep takes no radial model
    lambda: ("sweep", json.dumps({"space": {"name": "schwarzschild"},
                                  "sweep": {"model": "schwarzschild", "r_values": [4.0]}}),
             "sweep.model"),
    # a setting that a sweep would not read is an error that names it
    lambda: (*sweep_with(True, surface={"sphere_r": 1.0, "center": [0.5, 0.0, 0.0]}),
             "'surface'", "catalog-space sweep"),
    lambda: (*sweep_with(True, lambda_el=0.3), "'lambda_el'", "catalog-space sweep"),
    lambda: (*sweep_with(False, Lambda=-3.0), "'Lambda'", "radial-model sweep"),
    lambda: (*sweep_with(False, hypothesis={"beta": 0.25}), "'hypothesis'", "radial-model sweep"),
    # a radial sweep sets its dimension once (sweep.n used to override sweep.params.n)
    lambda: (*broken_sweep(n=4, params={"m": 1.0, "n": 5}), "sweep.params.n"),
    # a lapse takes one of its two forms (seed and lmax used to be dropped)
    lambda: (*broken("varcheck", varcheck={"lapse": {"l": 2, "m": 0, "seed": 7, "lmax": 4}}),
             "varcheck.lapse"),
    # a harmonic-form key without l, or no key at all, used to run the seeded lapse
    lambda: (*broken("varcheck", varcheck={"lapse": {"m": 1}}), "'varcheck.lapse.l'"),
    lambda: (*broken("varcheck", varcheck={"lapse": {"amplitude": 2}}), "'varcheck.lapse.l'"),
    lambda: (*broken("varcheck", varcheck={"lapse": {}}), "'varcheck.lapse'"),
    # mode is checked on every task that reads it ('wilmore' used to run eval, and to reach
    # the library's error on residual and flow)
    *[lambda task=task: (*broken(task, mode="wilmore"), "'mode'", "willmore")
      for task in ("eval", "residual", "flow", "varcheck")],
    # an odd nphi used to reach SphereGrid's own error
    lambda: (*broken("eval", grid=[16, 33]), "'grid'", "even nphi"),
    # Y_40,3 lies outside the 16x32 band (it used to be aliased silently)
    lambda: (*broken("eval", surface={"round_r": 1.0, "perturbations": [[40, 3, 0.01]]}),
             "'surface.perturbations[0].l'"),
])
def test_exit_code_config_errors(tmp_path, capsys, breakage):
    task, text, *named = breakage()
    path = tmp_path / "run.json"
    path.write_text(text)
    assert main([task, "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert all(field in err for field in named)


FUZZ_RUNS = {
    "eval": {"space": {"name": "hyperboloid", "params": {"a": 1.0}},
             "surface": {"round_r": 1.0, "perturbations": [[2, 0, 0.05]],
                         "center": [0.0, 0.0, 0.1]},
             "grid": [16, 32], "Lambda": -3.0, "hypothesis": {"beta": 0.25, "lambda": 0.0},
             "output": {"format": "csv"}},
    "residual": {"space": {"name": "schwarzschild", "params": {"m": 1.0}},
                 "surface": {"sphere_r": 4.0}, "grid": [16, 32], "mode": "hawking",
                 "lambda_el": 0.5, "output": {"format": "csv"}},
}


def _key_paths(obj, prefix=()):
    for key, value in obj.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _key_paths(value, prefix + (key,))


NON_NUMERIC = st.one_of(st.text(max_size=8), st.booleans(), st.none(),
                        st.lists(st.text(max_size=4), max_size=3),
                        st.dictionaries(st.text(max_size=4), st.text(max_size=4), max_size=2))


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_non_numeric_field_is_a_typed_error(data):
    # any one field replaced by a non-numeric value: a report or an exit code, never a crash
    task = data.draw(st.sampled_from(sorted(FUZZ_RUNS)))
    raw = copy.deepcopy(FUZZ_RUNS[task])
    path = data.draw(st.sampled_from(list(_key_paths(raw))))
    node = raw
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = data.draw(NON_NUMERIC)
    with tempfile.TemporaryDirectory() as tmp:
        cfg = write_config(os.path.join(tmp, "run.json"), raw)
        assert main([task, "--config", cfg, "--out", os.path.join(tmp, "out")]) in (0, 1, 2)


def test_exit_code_bad_grid_flag(tmp_path):
    cfg = write_config(tmp_path / "run.json", {
        "space": {"name": "euclidean"},
        "surface": {"sphere_r": 1.0},
        "output": {"dir": str(tmp_path)},
    })
    assert main(["eval", "--config", cfg, "--grid", "banana"]) == 1


def test_grid_flag_with_an_odd_nphi_is_a_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path / "run.json", dict(VALID_RUN, output={"dir": str(tmp_path)}))
    assert main(["eval", "--config", cfg, "--grid", "16x33"]) == 1
    assert capsys.readouterr().err == \
        "error: field 'grid' must be [ntheta, nphi] with an even nphi\n"


# a harmonic input at the edge of the run grid's band, and the same input one past
# that edge: (task, grid, section at the edge, section past it, field the error names)
def _surface(*perturbations):
    return {"surface": {"round_r": 1.0, "perturbations": [list(t) for t in perturbations]}}


def _lapse(**lapse):
    return {"varcheck": {"lapse": lapse}}


BAND_EDGES = {
    "l-below-0": ("eval", [16, 32], _surface((0, 0, 0.01)), _surface((-1, 0, 0.01)),
                  "surface.perturbations[0].l"),
    "l-above-ntheta": ("eval", [16, 32], _surface((2, 0, 0.01), (15, 0, 0.01)),
                       _surface((2, 0, 0.01), (16, 0, 0.01)), "surface.perturbations[1].l"),
    "m-above-l": ("eval", [16, 32], _surface((3, 3, 0.01)), _surface((3, 4, 0.01)),
                  "surface.perturbations[0].m"),
    "m-below-minus-l": ("eval", [16, 32], _surface((3, -3, 0.01)), _surface((3, -4, 0.01)),
                        "surface.perturbations[0].m"),
    "m-above-nphi": ("eval", [24, 32], _surface((20, -15, 0.01)), _surface((20, -16, 0.01)),
                     "surface.perturbations[0].m"),
    "lapse-l-below-0": ("varcheck", [16, 32], _lapse(l=0), _lapse(l=-1), "varcheck.lapse.l"),
    "lapse-l-above-ntheta": ("varcheck", [16, 32], _lapse(l=15), _lapse(l=16),
                             "varcheck.lapse.l"),
    "lapse-m-above-l": ("varcheck", [16, 32], _lapse(l=2, m=2), _lapse(l=2, m=3),
                        "varcheck.lapse.m"),
    "lapse-m-above-nphi": ("varcheck", [24, 32], _lapse(l=20, m=15), _lapse(l=20, m=16),
                           "varcheck.lapse.m"),
    "lapse-lmax-below-2": ("varcheck", [16, 32], _lapse(lmax=2), _lapse(lmax=1),
                           "varcheck.lapse.lmax"),
    "lapse-lmax-above-ntheta": ("varcheck", [16, 64], _lapse(lmax=15), _lapse(lmax=16),
                                "varcheck.lapse.lmax"),
    "lapse-lmax-above-nphi": ("varcheck", [24, 32], _lapse(lmax=15), _lapse(lmax=16),
                              "varcheck.lapse.lmax"),
    "lapse-seed-below-0": ("varcheck", [16, 32], _lapse(seed=0), _lapse(seed=-1),
                           "varcheck.lapse.seed"),
}


@pytest.mark.parametrize("edge", sorted(BAND_EDGES))
def test_harmonic_inputs_lie_in_the_grid_band(edge):
    task, grid, inside, outside, field = BAND_EDGES[edge]
    RunConfig(dict(VALID_RUN, grid=grid, **inside), task)
    named = rf"^field '{re.escape(field)}' must be"
    with pytest.raises(ConfigError, match=named):
        RunConfig(dict(VALID_RUN, grid=grid, **outside), task)
    # with --grid, the band is the flag's grid
    with pytest.raises(ConfigError, match=named):
        RunConfig(dict(VALID_RUN, grid=[64, 128], **outside), task, grid="x".join(map(str, grid)))


def test_exit_code_missing_subcommand():
    assert main([]) == 1


def test_canonical_json_formatting():
    payload = {"a": 1.0, "b": [0.1, float("nan")], "c": None, "d": True, "e": "x"}
    text = dumps_canonical(payload)
    assert text == '{"a":1,"b":[0.10000000000000001,null],"c":null,"d":true,"e":"x"}\n'
    assert json.loads(text) == {"a": 1, "b": [0.1, None], "c": None, "d": True, "e": "x"}


BLAS_THREADS_PROBE = """
import ctypes, sys
import qll
with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
    libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
for path in libs:
    lib = ctypes.CDLL(path)
    for sym in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_"):
        fn = getattr(lib, sym, None)
        if fn is not None:
            fn.restype = ctypes.c_int
            print(fn())
            sys.exit(0)
print("none")
"""


def test_qll_threads_caps_openblas_on_import():
    if not os.path.exists("/proc/self/maps"):
        pytest.skip("needs /proc/self/maps to find the loaded OpenBLAS")
    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    env["QLL_THREADS"] = "1"
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", BLAS_THREADS_PROBE], env=env,
                         capture_output=True, text=True, timeout=120, check=True).stdout.split()
    if out[-1] == "none":
        pytest.skip("numpy is not linked against OpenBLAS")
    assert out[-1] == "1"
