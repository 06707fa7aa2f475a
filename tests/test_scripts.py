"""The README's code blocks and experiment scripts run and print or write what
they document."""

import ast
import csv
import importlib
import json
import os
import re
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def readme_values():
    """Run README's python blocks in order in one namespace; return the value of
    each bare expression statement, keyed by its source text."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        blocks = re.findall(r"^```python\n(.*?)^```", fh.read(), re.M | re.S)
    namespace, values = {}, {}
    for block in blocks:
        for node in ast.parse(block).body:
            if isinstance(node, ast.Expr):
                code = compile(ast.Expression(node.value), "README.md", "eval")
                values[ast.get_source_segment(block, node)] = eval(code, namespace)
            else:
                exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
    return values


def test_readme_quick_start():
    values = readme_values()
    assert abs(values["hawking_energy(geom)"]) < 1e-13
    assert values['residual_report(space, geom, "hawking", 0.0).linf_residual'] < 1e-6
    assert abs(values['f_integrals(space, geom)["f"]'] - 6.0 * np.pi) < 1e-10
    assert values["state.status, state.step_index"][0] == "converged"


def readme_json_blocks():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        return [json.loads(b) for b in re.findall(r"^```json\n(.*?)^```", fh.read(), re.M | re.S)]


def test_readme_flow_config(tmp_path):
    from qll.cli import main
    config = next(b for b in readme_json_blocks() if "flow" in b)
    config["output"]["dir"] = str(tmp_path)
    (tmp_path / "run.json").write_text(json.dumps(config))
    assert main(["flow", "--config", str(tmp_path / "run.json")]) == 0
    assert json.loads((tmp_path / "flow.json").read_text())["status"] == "converged"
    with open(tmp_path / "flow_history.csv", encoding="ascii") as fh:
        rows = list(csv.DictReader(fh))
    assert float(rows[-1]["residual"]) <= 1e-5


def test_readme_sweep_config(tmp_path):
    from qll.cli import main
    config = next(b for b in readme_json_blocks() if "sweep" in b and "space" in b)
    config["output"]["dir"] = str(tmp_path)
    (tmp_path / "run.json").write_text(json.dumps(config))
    assert main(["sweep", "--config", str(tmp_path / "run.json")]) == 0
    with open(tmp_path / "sweep.csv", encoding="ascii") as fh:
        rows = list(csv.DictReader(fh))
    assert config["space"] == {"name": "schwarzschild", "params": {"m": 1.0}}
    assert config["grid"] == [48, 96]
    assert [float(row["r"]) for row in rows] == list(np.linspace(2.5, 20.0, 36))
    # the documented constant E = m curve of Schwarzschild coordinate spheres, and
    # the Brown-York decay r (1 - sqrt(1 - 2m/r)) -> m
    for row in rows:
        r = float(row["r"])
        assert abs(float(row["hawking_energy"]) - 1.0) < 1e-10
        assert abs(float(row["brown_york"]) - r * (1.0 - np.sqrt(1.0 - 2.0 / r))) < 1e-10


def test_readme_radial_sweep_config(tmp_path):
    from qll.cli import main
    config = next(b for b in readme_json_blocks() if "sweep" in b and "model" in b["sweep"])
    config["output"]["dir"] = str(tmp_path)
    (tmp_path / "run.json").write_text(json.dumps(config))
    assert main(["sweep", "--config", str(tmp_path / "run.json")]) == 0
    with open(tmp_path / "sweep.csv", encoding="ascii") as fh:
        rows = list(csv.DictReader(fh))
    # the documented 4-dimensional Schwarzschild energies, which equal m on every sphere
    assert [int(row["n"]) for row in rows] == [4] * len(config["sweep"]["r_values"])
    assert all(abs(float(row["energy_1_static"]) - 1.0) < 1e-10 for row in rows)


def script(name):
    """The module scripts/<name>.py."""
    sys.path.insert(0, os.path.join(ROOT, "scripts"))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(os.path.join(ROOT, "scripts"))


def test_bench_pairs_summary():
    bench_pairs = script("bench_pairs")
    end_to_end = [{"name": "op_mean_ms", "unit": "ms", "better": "lower", "bound": 0.25},
                  {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1}]
    runs = [((10.0, 5.0), (8.0, 6.0)), ((12.0, 4.0), (9.0, 4.0)), ((11.0, 6.0), (11.0, 5.0)),
            ((9.0, 5.0), (10.0, 7.0)), ((14.0, 3.0), (7.0, 8.0))]
    pairs = [{"seed": 100 + i,
              "parent": {"op_mean_ms": p[0], "rate": p[1]},
              "change": {"op_mean_ms": c[0], "rate": c[1]}} for i, (p, c) in enumerate(runs)]
    out = bench_pairs.summarize(pairs, end_to_end)
    op = out["op_mean_ms"]
    # lower wins; the tie at seed 102 counts for neither side
    assert (op["parent"]["pairs_won"], op["change"]["pairs_won"]) == (1, 3)
    assert (op["parent"]["q1"], op["parent"]["median"], op["parent"]["q3"]) == (10.0, 11.0, 12.0)
    assert (op["change"]["q1"], op["change"]["median"], op["change"]["q3"]) == (8.0, 9.0, 10.0)
    assert op["change"]["runs"] == [8.0, 9.0, 11.0, 10.0, 7.0]
    rate = out["rate"]
    # higher wins
    assert (rate["parent"]["pairs_won"], rate["change"]["pairs_won"]) == (1, 3)
    assert rate["change"]["median"] == 6.0
    assert bench_pairs.quartiles([3.0]) == (3.0, 3.0, 3.0)
    # 3 wins in 5 is no gain; the parent's spread is 2/11 of its median (op_mean_ms,
    # within the bound 0.25) and 1/5 of it (rate, beyond the bound 0.1)
    assert (op["verdict"], rate["verdict"]) == ("flat", "unresolved")

    def verdict(parent, change, better="lower"):
        pairs = [{"seed": i, "parent": {"m": p}, "change": {"m": c}}
                 for i, (p, c) in enumerate(zip(parent, change))]
        spec = {"name": "m", "unit": "MB", "better": better, "bound": 0.1}
        return bench_pairs.summarize(pairs, [spec])["m"]["verdict"]

    parent = [50.4, 50.5, 50.45, 50.52, 50.41, 50.48, 50.43, 50.5, 50.46, 50.44]
    lower = [v - 2.0 for v in parent]
    assert verdict(parent, lower) == "gain"
    # a tie counts for neither side: 9 wins in 10 still gain, 8 do not
    assert verdict(parent, lower[:9] + parent[9:]) == "gain"
    assert verdict(parent, lower[:8] + parent[8:]) == "flat"
    # the medians must differ by more than the parent's q3 - q1
    assert verdict(parent, [v - 0.02 for v in parent]) == "flat"
    assert verdict(parent, lower, better="higher") == "flat"
    assert verdict(parent, [v * 1.2 for v in parent]) == "worse"
    assert verdict(parent, [v * 0.8 for v in parent], better="higher") == "worse"
    # the parent's spread (8 of a median of 14) is wider than the bound
    wide = [10.0, 18.0] * 5
    assert verdict(wide, wide[::-1]) == "unresolved"
    # unless every change run beats every parent run
    assert verdict(wide, [v - 8.5 for v in wide]) == "gain"
    assert verdict(wide, [9.5] * 10) == "flat"


def test_report_drift_compare():
    report_drift = script("report_drift")
    parent = {
        "a/report.json": '{"E":1.0,"status":"converged","grid":[32,64],"rows":[{"s":0.5}]}\n',
        "a/report.csv": "field,value\nE,1.0\nstatus,\"x,y\"\n",
        "a/table.csv": "s,err\n1,3.0\n2,-1.0\n",
        "a/final_mesh.txt": "2 2 0 0 0\n1.0 1.0\n1.0 1.0\n",
        "a/gone.json": "{}\n",
    }
    change = {
        "a/report.json": '{"E":1.5,"status":"stagnated","grid":[32,64],"rows":[{"s":0.5}]}\n',
        "a/report.csv": "field,value\nE,1.0\nstatus,\"x,y\"\n",
        "a/table.csv": "s,err\n1,3.4\n2,-1.0\n",
        "a/final_mesh.txt": "2 2 0 0 0\n1.0 1.0\n1.0 1.0\n1.0\n",
        "a/new.json": "{}\n",
    }
    drift, differences = report_drift.compare(parent, change)
    # |a - b| / (1 + |a|) with a from the parent, the largest over a column
    assert drift["a/report.json.E"] == 0.25
    assert abs(drift["a/table.csv:err"] - 0.1) < 1e-15
    assert drift["a/table.csv:s"] == drift["a/report.csv:E"] == 0.0
    assert drift["a/report.json.grid"] == drift["a/report.json.rows[0].s"] == 0.0
    # a quoted CSV cell is one text value, equal on both sides
    assert "a/report.csv:status" not in drift
    assert differences == ["a/final_mesh.txt: 9 values in parent, 10 in change",
                      "a/gone.json: only in parent",
                      "a/new.json: only in change",
                      "a/report.json.status: non-numeric values differ"]


def test_report_drift_compare_runs():
    report_drift = script("report_drift")
    message = "error: initial mesh cannot reach the target area: area rescale did not " \
        "converge to the target\n"
    parent = {"same": (0, ""), "moved": (1, message), "failed": (0, "")}
    change = {"same": (0, ""), "moved": (1, "Traceback ...\nGeometryError: degenerate\n"),
              "failed": (1, message)}
    assert report_drift.compare_runs(parent, change) == [
        f"moved: stderr line 1 {message.strip()!r} in parent, 'Traceback ...' in change",
        "failed: exit code 0 in parent, 1 in change",
        f"failed: stderr line 1 '' in parent, {message.strip()!r} in change"]
    assert report_drift.compare_runs(parent, parent) == []
    # a difference before the last line is listed at its line; a line one side lacks is None
    warning = "<checkout>/src/qll/criticality.py:{}: RuntimeWarning: overflow encountered " \
        "in square\n  R = R0 + lam * H\nerror: non-finite field value in quadrature\n"
    parent = {"warned": (1, warning.format(69)), "longer": (1, message.strip())}
    change = {"warned": (1, warning.format(70)), "longer": (1, message.strip() + "\nmore")}
    assert report_drift.compare_runs(parent, change) == [
        f"warned: stderr line 1 {warning.format(69).splitlines()[0]!r} in parent, "
        f"{warning.format(70).splitlines()[0]!r} in change",
        "longer: stderr line 2 None in parent, 'more' in change"]
