"""The README's experiment scripts run and print or write what they document."""

import csv
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_script(cwd, name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.join(ROOT, "src"),
                                                      env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, os.path.join(ROOT, "scripts", name), *args],
                          cwd=cwd, env=env, capture_output=True, text=True, timeout=300)


def test_readme_scripts(tmp_path):
    demo = run_script(tmp_path, "flow_demo.py", "0.05", "16", "32")
    assert demo.returncode == 0, demo.stderr
    lines = demo.stdout.splitlines()
    assert lines[0].startswith("step    0  F = ")
    assert "status: converged after" in demo.stdout
    assert os.listdir(tmp_path) == []

    sweep = run_script(tmp_path, "energy_sweep.py", "schwarzschild", "out.csv")
    assert sweep.returncode == 0, sweep.stderr
    with open(tmp_path / "out.csv", encoding="ascii") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 36
    # the documented constant E = m curve of Schwarzschild coordinate spheres
    assert all(abs(float(row["hawking_energy"]) - 1.0) < 1e-10 for row in rows)
