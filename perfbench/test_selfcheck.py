"""Self-check of the benchmark; it sets no timing bound.

    python3 -m pytest -q perfbench/test_selfcheck.py

Every workload runs briefly in both modes and must report exactly the
metrics BENCHMARK.json names, with their units, and no failed operation.
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import tracing  # noqa: E402
import workloads  # noqa: E402
from qll.harmonics import real_harmonic  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="ascii") as fh:
    SPEC = json.load(fh)


def bench(cwd, workload, trace):
    cmd = [sys.executable] + SPEC["command"][1:] + [
        "--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_reports_every_metric(workload, trace):
    proc = bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    named = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in named}
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    printed = dict(line.split(" ", 1) for line in lines[:-1])
    assert printed["ops_failed_frac"] == "0 fraction"


def test_refuses_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench(tmp_path, "eval_stream", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_self_time_subtracts_children():
    spans = [
        {"id": 0, "name": "surface.induced_geometry", "parent": None, "op": 0,
         "start": 0.0, "end": 1.0},
        {"id": 1, "name": "ambient.christoffels_at", "parent": 0, "op": 0,
         "start": 0.2, "end": 0.5},
    ]
    m = tracing.layer_metrics(spans, n_ops=2)
    assert m["surface.induced_geometry.self_ms"] == (pytest.approx(700.0), "ms")
    assert m["ambient.christoffels_at.self_ms"] == (pytest.approx(300.0), "ms")
    assert m["surface.induced_geometry.calls_per_op"] == (0.5, "count")


def test_azimuthal_rotation_moves_the_bumps():
    grid = workloads.SphereGrid(16, 32)
    perts = ((2, 1, 0.03), (3, -2, 0.02), (2, 0, 0.01))
    angle = 0.7
    rotated = workloads.round_sphere_with_harmonics(
        grid, 1.0, workloads.rotate_azimuth(perts, angle)).radius
    theta, phi = grid.theta[:, None], grid.phi[None, :] - angle
    expect = 1.0 + sum(a * real_harmonic(l, m, theta, phi) for l, m, a in perts)
    assert rotated == pytest.approx(expect, abs=1e-14)
