"""Drift of the qll CLI artefacts between two checkouts.

    python scripts/report_drift.py PARENT_DIR CHANGE_DIR [--tol 1e-14]

Runs a fixed set of CLI configs (eval, residual, flow, radial-model and
catalog-space sweeps, and varcheck, each with --format json and --format
csv) with each checkout's src on PYTHONPATH, then compares the artefacts
field by field.  A field is a JSON value by its key path, a CSV column (a
field,value table: a field), or a mesh file's radii.  For each numeric
field it prints the largest |a - b| / (1 + |a|) over the field's values (a
from PARENT_DIR), and it lists every other difference: a file or field on
one side only, another number of values, different text, or a different
exit code.  The exit code is 1 when a drift exceeds --tol or any other
difference is listed.
"""

import argparse
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile

GRID = [32, 64]
# (run name, task, config); the mesh_file "ellipsoid.txt" is written into the
# work directory before the runs
CONFIGS = [
    ("eval-hyperboloid-Lambda", "eval", {
        "space": {"name": "hyperboloid", "params": {"a": 1.0}}, "Lambda": -3.0,
        "surface": {"round_r": 1.0, "perturbations": [[2, 1, 0.04], [3, -2, 0.02]]}}),
    ("eval-reissner-nordstrom-hypothesis", "eval", {
        "space": {"name": "reissner_nordstrom", "params": {"m": 1.0, "q": 0.5}},
        "surface": {"sphere_r": 4.0}, "hypothesis": {"beta": 0.25, "lambda": 0.0}}),
    ("eval-ellipsoid-mesh-file", "eval", {
        "space": {"name": "euclidean"}, "surface": {"mesh_file": "ellipsoid.txt"}}),
    ("eval-hyperbolic-off-centre", "eval", {
        "space": {"name": "hyperbolic", "params": {"Lambda": -3.0}}, "Lambda": -3.0,
        "surface": {"sphere_r": 1.2, "center": [0.1, -0.05, 0.08]}}),
    # degree 31 and orders 31, -30 lie on the edge of the 32x64 band, which a config keeps to
    ("eval-schwarzschild-band-edge", "eval", {
        "space": {"name": "schwarzschild", "params": {"m": 1.0}},
        "surface": {"round_r": 4.0,
                    "perturbations": [[31, 31, 1e-3], [31, -30, 1e-3], [2, 1, 0.02]]}}),
    ("residual-schwarzschild-hawking", "residual", {
        "space": {"name": "schwarzschild", "params": {"m": 1.0}}, "mode": "hawking",
        "surface": {"round_r": 4.0, "perturbations": [[2, 2, 0.03], [3, -1, 0.02]]}}),
    ("residual-paraboloid-willmore", "residual", {
        "space": {"name": "paraboloid", "params": {"alpha": 0.5}}, "mode": "willmore",
        "lambda_el": 0.7, "surface": {"round_r": 1.0, "perturbations": [[2, 0, 0.05]]}}),
    # k != 0: the Hawking residual's k-terms
    ("residual-hyperboloid-hawking", "residual", {
        "space": {"name": "hyperboloid", "params": {"a": 1.0}}, "mode": "hawking",
        "surface": {"round_r": 1.0, "perturbations": [[2, 1, 0.04], [3, -2, 0.02]]}}),
    ("residual-paraboloid-hawking", "residual", {
        "space": {"name": "paraboloid", "params": {"alpha": 0.5}}, "mode": "hawking",
        "surface": {"round_r": 1.0, "perturbations": [[2, 0, 0.05], [3, 1, 0.03]],
                    "center": [0.05, -0.03, 0.02]}}),
    ("flow-euclidean-Y20", "flow", {
        "space": {"name": "euclidean"}, "mode": "willmore", "grid": [16, 32],
        "surface": {"round_r": 1.0, "perturbations": [[2, 0, 0.05]]}}),
    # the nested chain 48x96 -> 24x48 -> 12x24, with two prolongations
    ("flow-schwarzschild-willmore-48x96", "flow", {
        "space": {"name": "schwarzschild", "params": {"m": 1.0}}, "mode": "willmore",
        "grid": [48, 96], "flow": {"target_area": 64.0 * math.pi},
        "surface": {"round_r": 4.0, "perturbations": [[2, 2, 0.03], [3, -1, 0.02]]}}),
    # the requested grid stagnates after a stalled level below and descends directly
    # (seed 1607's tenth flow_solve cycle)
    ("flow-hyperboloid-hawking-stalled-chain-48x96", "flow", {
        "space": {"name": "hyperboloid", "params": {"a": 1.0}}, "mode": "hawking",
        "grid": [48, 96], "flow": {"target_area": 4.0 * math.pi},
        "surface": {"round_r": 1.0, "perturbations": [
            [2, 1, -0.014652818592739519], [2, -1, -0.0136123071993056],
            [3, 2, 0.000735254635586647], [3, -2, 0.009972933401003355]]}}),
    # the requested grid stagnates after a level below that converged, and descends
    # directly from its own mesh
    ("flow-hyperbolic-hawking-stalled-after-converged", "flow", {
        "space": {"name": "hyperbolic", "params": {"Lambda": -3.0}}, "mode": "hawking",
        "surface": {"round_r": 1.0, "perturbations": [[2, 0, 0.04], [3, 1, 0.02]]}}),
    # below F's roundoff floor: both levels stagnate, and the requested grid then
    # descends directly and stagnates
    ("flow-euclidean-roundoff-floor", "flow", {
        "space": {"name": "euclidean"}, "mode": "willmore",
        "flow": {"residual_tol": 1e-14, "max_steps": 60},
        "surface": {"round_r": 1.0, "perturbations": [[2, 0, 0.02]]}}),
    ("flow-hyperboloid-hawking", "flow", {
        "space": {"name": "hyperboloid", "params": {"a": 1.0}}, "mode": "hawking",
        "surface": {"round_r": 1.0, "perturbations": [[2, 0, 0.02]]},
        "flow": {"target_area": 13, "max_steps": 40}}),
    ("sweep-schwarzschild-n4", "sweep", {
        "sweep": {"model": "schwarzschild", "n": 4, "params": {"m": 1.0},
                  "r_values": [2.0, 3.0, 5.0]}}),
    ("sweep-paraboloid-lambda", "sweep", {
        "sweep": {"model": "paraboloid", "params": {"alpha": 0.5}, "r_values": [0.5, 1.0, 1.5]},
        "lambda_el": 0.3}),
    ("sweep-schwarzschild-catalog", "sweep", {
        "space": {"name": "schwarzschild", "params": {"m": 1.0}},
        "sweep": {"r_values": [3.0, 5.0, 8.0]}, "hypothesis": {"beta": 0.25, "lambda": 0.0}}),
    # the finest grid the benchmark's CLI runs: the k != 0 fill and a hawking residual
    ("eval-hyperboloid-96x192", "eval", {
        "space": {"name": "hyperboloid", "params": {"a": 1.0}}, "grid": [96, 192],
        "surface": {"round_r": 1.0, "perturbations": [[2, 1, 0.013], [3, -2, -0.011]]}}),
    ("residual-schwarzschild-hawking-96x192", "residual", {
        "space": {"name": "schwarzschild", "params": {"m": 1.0}}, "mode": "hawking",
        "grid": [96, 192],
        "surface": {"round_r": 4.0, "perturbations": [[2, 2, 0.013], [3, -1, -0.011]]}}),
    # k = 0: the charge flux and the f integrals read the fill's zero views
    ("eval-reissner-nordstrom-hypothesis-96x192", "eval", {
        "space": {"name": "reissner_nordstrom", "params": {"m": 1.0, "q": 0.5}},
        "grid": [96, 192], "hypothesis": {"beta": 0.25, "lambda": 0.0},
        "surface": {"round_r": 4.0, "perturbations": [[2, 1, 0.013], [3, 2, -0.011]]}}),
    # k != 0 with nabla k from the space's dk_fn
    ("residual-paraboloid-hawking-96x192", "residual", {
        "space": {"name": "paraboloid", "params": {"alpha": 0.5}}, "mode": "hawking",
        "grid": [96, 192],
        "surface": {"round_r": 1.0, "perturbations": [[2, 0, 0.013], [3, 1, -0.011]],
                    "center": [0.05, -0.03, 0.02]}}),
    ("varcheck-seeded-lapse", "varcheck", {
        "space": {"name": "schwarzschild", "params": {"m": 1.0}},
        "surface": {"round_r": 4.0, "perturbations": [[2, 1, 0.03]]},
        "varcheck": {"lapse": {"seed": 7, "lmax": 4}}}),
    ("varcheck-harmonic-lapse", "varcheck", {
        "space": {"name": "hyperboloid", "params": {"a": 1.0}}, "surface": {"sphere_r": 1.0},
        "varcheck": {"lapse": {"l": 3, "m": 1, "amplitude": 0.5},
                     "s_values": [2e-2, 1e-2, 5e-3, 2.5e-3]}}),
]
ELLIPSOID = "from qll import surface; from qll.grids import SphereGrid; " \
    "surface.save_mesh(surface.ellipsoid(SphereGrid(*{grid}), (1.0, 1.3, 0.8)), {path!r})"
# one BLAS thread on both sides, so that no sum depends on a thread count
ENV = {"QLL_THREADS": "1", "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
       "MKL_NUM_THREADS": "1"}


def _number(text):
    try:
        return float(text)
    except ValueError:
        return text


def _json_fields(value, path, out):
    if isinstance(value, dict):
        for key, item in value.items():
            _json_fields(item, f"{path}.{key}", out)
    elif isinstance(value, list) and any(isinstance(item, (dict, list)) for item in value):
        for i, item in enumerate(value):
            _json_fields(item, f"{path}[{i}]", out)
    else:
        out.setdefault(path, []).extend(value if isinstance(value, list) else [value])


def artifact_fields(name, text):
    """{field: [values]} of one artefact file; numbers are floats, the rest text or None."""
    out = {}
    if name.endswith(".json"):
        _json_fields(json.loads(text), name, out)
    elif name.endswith(".csv"):
        rows = list(csv.reader(io.StringIO(text)))
        if rows and rows[0] == ["field", "value"]:
            for key, value in rows[1:]:
                out.setdefault(f"{name}:{key}", []).append(_number(value))
        elif rows:
            for j, column in enumerate(rows[0]):
                out[f"{name}:{column}"] = [_number(row[j]) for row in rows[1:]]
    else:
        out[name] = [_number(token) for token in text.split()]
    return out


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def compare(parent, change):
    """(drift, differences) of two {artefact name: text} maps.

    drift maps every field whose values are all finite numbers on both sides
    to max |a - b| / (1 + |a|), a from parent; differences lists, in order, each
    artefact or field on one side only and each field whose number of values
    or non-numeric values differ.
    """
    drift, differences = {}, []
    for name in sorted(set(parent) | set(change)):
        if name not in parent or name not in change:
            differences.append(f"{name}: only in {'parent' if name in parent else 'change'}")
            continue
        a_fields, b_fields = artifact_fields(name, parent[name]), artifact_fields(name, change[name])
        for field in sorted(set(a_fields) | set(b_fields)):
            a, b = a_fields.get(field), b_fields.get(field)
            if a is None or b is None:
                differences.append(f"{field}: only in {'parent' if b is None else 'change'}")
            elif len(a) != len(b):
                differences.append(f"{field}: {len(a)} values in parent, {len(b)} in change")
            elif all(_is_number(x) and _is_number(y) for x, y in zip(a, b)):
                drift[field] = max((abs(x - y) / (1.0 + abs(x)) for x, y in zip(a, b)),
                                   default=0.0)
            elif a != b:
                differences.append(f"{field}: non-numeric values differ")
    return drift, differences


def run_side(checkout, work):
    """{run/artefact name: text} and {run: exit code} of every config in the checkout."""
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(checkout), "src"), **ENV)
    os.makedirs(work, exist_ok=True)
    subprocess.run([sys.executable, "-c", ELLIPSOID.format(grid=GRID, path="ellipsoid.txt")],
                   cwd=work, env=env, check=True)
    files, codes = {}, {}
    for run, task, config in CONFIGS:
        for fmt in ("json", "csv"):
            out = os.path.join(work, f"{run}-{fmt}")
            path = os.path.join(work, f"{run}.json")
            with open(path, "w", encoding="ascii") as fh:
                json.dump(dict({"grid": GRID}, **config), fh)
            proc = subprocess.run([sys.executable, "-m", "qll.cli", task, "--config", path,
                                   "--out", out, "--format", fmt],
                                  cwd=work, env=env, capture_output=True, text=True)
            codes[f"{run}-{fmt}"] = proc.returncode
            for name in sorted(os.listdir(out)) if os.path.isdir(out) else ():
                with open(os.path.join(out, name), encoding="ascii") as fh:
                    files[f"{run}-{fmt}/{name}"] = fh.read()
    return files, codes


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent")
    p.add_argument("change")
    p.add_argument("--tol", type=float, default=1e-14)
    args = p.parse_args(argv)

    with tempfile.TemporaryDirectory() as work:
        a_files, a_codes = run_side(args.parent, os.path.join(work, "parent"))
        b_files, b_codes = run_side(args.change, os.path.join(work, "change"))
    drift, differences = compare(a_files, b_files)
    differences += [f"{run}: exit code {a_codes[run]} in parent, {b_codes[run]} in change"
               for run in a_codes if a_codes[run] != b_codes[run]]
    for field, value in sorted(drift.items()):
        print(f"{value:.3e}  {field}")
    for difference in differences:
        print(f"DIFFERS  {difference}")
    worst = max(drift.values(), default=0.0)
    print(f"{len(a_files)} artefacts, {len(drift)} numeric fields, max drift {worst:.3e}, "
          f"{len(differences)} other differences")
    return 1 if worst > args.tol or differences else 0


if __name__ == "__main__":
    sys.exit(main())
