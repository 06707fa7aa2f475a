"""Batch front end: configure a space and surface, run a task, emit artifacts.

Subcommands: eval, residual, flow, sweep, varcheck.  Runs are configured by
a JSON file (--config); --grid, --out and --format override scalar fields.
Each task computes its artifacts as {file name: content} and main writes
them all through _write_artifacts.  Reports are deterministic: floats are
written with 17 significant digits in a fixed field order, so identical
configs give bit-identical files.

Exit codes: 0 success, 2 hypothesis violation, 1 any other error.
"""

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import surface as sf
from .ambient import catalog
from .criticality import VariationRow, first_variation_check, residual_report
from .errors import ConfigError, HypothesisError, QLLError
from .flow import FlowConfig, FlowRecord, run_flow
from .functionals import energy_report, f_integrals
from .grids import SphereGrid
from .harmonics import band_limited_field, real_harmonic_grid
from .highdim import RadialSphereReport, radial_model, radial_sweep

GRID_MIN = (16, 32)
# written only with --format csv (output.format "csv")
_CSV_ONLY = ("report.csv", "residual_field.csv", "varcheck.csv")


# ---------------------------------------------------------------------------
# canonical JSON (fixed float formatting, insertion-ordered keys)

def _dump_value(v):
    if v is None:
        return "null"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        if v != v or v in (float("inf"), float("-inf")):
            return "null"
        return format(v, ".17g")
    if isinstance(v, str):
        return json.dumps(v)
    if isinstance(v, dict):
        return "{" + ",".join(f"{json.dumps(str(k))}:{_dump_value(x)}" for k, x in v.items()) + "}"
    if isinstance(v, (list, tuple)):
        return "[" + ",".join(_dump_value(x) for x in v) + "]"
    try:
        return _dump_value(float(v))
    except (TypeError, ValueError):
        return json.dumps(str(v))


def dumps_canonical(obj):
    return _dump_value(obj) + "\n"


# ---------------------------------------------------------------------------
# artifacts

def _records_table(cls, records):
    """(header, rows) table with one column per field of dataclass cls."""
    return ([f.name for f in dataclasses.fields(cls)],
            (dataclasses.astuple(rec) for rec in records))


def _csv_cell(v):
    """Canonical text of v, quoted RFC 4180 style when it holds a comma, a
    double quote, CR or LF."""
    text = _dump_value(v)
    if any(ch in text for ch in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _csv_text(content):
    """A {field: value} dict becomes a field,value table; (header, rows) a table."""
    if isinstance(content, dict):
        lines = ["field,value"] + [f"{k},{_csv_cell(v)}" for k, v in content.items()]
    else:
        header, rows = content
        lines = [",".join(header)] + [",".join(map(_csv_cell, row)) for row in rows]
    return "\n".join(lines) + "\n"


def _write_artifacts(out_dir, fmt, artifacts):
    """Write {file name: content}: meshes in the mesh format, *.json as
    canonical JSON, every other file as a CSV table."""
    os.makedirs(out_dir, exist_ok=True)
    for name, content in artifacts.items():
        if name in _CSV_ONLY and fmt != "csv":
            continue
        path = os.path.join(out_dir, name)
        if isinstance(content, sf.SurfaceMesh):
            sf.save_mesh(content, path)
        else:
            text = dumps_canonical(content) if name.endswith(".json") else _csv_text(content)
            with open(path, "w", encoding="ascii") as fh:
                fh.write(text)


# ---------------------------------------------------------------------------
# configuration

def _check(value, name, ok, what):
    """value when ok holds, else a ConfigError saying what field name must be."""
    if not ok:
        raise ConfigError(f"field '{name}' must be {what}")
    return value


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _number(v, name):
    return float(_check(v, name, _is_number(v), "a number"))


def _integer(v, name):
    return _check(v, name, _is_number(v) and isinstance(v, int), "an integer")


def _object(v, name):
    return _check(v, name, isinstance(v, dict), "an object")


def _numbers(v, name, length=None):
    """A non-empty list of numbers, of the given length if one is given, as floats."""
    ok = isinstance(v, list) and v and all(map(_is_number, v)) and length in (None, len(v))
    return [float(x) for x in _check(v, name, ok, f"a list of {length or 'one or more'} numbers")]


def _fields(obj, name, checks):
    """The entries of obj named in checks, each validated by its check."""
    return {k: check(obj[k], f"{name}.{k}") for k, check in checks.items() if k in obj}


_FLOW_FIELDS = {"target_area": _number, "initial_step": _number, "max_steps": _integer,
                "residual_tol": _number, "backtrack_factor": _number,
                "max_backtracks": _integer, "smoothing_tau": _number}
_LAPSE_FIELDS = {"l": _integer, "m": _integer, "amplitude": _number,
                 "seed": _integer, "lmax": _integer}


class RunConfig:
    """Validated run configuration; see README for the schema.

    grid ('NxM' text), out_dir and fmt override the config's 'grid',
    'output.dir' and 'output.format', as the command-line flags do.
    A task section ('flow', 'sweep', 'varcheck') is read by its task only.
    """

    def __init__(self, raw, task, grid=None, out_dir=None, fmt=None):
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
        grid = raw.get("grid", [48, 96]) if grid is None else _parse_grid(grid)
        ok = isinstance(grid, list) and len(grid) == 2 and all(
            _is_number(n) and isinstance(n, int) for n in grid)
        self.grid = _check(grid, "grid", ok, "[ntheta, nphi] integers")
        if self.grid[0] < GRID_MIN[0] or self.grid[1] < GRID_MIN[1]:
            raise ConfigError(f"field 'grid' must be at least {GRID_MIN}")
        out = _object(raw.get("output", {}), "output")
        self.out_dir = out_dir or out.get("dir", ".")
        _check(self.out_dir, "output.dir", isinstance(self.out_dir, str), "a directory name")
        self.fmt = fmt or out.get("format", "json")
        _check(self.fmt, "output.format", self.fmt in ("json", "csv"), "'json' or 'csv'")
        self.mode = raw.get("mode", "hawking")
        self.Lambda = None if raw.get("Lambda") is None else _number(raw["Lambda"], "Lambda")
        self.lambda_el = (None if raw.get("lambda_el") is None
                          else _number(raw["lambda_el"], "lambda_el"))
        hyp = _object(raw.get("hypothesis") or {}, "hypothesis")
        self.hypothesis = (_number(hyp.get("beta", 0.25), "hypothesis.beta"),
                           _number(hyp.get("lambda", 0.0), "hypothesis.lambda")) if hyp else None
        if task == "sweep":
            sweep = _object(raw.get("sweep"), "sweep")
            self.model = sweep.get("model")
            _check(self.model, "sweep.model", isinstance(self.model, str) and self.model,
                   "a model name")
            self.model_params = dict(_object(sweep.get("params", {}), "sweep.params"))
            if "n" in sweep:
                self.model_params["n"] = _integer(sweep["n"], "sweep.n")
            self.r_values = _numbers(sweep.get("r_values"), "sweep.r_values")
            return
        space = raw.get("space")
        _check(space, "space", isinstance(space, dict) and "name" in space, "an object with a 'name'")
        self.space_name = space["name"]
        self.space_params = _object(space.get("params", {}), "space.params")
        self._validate_surface(raw)
        if task == "flow":
            self.flow = _fields(_object(raw.get("flow", {}), "flow"), "flow", _FLOW_FIELDS)
        if task == "varcheck":
            vraw = _object(raw.get("varcheck", {}), "varcheck")
            lapse = _object(vraw.get("lapse", {"l": 2, "m": 0, "amplitude": 1.0}), "varcheck.lapse")
            self.lapse = _fields(lapse, "varcheck.lapse", _LAPSE_FIELDS)
            self.s_values = _numbers(vraw.get("s_values", [1.6e-2, 8e-3, 4e-3]), "varcheck.s_values")
            _check(self.s_values, "varcheck.s_values", 0.0 not in self.s_values, "nonzero")

    def _validate_surface(self, raw):
        surf = _object(raw.get("surface"), "surface")
        sources = [k for k in ("sphere_r", "mesh_file", "round_r") if k in surf]
        _check(surf, "surface", len(sources) == 1,
               "an object with exactly one of 'sphere_r', 'mesh_file', 'round_r'")
        self.source = sources[0]
        if self.source == "mesh_file":
            self.source_value = _check(surf["mesh_file"], "surface.mesh_file",
                                       isinstance(surf["mesh_file"], str), "a file name")
        else:
            self.source_value = _number(surf[self.source], f"surface.{self.source}")
        self.center = _numbers(surf.get("center", [0.0, 0.0, 0.0]), "surface.center", 3)
        try:
            self.perturbations = [(int(l), int(m), float(a))
                                  for (l, m, a) in surf.get("perturbations", [])]
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"field 'surface.perturbations' must be [l, m, amplitude] triples: {exc}")

    def build(self):
        """The run's space, grid and surface mesh."""
        space = catalog(self.space_name, **self.space_params)
        grid = SphereGrid(*self.grid)
        if self.source == "sphere_r":
            mesh = sf.coordinate_sphere(grid, self.source_value, self.center)
        elif self.source == "mesh_file":
            mesh = sf.load_mesh(self.source_value, grid)
        else:
            mesh = sf.round_sphere_with_harmonics(grid, self.source_value,
                                                  self.perturbations, self.center)
        return space, grid, mesh


def _parse_grid(text):
    try:
        nt, nph = text.lower().split("x")
        return [int(nt), int(nph)]
    except ValueError:
        raise ConfigError(f"--grid must look like 48x96, got '{text}'")


def _load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}")


# ---------------------------------------------------------------------------
# tasks: each returns its artifacts as {file name: content}

def _task_eval(cfg):
    space, _, mesh = cfg.build()
    geom = sf.induced_geometry(space, mesh)
    kwargs = {} if cfg.Lambda is None else {"Lambda": cfg.Lambda}
    if cfg.hypothesis:
        beta, lam = cfg.hypothesis
        # explicit request: fail loudly when the hypotheses do not hold
        f_integrals(space, geom, beta=beta, lam=lam)
        kwargs.update(beta=beta, lam=lam)
    report = energy_report(space, geom, **kwargs).as_dict()
    return {"report.json": report, "report.csv": report}


def _task_residual(cfg):
    space, grid, mesh = cfg.build()
    rep = residual_report(space, sf.induced_geometry(space, mesh), cfg.mode, cfg.lambda_el)
    return {
        "residual.json": {
            "mode": rep.mode, "lam": rep.lam, "lambda_star": rep.lambda_star,
            "l2_residual": rep.l2_residual, "linf_residual": rep.linf_residual,
            "grid": cfg.grid, "space": cfg.space_name, "space_params": cfg.space_params},
        "residual_field.csv": (("theta", "phi", "residual"), (
            (th, ph, rep.residual_field[i, j])
            for i, th in enumerate(grid.theta) for j, ph in enumerate(grid.phi))),
    }


def _task_flow(cfg):
    space, _, mesh = cfg.build()
    fields = dict(cfg.flow)
    if "target_area" not in fields:
        fields["target_area"] = sf.induced_geometry(space, mesh).area
    state = run_flow(space, FlowConfig(mode=cfg.mode, **fields), mesh)
    return {
        "flow_history.csv": _records_table(FlowRecord, state.history),
        "final_mesh.txt": state.mesh,
        "flow.json": {"status": state.status, "steps": state.step_index,
                      "functional": state.functional, "area": state.area,
                      "l2_residual": state.l2_residual},
    }


def _task_sweep(cfg):
    model = radial_model(cfg.model, **cfg.model_params)
    reports = radial_sweep(model, cfg.r_values, cfg.lambda_el or 0.0)
    return {"sweep.csv": _records_table(RadialSphereReport, reports)}


def _task_varcheck(cfg):
    space, grid, mesh = cfg.build()
    lapse = cfg.lapse
    if "l" in lapse:
        alpha = lapse.get("amplitude", 1.0) * real_harmonic_grid(grid, lapse["l"], lapse.get("m", 0))
    else:
        rng = np.random.default_rng(lapse.get("seed", 0))
        alpha = band_limited_field(grid, lapse.get("lmax", 4), rng)
    chk = first_variation_check(space, mesh, alpha, cfg.s_values)
    return {
        "varcheck.json": {
            "prediction": chk.prediction,
            "observed_order": chk.observed_order,
            "rows": [{"s": r.s, "quotient": r.quotient, "abs_error": r.abs_error,
                      "rel_error": r.rel_error} for r in chk.rows]},
        "varcheck.csv": _records_table(VariationRow, chk.rows),
    }


_TASKS = {
    "eval": _task_eval,
    "residual": _task_residual,
    "flow": _task_flow,
    "sweep": _task_sweep,
    "varcheck": _task_varcheck,
}


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors, which this tool reserves
    # for hypothesis violations; route usage problems through ConfigError
    def error(self, message):
        raise ConfigError(message)


def _build_parser():
    parser = _Parser(prog="qll", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="task", required=True)
    for task in _TASKS:
        p = sub.add_parser(task)
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--grid", help="override grid as NxM, e.g. 48x96")
        p.add_argument("--out", help="output directory")
        p.add_argument("--format", choices=("json", "csv"), help="output format")
    return parser


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
        cfg = RunConfig(_load_config(args.config), args.task, args.grid, args.out, args.format)
        _write_artifacts(cfg.out_dir, cfg.fmt, _TASKS[args.task](cfg))
        return 0
    except HypothesisError as exc:
        print(f"hypothesis violation: {exc}", file=sys.stderr)
        return 2
    except (QLLError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
