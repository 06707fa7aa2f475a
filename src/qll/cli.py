"""Batch front end: configure a space and surface, run a task, emit artifacts.

Subcommands: eval, residual, flow, sweep, varcheck.  Runs are configured by
a JSON file (--config); --grid, --out and --format override scalar fields.
Each task computes its artifacts as {file name: content} and main writes
them all through _write_artifacts.  Reports are deterministic: floats are
written with 17 significant digits in a fixed field order, so identical
configs give bit-identical files.

Exit codes: 0 success, 2 hypothesis violation, 1 any other error.  A failed
run prints exactly one line to stderr, with no traceback and no numpy warning.
"""

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import surface as sf
from .ambient import catalog
from .criticality import MODES, VariationRow, first_variation_check, residual_report
from .errors import ConfigError, HypothesisError, QLLError
from .flow import FlowConfig, FlowRecord, run_flow
from .functionals import EnergyReport, energy_report, f_integrals
from .grids import SphereGrid
from .harmonics import band, band_limited_field, real_harmonic_grid
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
    """A finite int or float, not a bool; nan, inf and ints beyond a float (10**400) fail."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


def _number(v, name):
    return float(_check(v, name, _is_number(v), "a finite number"))


def _integer(v, name):
    return _check(v, name, _is_number(v) and isinstance(v, int), "an integer")


def _object(v, name):
    return _check(v, name, isinstance(v, dict), "an object")


def _numbers(v, name, length=None):
    """A non-empty list of finite numbers, of the given length if one is given, as floats."""
    ok = isinstance(v, list) and v and all(map(_is_number, v)) and length in (None, len(v))
    return [float(x) for x in _check(v, name, ok, f"a list of {length or 'one or more'} numbers")]


def _perturbations(v, name):
    """A list of [l, m, amplitude] triples with integers l, m, as (l, m, amplitude) tuples."""
    _check(v, name, isinstance(v, list) and all(isinstance(t, list) and len(t) == 3 for t in v),
           "a list of [l, m, amplitude] triples")
    return [(_integer(l, f"{name}[{i}].l"), _integer(m, f"{name}[{i}].m"),
             _number(a, f"{name}[{i}].amplitude")) for i, (l, m, a) in enumerate(v)]


def _in_band(l, m, grid, name):
    """A ConfigError naming name.l or name.m unless Y_lm lies in the band of grid
    [ntheta, nphi]: 0 <= l <= lmax and |m| <= min(l, mmax)."""
    lmax, mmax = band(*grid)
    _check(l, f"{name}.l", 0 <= l <= lmax, f"a degree in [0, {lmax}] on this grid")
    _check(m, f"{name}.m", abs(m) <= min(l, mmax), f"an order |m| <= min(l, {mmax}) on this grid")


def _fields(obj, name, checks):
    """The entries of object obj, the field name ("" for the config itself), each validated
    by its check (None: taken as given); a key without a check is an error."""
    prefix = name and f"{name}."
    for k in _object(obj, name):
        if k not in checks:
            raise ConfigError(f"field '{prefix}{k}' is not a setting")
    return {k: f(obj[k], prefix + k) if f else obj[k] for k, f in checks.items() if k in obj}


# every FlowConfig field but mode, which is the run's top-level 'mode'
_FLOW_FIELDS = {f.name: {int: _integer, float: _number}[f.type]
                for f in dataclasses.fields(FlowConfig) if f.name != "mode"}
_LAPSE_FIELDS = {"l": _integer, "m": _integer, "amplitude": _number,
                 "seed": _integer, "lmax": _integer}
_HYPOTHESIS_FIELDS = {"beta": _number, "lambda": _number}
_SURFACE_FIELDS = {
    "sphere_r": _number, "round_r": _number,
    "mesh_file": lambda v, name: _check(v, name, isinstance(v, str), "a file name"),
    "center": lambda v, name: _numbers(v, name, 3), "perturbations": _perturbations}


class RunConfig:
    """Validated run configuration; see README for the schema.

    grid ('NxM' text), out_dir and fmt override the config's 'grid',
    'output.dir' and 'output.format', as the command-line flags do.
    A task section ('flow', 'sweep', 'varcheck') is read by its task only.
    """

    def __init__(self, raw, task, grid=None, out_dir=None, fmt=None):
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
        # key names only: a section is validated where it is read
        _fields(raw, "", dict.fromkeys(("grid", "output", "mode", "Lambda", "lambda_el", "hypothesis",
                                        "space", "surface", "flow", "sweep", "varcheck")))
        grid = raw.get("grid", [48, 96]) if grid is None else _parse_grid(grid)
        ok = isinstance(grid, list) and len(grid) == 2 and all(
            _is_number(n) and isinstance(n, int) for n in grid)
        self.grid = _check(grid, "grid", ok, "[ntheta, nphi] integers")
        if self.grid[0] < GRID_MIN[0] or self.grid[1] < GRID_MIN[1]:
            raise ConfigError(f"field 'grid' must be at least {GRID_MIN}")
        _check(self.grid, "grid", self.grid[1] % 2 == 0, "[ntheta, nphi] with an even nphi")
        out = _fields(raw.get("output", {}), "output", {
            "dir": lambda v, name: _check(v, name, isinstance(v, str), "a directory name"),
            "format": lambda v, name: _check(v, name, v in ("json", "csv"), "'json' or 'csv'")})
        self.out_dir = out_dir or out.get("dir", ".")
        self.fmt = fmt or out.get("format", "json")
        self.Lambda, self.lambda_el = (None if raw.get(k) is None else _number(raw[k], k)
                                       for k in ("Lambda", "lambda_el"))
        hyp = _fields(raw.get("hypothesis") or {}, "hypothesis", _HYPOTHESIS_FIELDS)
        self.hypothesis = (hyp.get("beta", 0.25), hyp.get("lambda", 0.0)) if hyp else None
        if task == "sweep":
            # a radial model, or with a 'space' its coordinate spheres (no model settings)
            radial = "space" not in raw
            # one config serves eval, residual, flow and varcheck, but a sweep's is its own:
            # a single-surface setting, or one this kind of sweep does not read, is an error
            for k in ("surface", "mode", *(("Lambda", "hypothesis") if radial else ("lambda_el",))):
                if k in raw:
                    raise ConfigError(f"field '{k}' is not a setting of a "
                                      f"{'radial-model' if radial else 'catalog-space'} sweep")
            sweep = _fields(raw.get("sweep"), "sweep", dict(
                {"model": None, "params": _object} if radial else {}, r_values=None))
            self.r_values = _numbers(sweep.get("r_values"), "sweep.r_values")
            self.model = sweep.get("model")
            if radial:
                _check(self.model, "sweep.model", self.model is not None, "given without a 'space'")
                self.model_params = sweep.get("params", {})
                return
        space = _fields(raw.get("space"), "space", {"name": None, "params": _object})
        _check(space, "space", "name" in space, "an object with a 'name'")
        self.space_name, self.space_params = space["name"], space.get("params", {})
        if task == "sweep":
            return
        self.mode = raw.get("mode", "hawking")
        _check(self.mode, "mode", self.mode in MODES, f"one of {MODES}")
        surf = _fields(raw.get("surface"), "surface", _SURFACE_FIELDS)
        sources = [k for k in ("sphere_r", "mesh_file", "round_r") if k in surf]
        _check(surf, "surface", len(sources) == 1,
               "an object with exactly one of 'sphere_r', 'mesh_file', 'round_r'")
        self.source = sources[0]
        self.source_value = surf[self.source]
        # a setting that the source does not read is an error that names it
        for k, readers in (("perturbations", ("round_r",)), ("center", ("sphere_r", "round_r"))):
            _check(surf, f"surface.{k}", k not in surf or self.source in readers,
                   f"left out with '{self.source}'")
        self.center = surf.get("center", [0.0, 0.0, 0.0])
        self.perturbations = surf.get("perturbations", [])
        for i, (l, m, _) in enumerate(self.perturbations):
            _in_band(l, m, self.grid, f"surface.perturbations[{i}]")
        if task == "flow":
            self.flow = _fields(raw.get("flow", {}), "flow", _FLOW_FIELDS)
        if task == "varcheck":
            vraw = _fields(raw.get("varcheck", {}), "varcheck", {"lapse": None, "s_values": _numbers})
            self.lapse = _fields(vraw.get("lapse", {"l": 2, "m": 0, "amplitude": 1.0}),
                                 "varcheck.lapse", _LAPSE_FIELDS)
            keys = self.lapse.keys()
            _check(self.lapse, "varcheck.lapse", keys and not ({"l", "m", "amplitude"} & keys
                                                               and {"seed", "lmax"} & keys),
                   "{l, m, amplitude} or {seed, lmax}, not empty nor a mix of the two")
            # a harmonic lapse names its degree; the seeded form has defaults for both keys
            _check(self.lapse, "varcheck.lapse.l", "l" in keys or not {"m", "amplitude"} & keys,
                   "given with 'm' or 'amplitude'")
            if "l" in keys:
                _in_band(self.lapse["l"], self.lapse.get("m", 0), self.grid, "varcheck.lapse")
            # a seeded lapse holds every order of every degree up to its lmax
            mmax = band(*self.grid)[1]
            _check(self.lapse, "varcheck.lapse.lmax", 2 <= self.lapse.get("lmax", 4) <= mmax,
                   f"in [2, {mmax}] on this grid")
            _check(self.lapse, "varcheck.lapse.seed", self.lapse.get("seed", 0) >= 0, ">= 0")
            self.s_values = vraw.get("s_values", [1.6e-2, 8e-3, 4e-3])
            _check(self.s_values, "varcheck.s_values", 0.0 not in self.s_values, "nonzero")

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

def _energy_report(cfg, space, mesh):
    """The mesh's EnergyReport with the run's Lambda and hypothesis settings."""
    geom = sf.induced_geometry(space, mesh)
    report = energy_report(space, geom, cfg.Lambda, *(cfg.hypothesis or ()))
    if cfg.hypothesis and report.f_integral is None:
        # explicit request: fail loudly when the hypotheses do not hold
        f_integrals(space, geom, *cfg.hypothesis)
    return report


def _task_eval(cfg):
    space, _, mesh = cfg.build()
    report = _energy_report(cfg, space, mesh).as_dict()
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
    state = run_flow(space, FlowConfig(mode=cfg.mode, **cfg.flow), mesh)
    return {
        "flow_history.csv": _records_table(FlowRecord, state.history),
        "final_mesh.txt": state.mesh,
        "flow.json": {"status": state.status, "steps": state.step_index,
                      "functional": state.functional, "area": state.area,
                      "l2_residual": state.l2_residual},
    }


def _task_sweep(cfg):
    if cfg.model is None:
        # each row: r, then the eval report of the coordinate sphere of radius r
        space, grid = catalog(cfg.space_name, **cfg.space_params), SphereGrid(*cfg.grid)
        header, rows = _records_table(EnergyReport, [
            _energy_report(cfg, space, sf.coordinate_sphere(grid, r)) for r in cfg.r_values])
        return {"sweep.csv": (["r", *header], ((r, *row) for r, row in zip(cfg.r_values, rows)))}
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
    # an overflow is reported by the library's finiteness checks, not by numpy warnings too
    try:
        args = _build_parser().parse_args(argv)
        cfg = RunConfig(_load_config(args.config), args.task, args.grid, args.out, args.format)
        with np.errstate(all="ignore"):
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
