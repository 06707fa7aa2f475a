"""Batch front end: configure a space and surface, run a task, emit artifacts.

Subcommands: eval, residual, flow, sweep, varcheck.  Runs are configured by
a JSON file (--config); --grid, --out and --format override scalar fields.
Reports are deterministic: floats are written with 17 significant digits in
a fixed field order, so identical configs give bit-identical files.

Exit codes: 0 success, 2 hypothesis violation, 1 any other error.
"""

import argparse
import json
import os
import sys

from .errors import ConfigError, HypothesisError, QLLError

GRID_MIN = (16, 32)


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


def _write_json(path, obj):
    with open(path, "w", encoding="ascii") as fh:
        fh.write(dumps_canonical(obj))


def _write_kv_csv(path, obj):
    with open(path, "w", encoding="ascii") as fh:
        fh.write("field,value\n")
        for k, v in obj.items():
            fh.write(f"{k},{_dump_value(v)}\n")


# ---------------------------------------------------------------------------
# configuration

class RunConfig:
    """Validated run configuration; see README for the schema."""

    def __init__(self, raw, task):
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
        self.raw = raw
        self.task = task
        self.grid = tuple(raw.get("grid", (48, 96)))
        if len(self.grid) != 2:
            raise ConfigError("field 'grid' must be [ntheta, nphi]")
        if self.grid[0] < GRID_MIN[0] or self.grid[1] < GRID_MIN[1]:
            raise ConfigError(f"field 'grid' must be at least {GRID_MIN}")
        out = raw.get("output", {})
        self.out_dir = out.get("dir", ".")
        self.fmt = out.get("format", "json")
        if self.fmt not in ("json", "csv"):
            raise ConfigError("output format must be 'json' or 'csv'")
        self.mode = raw.get("mode", "hawking")
        self.Lambda = raw.get("Lambda")
        self.lambda_el = raw.get("lambda_el")
        self.hypothesis = raw.get("hypothesis")
        if task != "sweep":
            self._validate_space(raw)
            self._validate_surface(raw)

    def _validate_space(self, raw):
        space = raw.get("space")
        if not isinstance(space, dict) or "name" not in space:
            raise ConfigError("field 'space' must be an object with a 'name'")
        self.space_name = space["name"]
        self.space_params = space.get("params", {})
        if not isinstance(self.space_params, dict):
            raise ConfigError("field 'space.params' must be an object")

    def _validate_surface(self, raw):
        surf = raw.get("surface")
        if not isinstance(surf, dict):
            raise ConfigError("field 'surface' must be an object")
        sources = [k for k in ("sphere_r", "mesh_file", "round_r") if k in surf]
        if len(sources) != 1:
            raise ConfigError("field 'surface' must contain exactly one of "
                              "'sphere_r', 'mesh_file', 'round_r'")
        self.surface_spec = surf

    def build_space(self):
        from .ambient import catalog
        return catalog(self.space_name, **self.space_params)

    def build_mesh(self, grid):
        from . import surface as sf
        spec = self.surface_spec
        center = spec.get("center", (0.0, 0.0, 0.0))
        if "sphere_r" in spec:
            return sf.coordinate_sphere(grid, float(spec["sphere_r"]), center)
        if "mesh_file" in spec:
            return sf.load_mesh(spec["mesh_file"], grid)
        perts = spec.get("perturbations", [])
        try:
            perts = [(int(l), int(m), float(a)) for (l, m, a) in perts]
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"field 'surface.perturbations' must be [l, m, amplitude] triples: {exc}")
        return sf.round_sphere_with_harmonics(grid, float(spec["round_r"]), perts, center)


def _load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}")


# ---------------------------------------------------------------------------
# tasks

def _task_eval(cfg):
    from . import surface as sf
    from .functionals import energy_report, f_integrals
    from .grids import SphereGrid

    space = cfg.build_space()
    grid = SphereGrid(*cfg.grid)
    geom = sf.induced_geometry(space, cfg.build_mesh(grid))
    kwargs = {}
    if cfg.Lambda is not None:
        kwargs["Lambda"] = float(cfg.Lambda)
    if cfg.hypothesis:
        kwargs["beta"] = float(cfg.hypothesis.get("beta", 0.25))
        kwargs["lam"] = float(cfg.hypothesis.get("lambda", 0.0))
        # explicit request: fail loudly when the hypotheses do not hold
        f_integrals(space, geom, beta=kwargs["beta"], lam=kwargs["lam"])
    report = energy_report(space, geom, **kwargs).as_dict()
    _write_json(os.path.join(cfg.out_dir, "report.json"), report)
    if cfg.fmt == "csv":
        _write_kv_csv(os.path.join(cfg.out_dir, "report.csv"), report)
    return 0


def _task_residual(cfg):
    from . import surface as sf
    from .criticality import residual_report
    from .grids import SphereGrid

    space = cfg.build_space()
    grid = SphereGrid(*cfg.grid)
    geom = sf.induced_geometry(space, cfg.build_mesh(grid))
    lam = None if cfg.lambda_el is None else float(cfg.lambda_el)
    rep = residual_report(space, geom, cfg.mode, lam)
    summary = {
        "mode": rep.mode, "lam": rep.lam, "lambda_star": rep.lambda_star,
        "l2_residual": rep.l2_residual, "linf_residual": rep.linf_residual,
        "grid": list(cfg.grid), "space": cfg.space_name,
        "space_params": cfg.space_params,
    }
    _write_json(os.path.join(cfg.out_dir, "residual.json"), summary)
    if cfg.fmt == "csv":
        path = os.path.join(cfg.out_dir, "residual_field.csv")
        with open(path, "w", encoding="ascii") as fh:
            fh.write("theta,phi,residual\n")
            for i, th in enumerate(grid.theta):
                for j, ph in enumerate(grid.phi):
                    fh.write(f"{th:.17g},{ph:.17g},{rep.residual_field[i, j]:.17g}\n")
    return 0


def _task_flow(cfg):
    from . import surface as sf
    from .flow import FlowConfig, run_flow
    from .grids import SphereGrid

    space = cfg.build_space()
    grid = SphereGrid(*cfg.grid)
    mesh = cfg.build_mesh(grid)
    fraw = cfg.raw.get("flow", {})
    fields = {k: fraw[k] for k in ("target_area", "initial_step", "max_steps",
                                   "residual_tol", "backtrack_factor",
                                   "max_backtracks", "smoothing_tau") if k in fraw}
    if "target_area" not in fields:
        fields["target_area"] = sf.induced_geometry(space, mesh).area
    config = FlowConfig(mode=cfg.mode, **fields)
    state = run_flow(space, config, mesh)
    state.history_csv(os.path.join(cfg.out_dir, "flow_history.csv"))
    sf.save_mesh(state.mesh, os.path.join(cfg.out_dir, "final_mesh.txt"))
    _write_json(os.path.join(cfg.out_dir, "flow.json"), {
        "status": state.status, "steps": state.step_index,
        "functional": state.functional, "area": state.area,
        "l2_residual": state.l2_residual,
    })
    return 0


def _task_sweep(cfg):
    from .highdim import radial_model, radial_sweep

    sraw = cfg.raw.get("sweep")
    if not isinstance(sraw, dict):
        raise ConfigError("task 'sweep' needs a 'sweep' object in the config")
    name = sraw.get("model")
    if not name:
        raise ConfigError("field 'sweep.model' is required")
    params = dict(sraw.get("params", {}))
    if "n" in sraw:
        params["n"] = sraw["n"]
    r_values = sraw.get("r_values")
    if not r_values:
        raise ConfigError("field 'sweep.r_values' is required")
    model = radial_model(name, **params)
    lam = 0.0 if cfg.lambda_el is None else float(cfg.lambda_el)
    reports = radial_sweep(model, r_values, lam)
    path = os.path.join(cfg.out_dir, "sweep.csv")
    fields = reports[0].FIELD_ORDER
    with open(path, "w", encoding="ascii") as fh:
        fh.write(",".join(fields) + "\n")
        for rep in reports:
            fh.write(",".join(_dump_value(v) for v in
                              (getattr(rep, f) for f in fields)) + "\n")
    return 0


def _task_varcheck(cfg):
    from .criticality import first_variation_check
    from .grids import SphereGrid
    from .harmonics import band_limited_field, real_harmonic_grid

    import numpy as np

    space = cfg.build_space()
    grid = SphereGrid(*cfg.grid)
    mesh = cfg.build_mesh(grid)
    vraw = cfg.raw.get("varcheck", {})
    lapse_spec = vraw.get("lapse", {"l": 2, "m": 0, "amplitude": 1.0})
    if "l" in lapse_spec:
        alpha = float(lapse_spec.get("amplitude", 1.0)) * real_harmonic_grid(
            grid, int(lapse_spec["l"]), int(lapse_spec.get("m", 0)))
    else:
        rng = np.random.default_rng(int(lapse_spec.get("seed", 0)))
        alpha = band_limited_field(grid, int(lapse_spec.get("lmax", 4)), rng)
    s_values = tuple(float(s) for s in vraw.get("s_values", (1.6e-2, 8e-3, 4e-3)))
    chk = first_variation_check(space, mesh, alpha, s_values)
    payload = {
        "prediction": chk.prediction,
        "observed_order": chk.observed_order,
        "rows": [{"s": r.s, "quotient": r.quotient, "abs_error": r.abs_error,
                  "rel_error": r.rel_error} for r in chk.rows],
    }
    _write_json(os.path.join(cfg.out_dir, "varcheck.json"), payload)
    if cfg.fmt == "csv":
        with open(os.path.join(cfg.out_dir, "varcheck.csv"), "w", encoding="ascii") as fh:
            fh.write("s,quotient,prediction,abs_error,rel_error\n")
            for r in chk.rows:
                fh.write(f"{r.s:.17g},{r.quotient:.17g},{r.prediction:.17g},"
                         f"{r.abs_error:.17g},{r.rel_error:.17g}\n")
    return 0


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
        raw = _load_config(args.config)
        if args.grid:
            try:
                nt, nph = args.grid.lower().split("x")
                raw["grid"] = [int(nt), int(nph)]
            except ValueError:
                raise ConfigError(f"--grid must look like 48x96, got '{args.grid}'")
        if args.out:
            raw.setdefault("output", {})["dir"] = args.out
        if args.format:
            raw.setdefault("output", {})["format"] = args.format
        cfg = RunConfig(raw, args.task)
        os.makedirs(cfg.out_dir, exist_ok=True)
        return _TASKS[args.task](cfg)
    except HypothesisError as exc:
        print(f"hypothesis violation: {exc}", file=sys.stderr)
        return 2
    except (QLLError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
