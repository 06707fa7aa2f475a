"""The qll benchmark workloads: eval_stream, flow_solve and cli_fine.

Each workload is a closed loop with one client.  Its inputs come from the
seed, it hands out operations in whole cycles so that every run measures the
same mix, and it checks every result.  Library calls go through module
attributes (``surface.induced_geometry`` rather than an imported name) so
that the span wrappers in tracing.py see them.
"""

import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time

from qll import criticality, flow, functionals, surface
from qll.ambient import catalog
from qll.grids import SphereGrid
from qll.surface import coordinate_sphere, round_sphere_with_harmonics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# -- correctness tolerances --------------------------------------------------
# |x - ref| <= REF_TOL * (1 + |ref|) for every value recorded in the pool and
# for every CLI report field.  It admits the <= 1e-13 relative drift that a
# re-ordered contraction may bring and still catches any real change.
REF_TOL = 1e-9
# E_H = m for Schwarzschild coordinate spheres, E_H = 0 for hyperboloid and
# paraboloid coordinate spheres (absolute).
ANALYTIC_ENERGY_TOL = 1e-10
# |int K dmu - 4 pi| on every surface (Gauss-Bonnet).
GAUSS_BONNET_TOL = 1e-6
# l2 residual at lambda* of a centred coordinate sphere in a spherically
# symmetric space, which is critical.
STATIC_RESIDUAL_TOL = 1e-7
# relative distance of a flow's final area from its target.
AREA_TOL = 1e-8
FLOW_RESIDUAL_TOL = 1e-5
FLOW_STATUSES = ("converged", "stagnated", "max_steps")


def close(value, ref, tol=REF_TOL):
    return abs(value - ref) <= tol * (1.0 + abs(ref))


class Workload:
    """Set-up shared by the benchmark process and its set-up probes."""

    grids = ()

    def __init__(self, seed, workdir):
        self.rng = random.Random(seed)
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)
        self.grid = {shape: SphereGrid(*shape) for shape in self.grids}

    def prepare_checks(self):
        """Reference values that only the checks need (not part of set-up)."""

    def cycle(self):
        """The next whole cycle of operations, inputs built."""
        raise NotImplementedError

    def run(self, op, tracer=None):
        raise NotImplementedError

    def check(self, op, out):
        """List of mismatches; empty when the output is correct."""
        raise NotImplementedError

    def named_metrics(self, records):
        """The workload's own end-to-end metrics, name -> (value, unit)."""
        raise NotImplementedError

    def peak_rss_kb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


# ---------------------------------------------------------------------------
# eval_stream

EVAL_GRID = (48, 96)
EVAL_POOL_FILE = "eval_reference.json"
# space -> (catalog params, radius range of the perturbed pool cases)
EVAL_SPACES = {
    "euclidean": ({}, 0.5, 2.0),
    "schwarzschild": ({"m": 1.0}, 3.0, 6.0),
    "reissner_nordstrom": ({"m": 1.0, "q": 0.5}, 3.0, 6.0),
    "hyperboloid": ({"a": 1.0}, 0.5, 2.0),
    "paraboloid": ({"alpha": 0.5}, 0.6, 1.4),
    "hyperbolic": ({"a": 1.0}, 0.5, 2.0),
}
# coordinate spheres with an exact Hawking energy: radius range, E_H
EVAL_ANALYTIC = {
    "schwarzschild": (3.0, 8.0, 1.0),
    "hyperboloid": (0.5, 2.0, 0.0),
    "paraboloid": (0.5, 1.5, 0.0),
}


def eval_case(space, mesh):
    """One eval_stream operation."""
    geom = surface.induced_geometry(space, mesh)
    report = functionals.energy_report(space, geom)
    return (report, criticality.residual_report(space, geom, "willmore"),
            criticality.residual_report(space, geom, "hawking"))


def eval_values(result):
    report, *residuals = result
    values = {k: v for k, v in report.as_dict().items() if isinstance(v, float)}
    for rep in residuals:
        for k in ("lambda_star", "l2_residual", "linf_residual"):
            values[f"{rep.mode}.{k}"] = getattr(rep, k)
    return values


class EvalStream(Workload):
    """Perturbed spheres from the recorded pool plus analytic coordinate spheres."""

    grids = (EVAL_GRID,)

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        with open(os.path.join(HERE, EVAL_POOL_FILE), encoding="ascii") as fh:
            cases = json.load(fh)["cases"]
        self.spaces = {name: catalog(name, **params)
                       for name, (params, _, _) in EVAL_SPACES.items()}
        self.pool = {name: [c for c in cases if c["space"] == name] for name in EVAL_SPACES}
        for name_cases in self.pool.values():
            self.rng.shuffle(name_cases)
        self.cycles = 0

    def cycle(self):
        grid = self.grid[EVAL_GRID]
        ops = []
        for name, name_cases in self.pool.items():
            case = name_cases[self.cycles % len(name_cases)]
            ops.append({"kind": "perturbed", "key": f"perturbed:{name}", "space": name,
                        "expect": case["values"],
                        "mesh": round_sphere_with_harmonics(grid, case["r0"],
                                                            case["perturbations"])})
        for name, (r_lo, r_hi, energy) in EVAL_ANALYTIC.items():
            ops.append({"kind": "coordinate_sphere", "key": f"coordinate_sphere:{name}",
                        "space": name, "energy": energy,
                        "mesh": coordinate_sphere(grid, self.rng.uniform(r_lo, r_hi))})
        self.rng.shuffle(ops)
        self.cycles += 1
        return ops

    def run(self, op, tracer=None):
        return eval_case(self.spaces[op["space"]], op["mesh"])

    def check(self, op, out):
        values = eval_values(out)
        errors = []
        if not values["gauss_bonnet_defect"] <= GAUSS_BONNET_TOL:
            errors.append(f"gauss_bonnet_defect {values['gauss_bonnet_defect']:.3e}")
        if op["kind"] == "perturbed":
            expect = op["expect"]
            if set(values) != set(expect):
                errors.append(f"fields differ: {sorted(set(values) ^ set(expect))}")
            errors += [f"{k} {values[k]!r} != {ref!r}" for k, ref in expect.items()
                       if k in values and not close(values[k], ref)]
        else:
            if not abs(values["hawking_energy"] - op["energy"]) <= ANALYTIC_ENERGY_TOL:
                errors.append(f"hawking_energy {values['hawking_energy']!r} != {op['energy']}")
            errors += [f"{k} {values[k]:.3e}" for k in ("willmore.l2_residual",
                                                       "hawking.l2_residual")
                       if not values[k] <= STATIC_RESIDUAL_TOL]
        return errors

    def named_metrics(self, records):
        ms = [1e3 * r["seconds"] for r in records]
        return {"eval_cases_per_s": (len(ms) / (1e-3 * sum(ms)), "1/s"),
                "eval_case_p50_ms": (statistics.median(ms), "ms"),
                "eval_case_p90_ms": (statistics.quantiles(ms, n=10, method="inclusive")[8],
                                     "ms")}


# ---------------------------------------------------------------------------
# flow_solve

FLOW_GRIDS = ((32, 64), (48, 96))
# space -> (catalog params, radius of the unperturbed sphere)
FLOW_SPACES = {
    "euclidean": ({}, 1.0),
    "schwarzschild": ({"m": 1.0}, 4.0),
    "hyperbolic": ({"a": 1.0}, 1.0),
    "hyperboloid": ({"a": 1.0}, 1.0),
}
# (space, mode, perturbations, exact); each seed runs on both grids.
# The two exact seeds are the measured stagnating cases: they are never
# rotated, filtered out or re-seeded, so the flow defect stays visible in
# flow_converged_frac.  The other non-zonal seeds are rotated about the
# polar axis by a seeded angle, which gives new grid samples of the same
# geometric problem.
FLOW_SEEDS = (
    ("euclidean", "willmore", ((2, 0, 0.05),), False),
    ("euclidean", "willmore", ((2, 2, 0.03), (3, -1, 0.02)), True),
    ("schwarzschild", "hawking", ((2, 0, 0.03),), False),
    ("schwarzschild", "willmore", ((2, 2, 0.03), (3, -1, 0.02)), True),
    ("hyperbolic", "willmore", ((2, 0, 0.03),), False),
    ("hyperbolic", "hawking", ((2, -2, 0.03), (3, 1, 0.02)), False),
    ("hyperboloid", "hawking", ((2, 0, 0.02),), False),
    ("hyperboloid", "hawking", ((2, 1, 0.02), (3, 2, 0.01)), False),
)


def rotate_azimuth(perturbations, angle):
    """The same bumps as real harmonics of phi - angle."""
    out = []
    for l, m, a in perturbations:
        k = abs(m)
        c, s = math.cos(k * angle), math.sin(k * angle)
        if m == 0:
            out.append((l, 0, a))
        elif m > 0:   # cos k(phi - angle)
            out += [(l, k, a * c), (l, -k, a * s)]
        else:         # sin k(phi - angle)
            out += [(l, -k, a * c), (l, k, -a * s)]
    return out


class FlowSolve(Workload):
    """Area-constrained flows to FLOW_RESIDUAL_TOL at 32x64 and 48x96."""

    grids = FLOW_GRIDS

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.spaces = {name: catalog(name, **params)
                       for name, (params, _) in FLOW_SPACES.items()}

    def cycle(self):
        ops = []
        for shape in FLOW_GRIDS:
            for i, (name, mode, perts, exact) in enumerate(FLOW_SEEDS):
                r0 = FLOW_SPACES[name][1]
                angle = self.rng.uniform(0.0, 2.0 * math.pi)
                if not exact:
                    perts = rotate_azimuth(perts, angle)
                ops.append({"kind": "flow", "key": f"seed{i}:{shape[0]}x{shape[1]}",
                            "space": name, "mode": mode, "grid": shape,
                            "target_area": 4.0 * math.pi * r0 ** 2,
                            "mesh": round_sphere_with_harmonics(self.grid[shape], r0, perts)})
        self.rng.shuffle(ops)
        return ops

    def run(self, op, tracer=None):
        config = flow.FlowConfig(mode=op["mode"], target_area=op["target_area"],
                                 residual_tol=FLOW_RESIDUAL_TOL)
        return flow.run_flow(self.spaces[op["space"]], config, op["mesh"])

    def check(self, op, state):
        errors = []
        if state.status not in FLOW_STATUSES:
            errors.append(f"status {state.status}")
        space = self.spaces[op["space"]]
        geom = surface.induced_geometry(space, state.mesh)
        if not abs(geom.area - op["target_area"]) <= AREA_TOL * op["target_area"]:
            errors.append(f"area {geom.area!r} != {op['target_area']!r}")
        if state.status == "converged":
            l2 = criticality.residual_report(space, geom, op["mode"]).l2_residual
            if not l2 <= FLOW_RESIDUAL_TOL * (1.0 + REF_TOL):
                errors.append(f"converged with residual {l2:.3e}")
        return errors

    def named_metrics(self, records):
        converged = [r["status"] == "converged" for r in records if not r["errors"]]
        return {"flow_solve_p50_s": (statistics.median(r["seconds"] for r in records), "s"),
                "flow_converged_frac": (sum(converged) / len(records), "fraction")}


# ---------------------------------------------------------------------------
# cli_fine

CLI_GRIDS = ((48, 96), (96, 192))
CLI_FLOW_GRID = (48, 96)


def _perturbations(rng):
    return [[l, rng.randint(-l, l), round(rng.uniform(-0.02, 0.02), 6)] for l in (2, 3)]


class CliFine(Workload):
    """`python -m qll.cli` eval and residual at both grids, flow at 48x96."""

    grids = CLI_GRIDS

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        # eval reads k != 0 data, residual the Schwarzschild curvature; the
        # flow input is fixed so that its step count does not vary by seed
        self.configs = {
            "eval": {"space": {"name": "hyperboloid", "params": {"a": 1.0}},
                     "surface": {"round_r": 1.0, "perturbations": _perturbations(self.rng)}},
            "residual": {"space": {"name": "schwarzschild", "params": {"m": 1.0}},
                         "surface": {"round_r": 4.0, "perturbations": _perturbations(self.rng)},
                         "mode": "hawking"},
            "flow": {"space": {"name": "hyperboloid", "params": {"a": 1.0}},
                     "surface": {"round_r": 1.0, "perturbations": [[2, 0, 0.02]]},
                     "mode": "hawking", "flow": {"residual_tol": FLOW_RESIDUAL_TOL}},
        }
        self.spaces = {}
        for task, cfg in self.configs.items():
            self.spaces[task] = catalog(cfg["space"]["name"], **cfg["space"]["params"])
            with open(self._path(task, "config.json"), "w", encoding="ascii") as fh:
                json.dump(cfg, fh)
        self.env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        self.thread_counts = []
        self.rss_kb = []

    def _path(self, *parts):
        path = os.path.join(self.workdir, *parts)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        return path

    def _mesh(self, task, shape):
        spec = self.configs[task]["surface"]
        return round_sphere_with_harmonics(self.grid[shape], spec["round_r"],
                                           spec["perturbations"])

    def prepare_checks(self):
        self.expect = {}
        for shape in CLI_GRIDS:
            mesh = self._mesh("eval", shape)
            space = self.spaces["eval"]
            geom = surface.induced_geometry(space, mesh)
            self.expect["eval", shape] = functionals.energy_report(space, geom).as_dict()
            mesh = self._mesh("residual", shape)
            space = self.spaces["residual"]
            rep = criticality.residual_report(space, surface.induced_geometry(space, mesh),
                                              self.configs["residual"]["mode"])
            self.expect["residual", shape] = {
                "mode": rep.mode, "lam": rep.lam, "lambda_star": rep.lambda_star,
                "l2_residual": rep.l2_residual, "linf_residual": rep.linf_residual,
                "grid": list(shape), "space": "schwarzschild", "space_params": {"m": 1.0}}
        mesh = self._mesh("flow", CLI_FLOW_GRID)
        self.flow_area = surface.induced_geometry(self.spaces["flow"], mesh).area

    def cycle(self):
        ops = [(task, shape) for task in ("eval", "residual") for shape in CLI_GRIDS]
        ops.append(("flow", CLI_FLOW_GRID))
        return [{"kind": task, "key": f"{task}:{nt}x{nph}", "grid": (nt, nph)}
                for task, (nt, nph) in ops]

    def run(self, op, tracer=None):
        task, (nt, nph) = op["kind"], op["grid"]
        out_dir = self._path(f"{task}-{nt}x{nph}", "")
        for name in os.listdir(out_dir):
            os.remove(os.path.join(out_dir, name))
        args = [task, "--config", self._path(task, "config.json"),
                "--grid", f"{nt}x{nph}", "--out", out_dir]
        if tracer is None:
            cmd = [sys.executable, "-m", "qll.cli"] + args
        else:
            spans_path = self._path("spans", f"op{tracer.op}.jsonl")
            cmd = [sys.executable, os.path.join(HERE, "trace_cli.py"), spans_path,
                   str(tracer.op)] + args
        code, threads, rss_kb, stderr = spawn(cmd, self.env, ROOT,
                                              self._path("stderr.txt"))
        self.thread_counts.append(threads)
        self.rss_kb.append(rss_kb)
        if code != 0:
            raise RuntimeError(f"qll {task} exited with {code}: {stderr.strip()[-300:]}")
        if tracer is not None:
            tracer.load(spans_path)
        return out_dir

    def check(self, op, out_dir):
        task, shape = op["kind"], op["grid"]
        name = {"eval": "report.json", "residual": "residual.json", "flow": "flow.json"}[task]
        with open(os.path.join(out_dir, name), encoding="ascii") as fh:
            got = json.load(fh)
        if task == "flow":
            errors = []
            if got["status"] not in FLOW_STATUSES:
                errors.append(f"status {got['status']}")
            if not abs(got["area"] - self.flow_area) <= AREA_TOL * self.flow_area:
                errors.append(f"area {got['area']!r} != {self.flow_area!r}")
            if got["status"] == "converged" and not got["l2_residual"] <= FLOW_RESIDUAL_TOL:
                errors.append(f"converged with residual {got['l2_residual']:.3e}")
            return errors
        expect = self.expect[task, shape]
        if set(got) != set(expect):
            return [f"fields differ: {sorted(set(got) ^ set(expect))}"]
        return [f"{k} {got[k]!r} != {v!r}" for k, v in expect.items()
                if not (close(got[k], v) if isinstance(v, float) and got[k] is not None
                        else _same(got[k], v))]

    def peak_rss_kb(self):
        return max(self.rss_kb)

    def named_metrics(self, records):
        out = {}
        for task in ("eval", "residual", "flow"):
            # one value per cycle: the mean over the grids the task runs at
            per_cycle = {}
            for r in records:
                if r["kind"] == task:
                    per_cycle.setdefault(r["cycle"], []).append(r["seconds"])
            out[f"cli_{task}_s"] = (
                statistics.median(sum(v) / len(v) for v in per_cycle.values()), "s")
        return out


def _same(got, expect):
    if isinstance(expect, (list, tuple)):
        return list(got) == list(expect)
    return got == expect


WORKLOADS = {"eval_stream": EvalStream, "flow_solve": FlowSolve, "cli_fine": CliFine}


# ---------------------------------------------------------------------------
# helpers

def os_threads(pid="self"):
    """Operating-system threads of a process (None once it has gone)."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except (FileNotFoundError, ProcessLookupError):
        return None
    return None


def spawn(cmd, env, cwd, err_path, poll_s=0.002):
    """Run cmd to completion: exit code, most threads seen, peak RSS (KiB), stderr.

    The child's thread count is sampled every poll_s while it runs; an
    OpenBLAS pool, if one starts, lives from numpy's import to exit.
    """
    with open(err_path, "w+", encoding="utf-8", errors="replace") as err:
        proc = subprocess.Popen(cmd, env=env, cwd=cwd, stdout=subprocess.DEVNULL,
                                stderr=err)
        threads = 0
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                threads = max(threads, os_threads(proc.pid) or 0)
                time.sleep(poll_s)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        # reaped here, so tell Popen it has ended
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read()
    return proc.returncode, threads, usage.ru_maxrss, stderr
