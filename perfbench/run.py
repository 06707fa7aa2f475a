"""qll benchmark runner.

    python3 perfbench/run.py --workload eval_stream --seed 1 --seconds 30 --trace 0

Runs one workload (see workloads.py) from this process, pinned to one BLAS
thread, for about --seconds of whole operation cycles, checks every output
and prints every metric by name with its unit.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.

--trace 0  end-to-end metrics, from untraced operations only.
--trace 1  each operation runs untraced and then traced: per-layer metrics
           from the spans, the workload's named end-to-end metrics from the
           untraced runs, and the tracing overhead between the two.

Results, spans (JSON lines) and the per-layer summary are written under
perfbench/out/.  The sources are taken from src/ of this checkout.
"""

import os

# Pin BLAS before numpy loads, here and (through the environment) in every
# child process.  QLL_THREADS cannot do it: qll.cli reads it only after
# `import qll` has already loaded numpy.
PINNED_THREADS = 1
os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = str(PINNED_THREADS)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_PROBES = 6
DIRECT_REPEATS = 5
ALL_GRIDS = ((32, 64), (48, 96), (96, 192))

# The workloads' own end-to-end metrics; each applies to one workload and
# reads 0 on the others.  ops_failed_frac = failed / attempted.
NAMED_UNITS = {
    "eval_cases_per_s": "1/s", "eval_case_p50_ms": "ms", "eval_case_p90_ms": "ms",
    "flow_solve_p50_s": "s", "flow_converged_frac": "fraction",
    "cli_eval_s": "s", "cli_residual_s": "s", "cli_flow_s": "s",
    "ops_failed_frac": "fraction",
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("eval_stream", "flow_solve", "cli_fine"))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def blas_threads():
    """OpenBLAS's own thread count, or None when no OpenBLAS is loaded."""
    with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def require_pinned(where, count):
    if count != PINNED_THREADS:
        sys.exit(f"perfbench: {where} ran {count} threads, not {PINNED_THREADS}; "
                 "refusing to report")


def workdir(args):
    return os.path.join(OUT, f"{args.workload}-seed{args.seed}")


def setup_probe(args):
    """Child process: set the workload up, report when ready, and exit."""
    t0 = time.monotonic()
    import qll  # noqa: F401
    import_s = time.monotonic() - t0
    import workloads
    workloads.WORKLOADS[args.workload](args.seed, workdir(args)).cycle()
    ready = time.monotonic()
    print(json.dumps({"ready": ready, "import_s": import_s,
                      "threads": workloads.os_threads(), "blas_threads": blas_threads()}))


def run_setup_probe(args, env):
    """A fresh interpreter, timed from launch to ready for its first operation.

    CLOCK_MONOTONIC (time.monotonic) is shared by all processes on Linux.
    """
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-probe",
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", "0", "--trace", "0"],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        sys.exit(f"perfbench: set-up probe failed:\n{proc.stderr}")
    info = json.loads(proc.stdout.strip().splitlines()[-1])
    info["setup_s"] = info.pop("ready") - t0
    require_pinned("a set-up probe", info["threads"])
    return info


def run_op(wl, op, cycle, tracer):
    """Time one operation and check its output; the record keeps no arrays."""
    rec = {"key": op["key"], "kind": op["kind"], "cycle": cycle,
           "traced": tracer is not None, "status": None}
    t0 = time.perf_counter()
    try:
        if tracer is None:
            out = wl.run(op)
        else:
            with tracer.recording():
                out = wl.run(op, tracer)
        rec["seconds"] = time.perf_counter() - t0
        rec["errors"] = wl.check(op, out)
        rec["status"] = getattr(out, "status", None)  # a flow's stop reason
    except Exception as exc:  # an operation that raises counts as failed
        rec.setdefault("seconds", time.perf_counter() - t0)
        rec["errors"] = [f"{type(exc).__name__}: {exc}"]
        traceback.print_exc()
    for err in rec["errors"]:
        print(f"perfbench: {op['kind']} failed: {err}", file=sys.stderr)
    return rec


def measure(wl, args, env, tracer):
    """Whole cycles while the next is expected to end within --seconds.

    Set-up probes run between operations, about SETUP_PROBES per --seconds,
    so that their median spans the run rather than one moment of it.
    """
    records, probes = [], [run_setup_probe(args, env)]
    start = last_probe = time.perf_counter()
    cycle = 0
    while True:
        c0 = time.perf_counter()
        for i, op in enumerate(wl.cycle()):
            if tracer is None:
                records.append(run_op(wl, op, cycle, None))
            else:
                # the traced twin runs second, then first, so that warm
                # caches favour neither side of the overhead
                order = (None, tracer) if i % 2 == 0 else (tracer, None)
                records += [run_op(wl, op, cycle, t) for t in order]
            if time.perf_counter() - last_probe >= args.seconds / SETUP_PROBES:
                probes.append(run_setup_probe(args, env))
                last_probe = time.perf_counter()
        cycle += 1
        now = time.perf_counter()
        if (now - start) + (now - c0) > args.seconds:
            return records, probes


def kind_medians_ms(records):
    """Median wall time (ms) of each kind of operation (its place in the cycle).

    The end-to-end time is their mean, so that every kind counts once
    whatever its share of the run; a flow of flow_solve runs once per run.
    """
    by_key = {}
    for r in records:
        by_key.setdefault(r["key"], []).append(1e3 * r["seconds"])
    return [statistics.median(v) for v in by_key.values()]


def direct_layer_times():
    """Set-up layers timed directly: median of DIRECT_REPEATS builds each."""
    from qll.grids import SphereGrid
    from qll.harmonics import HarmonicTransform

    def median_ms(fn):
        times = []
        for _ in range(DIRECT_REPEATS):
            t0 = time.perf_counter()
            fn()
            times.append(1e3 * (time.perf_counter() - t0))
        return statistics.median(times)

    m = {f"grids.SphereGrid.build_ms.{nt}x{nph}":
         (median_ms(lambda: SphereGrid(nt, nph)), "ms") for nt, nph in ALL_GRIDS}
    grid = SphereGrid(48, 96)
    m["harmonics.HarmonicTransform.init_ms"] = (median_ms(lambda: HarmonicTransform(grid)), "ms")
    return m


def run_metadata(workloads, probes, wl):
    import numpy
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10).stdout.strip() or None
    except OSError:
        sha = None
    digest = hashlib.sha256()
    qll_dir = os.path.join(SRC, "qll")
    for name in sorted(os.listdir(qll_dir)):
        if name.endswith(".py"):
            with open(os.path.join(qll_dir, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "git_sha": sha,
        "src_qll_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "threads": {"pinned": PINNED_THREADS, "main": workloads.os_threads(),
                    "main_blas": blas_threads(),
                    "setup_probes": sorted({p["threads"] for p in probes}),
                    "cli": sorted(set(getattr(wl, "thread_counts", ())))},
        "qll_threads_note": "QLL_THREADS is a no-op: qll.cli applies it after numpy "
                            "has loaded, so the benchmark pins BLAS itself",
        "caches": cache_sizes(),
        "grids": {f"{nt}x{nph}": {"nodes": nt * nph,
                                  "node_tensor81_MB_computed": nt * nph * 81 * 8 / 1e6}
                  for nt, nph in ALL_GRIDS},
        "tolerances": {k: getattr(workloads, k) for k in (
            "REF_TOL", "ANALYTIC_ENERGY_TOL", "GAUSS_BONNET_TOL", "STATIC_RESIDUAL_TOL",
            "AREA_TOL", "FLOW_RESIDUAL_TOL")},
    }


def cache_sizes():
    base = "/sys/devices/system/cpu/cpu0/cache"

    def read(index, name):
        with open(os.path.join(base, index, name), encoding="ascii") as fh:
            return fh.read().strip()

    try:
        return {f"L{read(i, 'level')}": read(i, "size") for i in sorted(os.listdir(base))
                if read(i, "type") != "Instruction"}
    except OSError:
        return {}


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "qll", "__init__.py")):
        sys.exit("perfbench: this checkout has no src/qll to benchmark")
    sys.path.insert(0, SRC)
    if args.setup_probe:
        return setup_probe(args)

    import tracing
    import workloads

    warnings.filterwarnings("ignore", message="Brown-York comparison on k != 0 data")
    require_pinned("the benchmark process", workloads.os_threads())
    if blas_threads() is not None:
        require_pinned("the benchmark process's OpenBLAS", blas_threads())
    env = dict(os.environ, PYTHONPATH=SRC)
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir(args))
    wl.prepare_checks()
    tracer = tracing.Tracer() if args.trace else None
    records, probes = measure(wl, args, env, tracer)
    for count in getattr(wl, "thread_counts", ()):
        require_pinned("a qll CLI process", count)

    attempted = len(records)
    failed = sum(1 for r in records if r["errors"])
    untraced = [r for r in records if not r["traced"]]
    named = {name: (0.0, unit) for name, unit in NAMED_UNITS.items()}
    named.update(wl.named_metrics(untraced))
    named["ops_failed_frac"] = (failed / attempted, "fraction")
    if args.trace:
        traced = [r for r in records if r["traced"]]
        spans = [s for s in tracer.spans if s["op"] is not None]
        metrics = tracing.layer_metrics(spans, len(traced))
        metrics.update(named)
        metrics.update(direct_layer_times())
        metrics["cli.import_s"] = (statistics.median(p["import_s"] for p in probes), "s")
        metrics["trace.overhead_pct"] = (
            100.0 * (sum(r["seconds"] for r in traced) / sum(r["seconds"] for r in untraced)
                     - 1.0), "%")
    else:
        metrics = {
            "setup_s": (statistics.median(p["setup_s"] for p in probes), "s"),
            "op_mean_ms": (statistics.mean(kind_medians_ms(records)), "ms"),
            "peak_rss_mb": (wl.peak_rss_kb() / 1024.0, "MB"),
        }

    meta = run_metadata(workloads, probes, wl)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="ascii") as fh:
        json.dump({"meta": meta, "metrics": metrics, "named": named,
                   "setup_probes": probes,
                   "ops": records},
                  fh, indent=1)
    if tracer is not None:
        tracer.write_jsonl(stem + "-spans.jsonl")

    print("meta " + json.dumps(meta))
    print(f"ops {attempted} attempted, {failed} failed, {len(untraced)} untraced")
    shown = dict(named)
    shown.update(metrics)
    for name, (value, unit) in sorted(shown.items()):
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
