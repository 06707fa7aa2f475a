"""Alternating benchmark pairs of two checkouts, summarized into a BENCH_*.json.

    python scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload flow_solve \
        --pairs 10 --first-seed 801 --seconds 30 --out BENCH_8.json

Each pair runs ``perfbench/run.py --trace 0`` once in each checkout with the
same seed (pair i uses seed first_seed + i); the side that runs first
alternates from pair to pair.  For every end-to-end metric of BENCHMARK.json
the file records, per side, the median and quartiles over the pairs and the
number of pairs that side won, and a verdict, with the seeds, each checkout's
git SHA and a hash of its src/qll; the verdicts are also printed.  An existing
--out file keeps its other workloads.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

SIDES = ("parent", "change")
# per-run values recorded next to the end-to-end metrics (read from the run's output)
CHECKED = ("ops_failed_frac", "flow_converged_frac")


def quartiles(values):
    """(q1, median, q3) with the inclusive method; one value is its own quartiles."""
    if len(values) == 1:
        return (values[0],) * 3
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def verdict(parent, change, sign, bound):
    """gain, worse, unresolved or flat, for one metric's two summaries (see summarize)."""
    gap = sign * (parent["median"] - change["median"])    # > 0 when the change is better
    spread = parent["q3"] - parent["q1"]
    if change["pairs_won"] >= 0.9 * len(change["runs"]) and gap > spread:
        return "gain"
    if -gap > bound * abs(parent["median"]):
        return "worse"
    if spread > bound * abs(parent["median"]) and \
            not max(sign * v for v in change["runs"]) < min(sign * v for v in parent["runs"]):
        return "unresolved"
    return "flat"


def summarize(pairs, end_to_end):
    """Per end-to-end metric: each side's median and quartiles and its pair wins,
    and a verdict.

    pairs is a list of {"seed": s, "parent": {metric: value}, "change": {...}};
    end_to_end is BENCHMARK.json's list of {"name", "better", "bound", ...}.  A
    pair is won by the side with the better value; a tie counts for neither.
    The verdict is "gain" when the change won at least 9 in 10 of the pairs and
    its median is better by more than the parent's q3 - q1; "worse" when its
    median is worse than the parent's by more than bound (relative to the
    parent's median); "unresolved" when the parent's q3 - q1 is wider than bound
    and not every change run beats every parent run; else "flat".
    """
    out = {}
    for spec in end_to_end:
        name, sign = spec["name"], (1.0 if spec["better"] == "lower" else -1.0)
        entry = {"unit": spec.get("unit"), "better": spec["better"]}
        wins = dict.fromkeys(SIDES, 0)
        for pair in pairs:
            p, c = sign * pair["parent"][name], sign * pair["change"][name]
            if p != c:
                wins["parent" if p < c else "change"] += 1
        for side in SIDES:
            values = [pair[side][name] for pair in pairs]
            q1, med, q3 = quartiles(values)
            entry[side] = {"median": med, "q1": q1, "q3": q3, "pairs_won": wins[side],
                           "runs": values}
        entry["verdict"] = verdict(entry["parent"], entry["change"], sign, spec["bound"])
        out[name] = entry
    return out


def checkout_id(path):
    """(git SHA or None, sha256 of the files under src/qll) of a checkout.

    The SHA ends in '+dirty' when src/ differs from that commit.
    """
    try:
        def git(*cmd):
            return subprocess.run(["git", "-C", path, *cmd], capture_output=True,
                                  text=True, check=True).stdout.strip()
        sha = git("rev-parse", "HEAD") + ("+dirty" if git("status", "--porcelain", "src") else "")
    except (OSError, subprocess.CalledProcessError):
        sha = None
    digest = hashlib.sha256()
    src = os.path.join(path, "src", "qll")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(fh.read())
    return sha, digest.hexdigest()


def run_once(path, workload, seed, seconds):
    """{metric: value} from one untraced perfbench run in the checkout at path."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=path, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {path} failed:\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 3 and parts[0] in CHECKED:
            values[parts[0]] = float(parts[1])
    values["failed"] = result["failed"]
    values["attempted"] = result["attempted"]
    return values


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent")
    p.add_argument("change")
    p.add_argument("--workload", required=True, choices=("eval_stream", "flow_solve", "cli_fine"))
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--first-seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)

    with open(os.path.join(args.change, "BENCHMARK.json"), encoding="utf-8") as fh:
        end_to_end = json.load(fh)["end_to_end"]
    dirs = {"parent": args.parent, "change": args.change}
    pairs = []
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run_once(dirs[side], args.workload, seed, args.seconds)
        pairs.append(pair)
        print(json.dumps(pair), flush=True)

    doc = {"workloads": {}}
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            doc = json.load(fh)
    ids = {side: checkout_id(dirs[side]) for side in SIDES}
    metrics = summarize(pairs, end_to_end)
    for name, entry in metrics.items():
        print(f"{name}: {entry['verdict']} (median {entry['parent']['median']:g} -> "
              f"{entry['change']['median']:g}, change won {entry['change']['pairs_won']}/"
              f"{len(pairs)})")
    doc["workloads"][args.workload] = {
        "command": f"perfbench/run.py --workload {args.workload} --seconds {args.seconds:g} "
                   "--trace 0",
        "seeds": [pair["seed"] for pair in pairs],
        "first": [pair["first"] for pair in pairs],
        "git_sha": {side: ids[side][0] for side in SIDES},
        "src_sha256": {side: ids[side][1] for side in SIDES},
        "metrics": metrics,
        "checked": {side: {name: [pair[side].get(name) for pair in pairs]
                           for name in CHECKED + ("failed", "attempted")} for side in SIDES},
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
