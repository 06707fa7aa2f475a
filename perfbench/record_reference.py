"""Record the eval_stream reference pool: perturbed spheres and their values.

    PYTHONPATH=src python3 perfbench/record_reference.py

The pool fixes both the inputs (space, radius, harmonic perturbations) and
the values the library returned for them when the benchmark was defined.
eval_stream draws its perturbed cases from this pool and compares every
result against it, so re-record only when a change of results is intended.
"""

import json
import os
import random
import sys

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402  (needs the path set above)

CASES_PER_SPACE = 16
POOL_SEED = 20250716


def main():
    rng = random.Random(POOL_SEED)
    grid = workloads.SphereGrid(*workloads.EVAL_GRID)
    cases = []
    for name, (params, r_lo, r_hi) in workloads.EVAL_SPACES.items():
        space = workloads.catalog(name, **params)
        for _ in range(CASES_PER_SPACE):
            perts = [[l, rng.randint(-l, l), round(rng.uniform(-0.03, 0.03), 6)]
                     for l in rng.sample((2, 3, 4), rng.choice((2, 3)))]
            case = {"space": name, "params": params,
                    "r0": round(rng.uniform(r_lo, r_hi), 6), "perturbations": perts}
            mesh = workloads.round_sphere_with_harmonics(grid, case["r0"], perts)
            case["values"] = workloads.eval_values(workloads.eval_case(space, mesh))
            cases.append(case)
            print(name, len(cases), flush=True)
    with open(os.path.join(HERE, workloads.EVAL_POOL_FILE), "w", encoding="ascii") as fh:
        json.dump({"grid": list(workloads.EVAL_GRID), "cases": cases}, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
