#!/usr/bin/env python3
"""Drive a perturbed sphere back to a critical surface by gradient descent.

Runs the area-constrained Willmore flow in Euclidean space from a
Y_2-perturbed unit sphere and prints the per-step functional/residual
trace and a summary.  `qll flow` runs the same flow from a config and
writes the history and the final mesh.

Usage: python scripts/flow_demo.py [amplitude] [ntheta nphi]
"""

import sys

import numpy as np

from qll import surface as sf
from qll.ambient import catalog
from qll.flow import FlowConfig, run_flow
from qll.functionals import hawking_energy
from qll.grids import SphereGrid


def main(argv):
    amp = float(argv[1]) if len(argv) > 1 else 0.05
    nt = int(argv[2]) if len(argv) > 2 else 32
    nph = int(argv[3]) if len(argv) > 3 else 64

    space = catalog("euclidean")
    grid = SphereGrid(nt, nph)
    mesh = sf.round_sphere_with_harmonics(grid, 1.0, [(2, 0, amp)])
    config = FlowConfig(mode="willmore", target_area=4.0 * np.pi, residual_tol=1e-5)
    state = run_flow(space, config, mesh)

    for rec in state.history:
        print(f"step {rec.step:4d}  F = {rec.functional:.12f}  "
              f"residual = {rec.residual:.3e}  dt = {rec.step_size:.2e}")
    final = sf.induced_geometry(space, state.mesh)
    print(f"status: {state.status} after {state.step_index} steps")
    print(f"final Hawking energy: {hawking_energy(final):+.3e}")
    print(f"radius spread: {np.max(state.mesh.radius) - np.min(state.mesh.radius):.3e}")


if __name__ == "__main__":
    main(sys.argv)
