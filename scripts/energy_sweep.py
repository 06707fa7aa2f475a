#!/usr/bin/env python3
"""Sweep quasi-local energies over coordinate-sphere radius.

Evaluates the Hawking energy, the Brown-York energy and the hypothesis
integrals on coordinate spheres of a catalog space and writes plot-ready
CSV.  The Schwarzschild default reproduces the constant E = m curve and
the Brown-York decay r (1 - sqrt(1 - 2m/r)) -> m.

Usage: python scripts/energy_sweep.py [space] [out.csv]
"""

import sys

import numpy as np

from qll import surface as sf
from qll.ambient import catalog
from qll.errors import EmbeddingError
from qll.functionals import brown_york_round, f_integrals, hawking_energy
from qll.grids import SphereGrid

PRESETS = {
    "schwarzschild": (catalog("schwarzschild", m=1.0), np.linspace(2.5, 20.0, 36)),
    "hyperboloid": (catalog("hyperboloid", a=1.0), np.linspace(0.3, 3.0, 28)),
    "paraboloid": (catalog("paraboloid", alpha=0.5), np.linspace(0.2, 1.8, 33)),
    "reissner_nordstrom": (catalog("reissner_nordstrom", m=1.0, q=0.5),
                           np.linspace(2.5, 20.0, 36)),
}


def main(argv):
    name = argv[1] if len(argv) > 1 else "schwarzschild"
    out = argv[2] if len(argv) > 2 else f"sweep_{name}.csv"
    space, radii = PRESETS[name]
    grid = SphereGrid(48, 96)
    with open(out, "w", encoding="ascii") as fh:
        fh.write("r,area,hawking_energy,brown_york,f_integral,f_tilde_integral\n")
        for r in radii:
            geom = sf.induced_geometry(space, sf.coordinate_sphere(grid, float(r)))
            energy = hawking_energy(geom)
            try:
                by = brown_york_round(geom)
            except EmbeddingError:
                by = float("nan")
            if np.all(geom.H > 0):
                ints = f_integrals(space, geom)
                fi, ft = ints["f"], ints["f_tilde"]
            else:
                fi = ft = float("nan")
            fh.write(f"{r:.17g},{geom.area:.17g},{energy:.17g},{by:.17g},"
                     f"{fi:.17g},{ft:.17g}\n")
    print(f"wrote {out} ({len(radii)} radii, space={name})")


if __name__ == "__main__":
    main(sys.argv)
