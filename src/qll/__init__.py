"""qll: a numerical laboratory for quasi-local energies on discrete 2-surfaces.

Evaluate Hawking-type energies on star-shaped closed surfaces embedded in
initial data sets (M, g, k), compute the Euler-Lagrange residuals that
characterize area-constrained critical surfaces, check the integral
hypotheses behind positivity statements, and locate critical spheres by
constrained gradient descent.
"""

import os


def _cap_blas_threads():
    # BLAS pools read these variables once, when numpy loads, so the cap
    # must be set before the first numpy import below
    cap = os.environ.get("QLL_THREADS")
    if cap:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ.setdefault(var, cap)


_cap_blas_threads()

from .ambient import AmbientSpace, catalog, constraint_data_at, curvature_at, nabla_k_at
from .criticality import first_variation_check, residual_report
from .errors import (CatalogError, ChartDomainError, ConfigError, EmbeddingError,
                     FlowError, GeometryError, HypothesisError, NumericError,
                     QLLError)
from .flow import FlowConfig, FlowState, run_flow
from .functionals import (EnergyReport, brown_york_round, charged_hawking_energy,
                          energy_report, f_integrals, hawking_energy,
                          hawking_functional, lambda_hawking_energy)
from .grids import SphereGrid
from .highdim import (RadialModel, radial_model, radial_sphere, radial_sweep,
                      unit_sphere_volume)
from .surface import (SurfaceGeometry, SurfaceMesh, coordinate_sphere, ellipsoid,
                      gauss_equation_check, induced_geometry, integrate,
                      load_mesh, round_sphere_with_harmonics, save_mesh,
                      surface_gradient, surface_laplacian, tangential_divergence)

__version__ = "0.1.0"
