import dataclasses

import numpy as np
import pytest

from qll.ambient import catalog
from qll.grids import SphereGrid


@pytest.fixture(scope="session")
def grid48():
    return SphereGrid(48, 96)


@pytest.fixture(scope="session")
def grid32():
    return SphereGrid(32, 64)


@pytest.fixture(scope="session")
def grid24():
    return SphereGrid(24, 48)


@pytest.fixture(scope="session")
def euclidean():
    return catalog("euclidean")


@pytest.fixture(scope="session")
def schwarzschild():
    return catalog("schwarzschild", m=1.0)


@pytest.fixture(scope="session")
def hyperboloid():
    return catalog("hyperboloid", a=1.0)


@pytest.fixture(scope="session")
def paraboloid():
    return catalog("paraboloid", alpha=0.5)


def fd_space(space, step=None):
    """space without its own derivatives or Ricci tensor, so dg, d2g and dk are
    central differences and Ric is contracted from them."""
    return dataclasses.replace(space, dmetric_fn=None, d2metric_fn=None, dk_fn=None,
                               ricci_fn=None, fd_step=step)


def random_points(rng, n, rmin=0.5, rmax=3.0):
    """Random chart points in a spherical shell."""
    directions = rng.normal(size=(n, 3))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    radii = rng.uniform(rmin, rmax, size=n)
    return directions * radii[:, None]
