"""Shared fixtures: small meshes, grids and media reused across test modules."""

import numpy as np
import pytest

from deltashell.acoustic import GaussianBump, RadialCutoff
from deltashell.boundary import DeltaSpec, DeltaSystem
from deltashell.geometry import make_sphere_mesh, make_volume_grid
from deltashell.kernels import Herglotz, plane_wave
from deltashell.volume import PotentialSample


@pytest.fixture(scope="session")
def sphere_meshes():
    """Unit-sphere icospheres keyed by subdivision level."""
    return {s: make_sphere_mesh(1.0, s) for s in range(4)}


@pytest.fixture(scope="session")
def small_grid():
    return make_volume_grid((-1.6, 1.6), 12)


def bump_potential(grid, amplitude, width=0.45, r_in=1.05, r_out=1.40, center=(0.0, 0.0, 0.0)):
    """Compactly supported smooth potential sample (bump times C^2 cutoff)."""
    x = grid.cell_center
    v, _, _ = GaussianBump(amplitude=amplitude, center=center, width=width).fields(x)
    c, _, _ = RadialCutoff(r_in, r_out).fields(x)
    return PotentialSample(grid=grid, values=v * c)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session", params=["volume+surface", "cells only", "surface only"])
def small_system(request, sphere_meshes, small_grid):
    """One factorized system per solve path: coupled, alpha = 0, and no volume."""
    mesh = sphere_meshes[1]
    V = None if request.param == "surface only" else bump_potential(small_grid, 0.6)
    alpha = 0.0 if request.param == "cells only" else 1.5
    return DeltaSystem(V, DeltaSpec(mesh=mesh, alpha=np.full(mesh.n_panels, alpha)), 1.7)


def mixed_incidents():
    """Five plane waves and one Herglotz superposition."""
    dirs = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, -1.0, 0.0],
                     [1.0, 1.0, 1.0], [1.0, -2.0, 0.5]])
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    herglotz = Herglotz(directions=dirs[:3], weights=np.array([0.5, 1.0, 2.0]),
                        density=np.array([1.0, 1j, -0.5 + 0.25j]))
    return [plane_wave(d) for d in dirs] + [herglotz]
