"""Shared fixtures: small meshes, grids and media reused across test modules."""

import numpy as np
import pytest

from deltashell._dense import GuardedLU
from deltashell.acoustic import GaussianBump, RadialCutoff
from deltashell.boundary import DeltaSpec, DeltaSystem
from deltashell.geometry import make_sphere_mesh, make_volume_grid
from deltashell.kernels import Herglotz, eval_incident, plane_wave
from deltashell.volume import PotentialSample, assemble_volume_operator, volume_potential


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


@pytest.fixture(scope="session", params=["volume+surface", "cells only", "surface only", "no surface"])
def small_system(request, sphere_meshes, small_grid):
    """One factorized system per solve path: coupled, alpha = 0, no volume and no surface."""
    mesh = sphere_meshes[1]
    V = None if request.param == "surface only" else bump_potential(small_grid, 0.6)
    if request.param == "no surface":
        return DeltaSystem(V, None, 1.7)
    alpha = 0.0 if request.param == "cells only" else 1.5
    return DeltaSystem(V, DeltaSpec(mesh=mesh, alpha=np.full(mesh.n_panels, alpha)), 1.7)


def reference_lippmann_schwinger(V, inc, k):
    """Independent cells-only solve of (I + G diag(V)) psi = psi0.

    Returns the support cells, the source V psi on them and psi on the whole
    grid (psi0 - G (V psi) off the support).
    """
    grid = V.grid
    support = V.support()
    psi0 = np.asarray(eval_incident(inc, k, grid.cell_center), dtype=complex)
    A = assemble_volume_operator(grid, k, cells=support) * V.values[support][None, :]
    A[np.diag_indices_from(A)] += 1.0
    psi_s = GuardedLU(A, context="reference Lippmann-Schwinger system").solve(psi0[support])
    source = V.values[support] * psi_s
    field = psi0 - volume_potential(grid.cell_center, grid, source, k, cells=support)
    field[support] = psi_s
    return support, source, field


def mixed_incidents():
    """Five plane waves and one Herglotz superposition."""
    dirs = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, -1.0, 0.0],
                     [1.0, 1.0, 1.0], [1.0, -2.0, 0.5]])
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    herglotz = Herglotz(directions=dirs[:3], weights=np.array([0.5, 1.0, 2.0]),
                        density=np.array([1.0, 1j, -0.5 + 0.25j]))
    return [plane_wave(d) for d in dirs] + [herglotz]
