"""Shared fixtures: small meshes, grids and media reused across test modules."""

import numpy as np
import pytest
from numpy.polynomial.legendre import legvander
from scipy.special import spherical_jn, spherical_yn

from deltashell._dense import GuardedLU
from deltashell.acoustic import GaussianBump, RadialCutoff
from deltashell.boundary import DeltaSpec, DeltaSystem
from deltashell.geometry import SurfaceMesh, make_sphere_mesh, make_volume_grid
from deltashell.kernels import Herglotz, eval_incident, plane_wave
from deltashell.mie import PartialWaveSolution
from deltashell.volume import PotentialSample, assemble_volume_operator, volume_potential


@pytest.fixture(scope="session")
def sphere_meshes():
    """Unit-sphere icospheres keyed by subdivision level."""
    return {s: make_sphere_mesh(1.0, s) for s in range(4)}


@pytest.fixture(scope="session")
def small_grid():
    return make_volume_grid((-1.6, 1.6), 12)


def cube_mesh(side=2.0):
    """Outward-wound 12-triangle cube of edge ``side`` centred at the origin."""
    h = side / 2.0
    verts = np.array([
        [-h, -h, -h], [h, -h, -h], [h, h, -h], [-h, h, -h],
        [-h, -h, h], [h, -h, h], [h, h, h], [-h, h, h],
    ])
    faces = [
        [0, 2, 1], [0, 3, 2],      # bottom (z = -h), outward = -z
        [4, 5, 6], [4, 6, 7],      # top
        [0, 1, 5], [0, 5, 4],      # front (y = -h)
        [2, 3, 7], [2, 7, 6],      # back
        [1, 2, 6], [1, 6, 5],      # right
        [3, 0, 4], [3, 4, 7],      # left
    ]
    return SurfaceMesh.from_arrays(verts, faces)


def bump_potential(grid, amplitude, width=0.45, r_in=1.05, r_out=1.40, center=(0.0, 0.0, 0.0)):
    """Compactly supported smooth potential sample (bump times C^2 cutoff)."""
    x = grid.cell_center
    v, _, _ = GaussianBump(amplitude=amplitude, center=center, width=width).fields(x)
    c, _, _ = RadialCutoff(r_in, r_out).fields(x)
    return PotentialSample(grid=grid, values=v * c)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session",
                params=["volume+surface", "cells only", "surface only", "no surface", "volume+Sigma"])
def small_system(request, sphere_meshes, small_grid):
    """One factorized system per solve path: coupled, alpha = 0, no volume, no surface, and
    coupled with alpha = 1.5 on Sigma, the panels with z > 0, and 0 elsewhere."""
    mesh = sphere_meshes[1]
    V = None if request.param == "surface only" else bump_potential(small_grid, 0.6)
    if request.param == "no surface":
        return DeltaSystem(V, None, 1.7)
    alpha = {"cells only": 0.0, "volume+Sigma": np.where(mesh.panel_centroid[:, 2] > 0, 1.5, 0.0)}
    return DeltaSystem(V, DeltaSpec(mesh=mesh, alpha=np.full(mesh.n_panels, alpha.get(request.param, 1.5))), 1.7)


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


def radial_field(sol: PartialWaveSolution, xi_hat, points: np.ndarray,
                 scattered_only: bool = False) -> np.ndarray:
    """Oracle field at arbitrary points (analytic evaluation).

    With ``scattered_only`` the exterior wave keeps only the t_l h_l part
    (well-defined outside the last interface; the truncated incident series
    does not converge at k r >> L, so far-field probes should use this).
    """
    xi_hat = np.asarray(xi_hat, dtype=float)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    r = np.linalg.norm(pts, axis=1)
    if np.any(r == 0):
        raise ValueError("radial_field is singular at the origin")
    mu = np.clip((pts @ xi_hat) / r, -1.0, 1.0)
    P = legvander(mu, sol.L).T

    bps = sol.medium.breakpoints()
    out = np.zeros(len(pts), dtype=complex)
    ell = np.arange(sol.L + 1)
    pref = (1j**ell) * (2 * ell + 1)

    exterior = r >= bps[-1]
    if scattered_only and not np.all(exterior):
        raise ValueError("scattered_only evaluation is exterior-only")
    if np.any(exterior):
        for i in np.nonzero(exterior)[0]:
            z = sol.k * r[i]
            j = spherical_jn(ell, z)
            h = j + 1j * spherical_yn(ell, z)
            radial = sol.t * h if scattered_only else j + sol.t * h
            out[i] = np.sum(pref * radial * P[:, i])
    if np.any(~exterior):
        kappas = []
        lo = 0.0
        for rr in bps:
            kappas.append(np.sqrt(complex(sol.k**2 - sol.medium.potential_in_region(lo, rr))))
            lo = rr
        for i in np.nonzero(~exterior)[0]:
            # interior columns: the core's j, then each shell's (j, y)
            region = int(np.searchsorted(bps, r[i], side="right"))
            z = kappas[region] * r[i]
            radial = sol.interior[:, max(2 * region - 1, 0)] * spherical_jn(ell, z)
            if region > 0:
                radial = radial + sol.interior[:, 2 * region] * spherical_yn(ell, z)
            out[i] = np.sum(pref * radial * P[:, i])
    return out
