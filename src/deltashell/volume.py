"""Volume operator blocks for compactly supported potentials.

The total field psi for a regular potential V solves the Lippmann-Schwinger
equation

    (I + G diag(V)) psi = psi0      on the cell grid,

whose dense solve is the cells-only case of ``boundary.DeltaSystem``
(``DeltaSystem(V, None, k)``).  This module holds its blocks: the grid
samples, the cell kernel block, the assembled operator and the volume
potential.  G is the outgoing free resolvent discretized cellwise: G[i, j]
approximates the kernel integral over cell j seen from center i.  The
off-diagonal entries use the midpoint rule (kernel at centers times cell
volume); the diagonal replaces the cubic cell by the ball of equal volume,
whose self-integral has the closed form

    int_{|y|<a} e^{ik|y|}/(4 pi |y|) dy = (e^{ika}(1 - ika) - 1)/k^2
                                        -> a^2/2   as k -> 0,

with a = (3 vol / 4 pi)^{1/3}.  This removes the 1/r singularity with O(h^2)
consistency and no adaptive quadrature.

Cells where V vanishes decouple from the unknowns: the dense solve runs on
the support cells only and the remaining cell values follow exactly from the
representation psi = psi0 - G (V psi).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from ._dense import row_chunks
from .geometry import VolumeGrid
from .kernels import radial_gradient_factor, radial_kernel

__all__ = [
    "PotentialSample",
    "VolumeField",
    "ball_self_term",
    "cell_block",
    "assemble_volume_operator",
    "volume_potential",
]

MAX_GRID_CELLS = 32**3


@dataclass(frozen=True)
class PotentialSample:
    """Real potential V sampled at cell centers (units 1/length^2)."""

    grid: VolumeGrid
    values: np.ndarray   # (n_cells,) float

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.grid.n_cells,):
            raise ValueError("potential sample does not match the grid")
        if not np.all(np.isfinite(vals)):
            raise ValueError("potential sample has non-finite values")
        object.__setattr__(self, "values", vals)
        if np.any(np.abs(vals[self.grid.boundary_mask()]) > 0):
            # level 3: past the dataclass-generated __init__ to the caller
            warnings.warn(
                "potential is nonzero on boundary cells; support may be truncated",
                stacklevel=3,
            )

    def support(self) -> np.ndarray:
        return np.nonzero(self.values != 0.0)[0]


@dataclass(frozen=True)
class VolumeField:
    """Complex field sampled at cell centers."""

    grid: VolumeGrid
    values: np.ndarray   # (n_cells,) complex

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        if vals.shape != (self.grid.n_cells,):
            raise ValueError("field sample does not match the grid")
        if not np.all(np.isfinite(vals)):
            raise ValueError("field sample has non-finite values")
        object.__setattr__(self, "values", vals)


def ball_self_term(k: float, volume: float) -> complex:
    """Self-integral of the outgoing kernel over the equal-volume ball."""
    a = (3.0 * volume / (4.0 * np.pi)) ** (1.0 / 3.0)
    if k == 0.0:
        return a * a / 2.0
    return (np.exp(1j * k * a) * (1.0 - 1j * k * a) - 1.0) / k**2


def cell_block(points: np.ndarray, centers: np.ndarray, grid: VolumeGrid, k: float,
               grad: bool = False):
    """Kernel-times-volume block from the cells at ``centers`` to ``points``.

    Midpoint entries vol * G_k(x_i, c_j), replaced by the equal-volume-ball
    value where x_i lies within half the spacing of c_j (the cell's self
    region).  With ``grad`` returns ``(d, factor)``, d = x_i - c_j: the
    x-gradient of an entry is d * factor, and zero in the self region.
    """
    d = points[:, None, :] - centers[None, :, :]
    r = np.sqrt(np.einsum("ijk,ijk->ij", d, d))
    near = r < 0.5 * float(np.min(grid.spacing))
    r = np.where(near, 1.0, r)
    if grad:
        factor = radial_gradient_factor(r, k) * grid.cell_volume
        factor[near] = 0.0
        return d, factor
    block = radial_kernel(r, k) * grid.cell_volume
    block[near] = ball_self_term(k, grid.cell_volume)
    return block


def assemble_volume_operator(grid: VolumeGrid, k: float, cells: np.ndarray | None = None) -> np.ndarray:
    """Dense operator G for the selected cells (all cells by default).

    G[i, j] ~ int_{cell j} e^{ik|c_i - y|}/(4 pi |c_i - y|) dy.  Complex
    symmetric by construction.
    """
    if grid.n_cells > MAX_GRID_CELLS:
        raise ValueError(f"grid has {grid.n_cells} cells, cap is {MAX_GRID_CELLS}")
    centers = grid.cell_center if cells is None else grid.cell_center[cells]
    G = np.empty((len(centers), len(centers)), dtype=complex)
    for rows in row_chunks(len(centers), len(centers)):
        G[rows] = cell_block(centers[rows], centers, grid, k)
    return G


def volume_potential(points, grid: VolumeGrid, density: np.ndarray, k: float, cells: np.ndarray | None = None) -> np.ndarray:
    """Field of the cellwise-constant source ``density``: sum_j density_j G(x, c_j).

    Uses the same quadrature as the assembled operator (``cell_block``):
    midpoint entries and the equal-volume-ball value whenever x falls inside
    a cell's self region (distance to the center below half the spacing).
    Evaluation at a cell center therefore reproduces the assembled matrix
    row exactly.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    centers = grid.cell_center if cells is None else grid.cell_center[cells]
    density = np.asarray(density, dtype=complex)
    if density.shape != (len(centers),):
        raise ValueError("density length does not match the selected cells")

    out = np.zeros(len(points), dtype=complex)
    for rows in row_chunks(len(points), len(centers)):
        out[rows] = cell_block(points[rows], centers, grid, k) @ density
    return out
