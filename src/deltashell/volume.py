"""Cell-grid samples and the cells-only volume operator for compactly supported potentials.

The total field psi for a regular potential V solves the Lippmann-Schwinger
equation

    (I + G diag(V)) psi = psi0      on the cell grid,

whose dense solve is the cells-only case of ``boundary.DeltaSystem``
(``DeltaSystem(V, None, k)``).  This module holds the grid samples, the
ball self-term, and the assembled operator and the volume potential, which
are ``boundary``'s kernel rows over the cells alone.  G is the outgoing free
resolvent discretized cellwise: G[i, j] approximates the kernel integral
over cell j seen from center i.  Each cell is the monopole of its volume
at its center (the midpoint rule: kernel at centers times cell volume);
in a cell's self region the cubic cell is replaced by the ball of equal
volume, whose self-integral has the closed form

    int_{|y|<a} e^{ik|y|}/(4 pi |y|) dy = (e^{ika}(1 - ika) - 1)/k^2
                                        = a^2 sum_n (ika)^n / (n! (n + 2))
                                        -> a^2/2   as k -> 0,

with a = (3 vol / 4 pi)^{1/3}; the series serves small ka, where the closed
form cancels.  This removes the 1/r singularity with O(h^2)
consistency and no adaptive quadrature.

Cells where V vanishes decouple from the unknowns: the dense solve runs on
the support cells only and the remaining cell values follow exactly from the
representation psi = psi0 - G (V psi).
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .geometry import VolumeGrid, _equal

__all__ = [
    "PotentialSample",
    "VolumeField",
    "ball_self_term",
    "assemble_volume_operator",
    "volume_potential",
]

# ball_self_term sums its series below this ka, where the closed form has lost
# digits to cancellation (relative error about 1e-16 / (ka)^2)
_BALL_SERIES_KA, _BALL_SERIES_TERMS = 0.05, 10


def _caller_level() -> int:
    """The ``warnings.warn`` stacklevel, in the function that calls this one, of the
    first frame outside the package: the line that asked for the warned-about input."""
    frame, level = sys._getframe(1), 1
    while frame.f_back is not None and frame.f_globals.get("__name__", "").partition(".")[0] == __package__:
        frame, level = frame.f_back, level + 1
    return level


@dataclass(frozen=True, eq=False)
class PotentialSample:
    """Real potential V sampled at cell centers (units 1/length^2)."""

    grid: VolumeGrid
    values: np.ndarray   # (n_cells,) float
    __eq__ = _equal

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.grid.n_cells,):
            raise ValueError("potential sample does not match the grid")
        if not np.all(np.isfinite(vals)):
            raise ValueError("potential sample has non-finite values")
        object.__setattr__(self, "values", vals)
        if np.any(np.abs(vals[self.grid.boundary_mask()]) > 0):
            warnings.warn("potential is nonzero on boundary cells; support may be truncated",
                          stacklevel=_caller_level())

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
    """Self-integral of the outgoing kernel over the equal-volume ball; float a^2/2 at k = 0.

    Below ka = _BALL_SERIES_KA the closed form cancels, and the series
    a^2 sum_n (ika)^n / (n! (n + 2)) is summed instead; its terms from
    n = _BALL_SERIES_TERMS on are below 1e-18 of the first.
    """
    a = (3.0 * volume / (4.0 * np.pi)) ** (1.0 / 3.0)
    if k == 0.0:
        return a * a / 2.0
    ika = 1j * k * a
    if k * a < _BALL_SERIES_KA:
        return a * a * sum(ika**n / (math.factorial(n) * (n + 2)) for n in range(_BALL_SERIES_TERMS))
    return (np.exp(ika) * (1.0 - ika) - 1.0) / k**2


def assemble_volume_operator(grid: VolumeGrid, k: float, cells: np.ndarray | None = None) -> np.ndarray:
    """Dense operator G for the selected cells (all cells by default), float64 at k = 0.

    G[i, j] ~ int_{cell j} e^{ik|c_i - y|}/(4 pi |c_i - y|) dy: the kernel rows
    of ``boundary`` over the cells alone.  Complex symmetric by construction.
    """
    from .boundary import _fill, _sources   # boundary imports this module's types
    src = _sources(grid=grid, cells=cells)
    return _fill(src.point, src, k)


def volume_potential(points, grid: VolumeGrid, density: np.ndarray, k: float, cells: np.ndarray | None = None) -> np.ndarray:
    """Field of the cellwise-constant source ``density``: sum_j density_j G(x, c_j).

    Uses the kernel rows of the assembled operator: midpoint entries and the
    equal-volume-ball value whenever x falls inside a cell's self region
    (distance to the center below half the spacing).  Evaluation at a cell
    center therefore reproduces the assembled matrix row exactly.
    """
    from .boundary import _apply, _sources   # boundary imports this module's types
    src = _sources(grid=grid, cells=cells)
    density = np.asarray(density, dtype=complex)
    if density.shape != (len(src.point),):
        raise ValueError("density length does not match the selected cells")
    return _apply(np.atleast_2d(np.asarray(points, dtype=float)), src, density, k)
