"""Acoustic media with a density-gradient jump and their Schrodinger data.

A medium is a pair (rho, v): the density is built as

    rho(x) = 1 + chi(x) * ( rho_smooth(x) + SL[shell_density](x) ),

where SL is the static single-layer potential on the jump surface Gamma,
rho_smooth is a sum of Gaussian bumps, and chi is a C^2 radial cutoff equal
to 1 on a ball containing Gamma and 0 outside a larger ball.  The sound
speed is v(x) = 1 + chi(x) * v_bumps(x).  Both equal 1 outside the cutoff.

The substitution u = sqrt(rho) * psi turns the stationary acoustic equation
into a Schrodinger problem with

    V = -1/2 lap(rho)/rho + 3/4 |grad rho|^2 / rho^2  +  omega^2 (1 - 1/v^2)

cellwise (lap is the piecewise/one-sided Laplacian; the layer part is
harmonic off Gamma and drops out), plus a surface strength

    alpha_q = shell_density_q / (2 * rho|_Gamma(q))

per panel, coming from the normal-derivative jump [d_n rho] = -shell_density
on Gamma.  alpha does not depend on omega; the two-frequency difference of V
is exactly (omega2^2 - omega1^2)(1 - 1/v^2).

Fields and far fields map back by u = sqrt(rho) psi; since rho = v = 1
outside the cutoff, acoustic and Schrodinger far fields coincide, the
density is summed only inside the widest cutoff ball (V = 0 outside it),
and a grid whose boundary cells reach into that ball is rejected.

A medium enters the solve only through the weights (V, alpha), so media
that share the grid, the support of V and Gamma share one kernel per omega
(``DeltaSystem.reweighted``).  One loop runs frequencies outside and media
inside; ``acoustic_farfield`` is its one-medium case.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .boundary import DeltaSpec, DeltaSystem, _apply, _sources, near_surface, on_surface
from .farfield import FarFieldPattern, farfield_source
from .geometry import SurfaceMesh, VolumeGrid, _equal
from .kernels import plane_wave
from .volume import PotentialSample

__all__ = [
    "GaussianBump",
    "RadialCutoff",
    "MediumSpec",
    "SchrodingerData",
    "MediumValidityError",
    "MediumGridError",
    "eval_density",
    "eval_sound_speed",
    "check_medium_grid",
    "acoustic_to_schrodinger",
    "acoustic_farfield",
]


class MediumValidityError(ValueError):
    """Sampled density or sound speed violates positivity."""


class MediumGridError(ValueError):
    """The sampling grid misses part of the medium's support or puts a cell centre on Gamma."""


@dataclass(frozen=True, eq=False)
class GaussianBump:
    """A exp(-|x - c|^2 / (2 sigma^2)) with analytic gradient and Laplacian; equal when A, c and sigma are."""

    amplitude: float
    center: tuple[float, float, float]
    width: float
    __eq__ = _equal

    def fields(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        c = np.asarray(self.center, dtype=float)
        d = x - c[None, :]
        r2 = np.einsum("ij,ij->i", d, d)
        g = self.amplitude * np.exp(-r2 / (2.0 * self.width**2))
        grad = -g[:, None] * d / self.width**2
        lap = g * (r2 / self.width**4 - 3.0 / self.width**2)
        return g, grad, lap


@dataclass(frozen=True)
class RadialCutoff:
    """Quintic C^2 radial cutoff: 1 on r <= r_inner, 0 on r >= r_outer."""

    r_inner: float
    r_outer: float

    def __post_init__(self):
        if not 0 < self.r_inner < self.r_outer:
            raise ValueError("need 0 < r_inner < r_outer")

    def fields(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        r = np.linalg.norm(x, axis=1)
        width = self.r_outer - self.r_inner
        t = np.clip((r - self.r_inner) / width, 0.0, 1.0)
        val = 1.0 - (10.0 * t**3 - 15.0 * t**4 + 6.0 * t**5)
        dt = -30.0 * t**2 * (1.0 - t) ** 2
        d2t = -60.0 * t * (1.0 - t) * (1.0 - 2.0 * t)
        inside = (r > self.r_inner) & (r < self.r_outer)
        r_safe = np.where(r > 0, r, 1.0)
        grad = np.where(inside, dt / width, 0.0)[:, None] * (x / r_safe[:, None])
        lap = np.where(inside, d2t / width**2 + (2.0 / r_safe) * dt / width, 0.0)
        return val, grad, lap


@dataclass(frozen=True, eq=False)
class MediumSpec:
    """Jump surface, shell density, smooth bumps and cutoff defining (rho, v); equal when all five are."""

    gamma: SurfaceMesh
    shell_density: np.ndarray                 # xi per panel; [d_n rho] = -xi
    rho_bumps: tuple[GaussianBump, ...] = ()
    v_bumps: tuple[GaussianBump, ...] = ()
    cutoff: RadialCutoff = RadialCutoff(2.0, 3.0)
    __eq__ = _equal

    def __post_init__(self):
        object.__setattr__(self, "shell_density", self.gamma.per_panel(self.shell_density, "shell_density"))
        r_gamma = self.gamma.bounding_radius
        if self.cutoff.r_inner <= r_gamma:
            raise ValueError(
                f"cutoff must equal 1 on a ball containing Gamma "
                f"(r_inner = {self.cutoff.r_inner} <= max|Gamma| = {r_gamma:.3g})"
            )

    @property
    def r_support(self) -> float:
        """Radius outside which rho = v = 1 exactly."""
        return self.cutoff.r_outer


@dataclass(frozen=True)
class SchrodingerData:
    """Potential sample plus surface strength produced from a medium at omega."""

    V: PotentialSample
    delta: DeltaSpec
    omega: float


def _sum_bumps(bumps, x: np.ndarray):
    val = np.zeros(len(x))
    grad = np.zeros((len(x), 3))
    lap = np.zeros(len(x))
    for b in bumps:
        v, g, l = b.fields(x)
        val += v
        grad += g
        lap += l
    return val, grad, lap


def _density(media, x: np.ndarray, derivatives: bool) -> list:
    """``eval_density`` of media that share Gamma, without the near-Gamma scan: one
    (rho, grad rho, lap rho) per medium.  One static layer pass, with ``derivatives`` the jet
    (value and gradient), serves every medium's shell density (one column each)."""
    gamma = media[0].gamma
    xi = np.stack([m.shell_density for m in media], axis=1)
    sl = _apply(x, _sources(gamma), xi, 0.0, derivatives)
    sl, sl_grad = (sl[:, 0], sl[:, 1:]) if derivatives else (sl, None)
    out = []
    for j, m in enumerate(media):
        b_val, b_grad, b_lap = _sum_bumps(m.rho_bumps, x)
        c_val, c_grad, c_lap = m.cutoff.fields(x)
        f = b_val + sl[:, j]
        grad = lap = None
        if derivatives:
            f_grad = b_grad + sl_grad[..., j]
            grad = c_grad * f[:, None] + c_val[:, None] * f_grad
            lap = c_lap * f + 2.0 * np.einsum("ij,ij->i", c_grad, f_grad) + c_val * b_lap
        out.append((1.0 + c_val * f, grad, lap))
    return out


def eval_density(m: MediumSpec, x, derivatives: bool = True):
    """(rho, grad rho, piecewise lap rho) at points x; rho alone also on Gamma.

    The layer contribution to the Laplacian vanishes (harmonic off Gamma);
    its value and gradient come from panel quadrature of the static kernel.
    Gradient accuracy degrades within a quarter panel diameter of Gamma
    (warned, matching the solver's near-field contract).
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if derivatives and near_surface(x, m.gamma):
        warnings.warn("density derivatives requested within a quarter panel diameter "
                      "of Gamma; near-field accuracy is reduced", stacklevel=2)
    return _density([m], x, derivatives)[0]


def eval_sound_speed(m: MediumSpec, x) -> np.ndarray:
    x = np.atleast_2d(np.asarray(x, dtype=float))
    b_val, _, _ = _sum_bumps(m.v_bumps, x)
    c_val, _, _ = m.cutoff.fields(x)
    return 1.0 + c_val * b_val


def surface_density_trace(m: MediumSpec) -> np.ndarray:
    """rho restricted to Gamma (panel centroids)."""
    rho, _, _ = eval_density(m, m.gamma.panel_centroid, derivatives=False)
    return rho


def check_medium_grid(m: MediumSpec, grid: VolumeGrid) -> None:
    """Raise MediumGridError unless the grid covers the support ball, its boundary cell centres lie outside
    that ball (where V = 0) and no cell centre lies on Gamma."""
    R, x = m.r_support, grid.cell_center
    if np.any(grid.lo > -R) or np.any(grid.hi < R):
        raise MediumGridError(f"grid {grid.lo}..{grid.hi} does not cover the support ball radius {R}")
    r = np.linalg.norm(x, axis=1)
    n_in = int(np.count_nonzero(r[grid.boundary_mask()] < R))
    if n_in:
        raise MediumGridError(f"{n_in} boundary cell centres lie inside the support ball radius {R}, which "
                              "would cut the potential off there; widen the grid")
    near = r <= m.gamma.bounding_radius + np.max(m.gamma.panel_diameter)   # a point on a panel lies in Gamma's ball
    n_on = int(np.count_nonzero(on_surface(x[near], m.gamma)))
    if n_on:
        raise MediumGridError(f"{n_on} grid cell centres lie on Gamma, where the density gradient "
                              "is undefined; shift or refine the grid")


def _schrodinger_data(media, omegas, grid: VolumeGrid) -> list[list[SchrodingerData]]:
    """(V, alpha) of each medium at each of ``omegas``, from one sampling of the media.

    The media share Gamma and the grid; the static layer blocks at the cells
    and at Gamma are made once for all of them.  Only the omega^2 (1 - 1/v^2)
    term varies; each medium's entries share one DeltaSpec.
    """
    omegas = [float(omega) for omega in omegas]
    if not all(omega > 0 for omega in omegas):
        raise ValueError("omega must be positive")
    # the grid checks of the widest support serve every medium; the Gamma scan is shared
    check_medium_grid(max(media, key=lambda m: m.r_support), grid)

    x = grid.cell_center
    # V = 0 outside the widest cutoff ball; inside, no centre is on Gamma and cells near it are one-sided, unwarned
    inside = np.linalg.norm(x, axis=1) < max(m.r_support for m in media)
    cells = _density(media, x[inside], derivatives=True)
    traces = _density(media, media[0].gamma.panel_centroid, derivatives=False)
    out = []
    for m, (rho, grad, lap), (rho_gamma, _, _) in zip(media, cells, traces):
        if np.any(rho <= 0):
            raise MediumValidityError(f"density reaches {rho.min():.3g} <= 0 on the grid")
        v = eval_sound_speed(m, x)
        if np.any(v <= 0):
            raise MediumValidityError(f"sound speed reaches {v.min():.3g} <= 0 on the grid")
        if np.any(rho_gamma <= 0):
            raise MediumValidityError("density trace on Gamma is not positive")

        V_phi = np.zeros(grid.n_cells)
        V_phi[inside] = -0.5 * lap / rho + 0.75 * np.einsum("ij,ij->i", grad, grad) / rho**2
        contrast = 1.0 - 1.0 / v**2
        delta = DeltaSpec(mesh=m.gamma, alpha=0.5 * m.shell_density / rho_gamma)
        out.append([SchrodingerData(V=PotentialSample(grid=grid, values=V_phi + omega**2 * contrast),
                                    delta=delta, omega=omega)
                    for omega in omegas])
    return out


def acoustic_to_schrodinger(m: MediumSpec, omega: float, grid: VolumeGrid) -> SchrodingerData:
    """Sample (V, alpha) of the transformed problem at frequency omega.

    V is evaluated from the density derivatives (never by differencing
    sqrt(rho) numerically); alpha_q = xi_q / (2 rho|_Gamma(q)) and carries no
    omega dependence.
    """
    return _schrodinger_data([m], [omega], grid)[0][0]


def _farfields(media, omegas, incidence: np.ndarray, obs_grid, grid: VolumeGrid) -> list[list[FarFieldPattern]]:
    """The far-field pattern of each medium at each of ``omegas``: frequencies outside, media inside.

    Media on one Gamma (equal meshes: ``SurfaceMesh`` compares and hashes by
    value) are sampled together.  At each frequency a medium with the previous
    system's sources takes its kernel, any other gets a fresh fill; one kernel
    is held at a time, and each LU is dropped after its solves.
    """
    incidence = np.atleast_2d(np.asarray(incidence, dtype=float))
    incidents = [plane_wave(d) for d in incidence]
    groups = {}                                   # Gamma -> the media on it
    for i, m in enumerate(media):
        groups.setdefault(m.gamma, []).append(i)
    data = {}
    for g in groups.values():
        data.update(zip(g, _schrodinger_data([media[i] for i in g], omegas, grid)))

    patterns = [[] for _ in media]
    for j in range(len(omegas)):
        system = None                             # a kernel serves one frequency
        for i in (i for g in groups.values() for i in g):
            d = data[i][j]
            if system is not None and system._shares_kernel(d.V, d.delta):
                system = system.reweighted(d.V, d.delta)
            else:
                system = None                     # free the previous kernel before the fill
                system = DeltaSystem(d.V, d.delta, d.omega)
            sols = system.solve_many(incidents)
            system._lu = None                     # the far field needs the solutions; the next medium the kernel
            patterns[i].append(FarFieldPattern(k=d.omega, values=farfield_source(sols, obs_grid.normals),
                                               observations=obs_grid.normals, obs_weights=obs_grid.weights,
                                               incidence=incidence, meta={"pipeline": "acoustic", "omega": d.omega}))
    return patterns


def acoustic_farfield(m: MediumSpec, omegas, incidence: np.ndarray, obs_grid,
                      grid: VolumeGrid) -> list[FarFieldPattern]:
    """End-to-end pipeline: medium -> (V, alpha) -> delta solve -> far field.

    One pattern per frequency in ``omegas``; the medium is sampled once.
    Since rho = v = 1 outside the cutoff ball, the acoustic far field equals
    the transformed-problem far field with k = omega.
    """
    return _farfields([m], omegas, incidence, obs_grid, grid)[0]
