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
outside the cutoff, acoustic and Schrodinger far fields coincide.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .boundary import DeltaSpec, DeltaSystem, layer_potential, layer_potential_gradient, near_surface, on_surface
from .farfield import FarFieldPattern, farfield_source
from .geometry import SurfaceMesh, VolumeGrid
from .kernels import plane_wave
from .volume import PotentialSample

__all__ = [
    "GaussianBump",
    "RadialCutoff",
    "MediumSpec",
    "SchrodingerData",
    "MediumValidityError",
    "eval_density",
    "eval_sound_speed",
    "check_medium_grid",
    "acoustic_to_schrodinger",
    "schrodinger_to_acoustic_field",
    "acoustic_farfield",
    "media_equal",
]


_NEAR_GAMMA_WARNING = "density derivatives requested"


class MediumValidityError(ValueError):
    """Sampled density or sound speed violates positivity."""


@dataclass(frozen=True)
class GaussianBump:
    """A exp(-|x - c|^2 / (2 sigma^2)) with analytic gradient and Laplacian."""

    amplitude: float
    center: tuple[float, float, float]
    width: float

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


@dataclass(frozen=True)
class MediumSpec:
    """Jump surface, shell density, smooth bumps and cutoff defining (rho, v)."""

    gamma: SurfaceMesh
    shell_density: np.ndarray                 # xi per panel; [d_n rho] = -xi
    rho_bumps: tuple[GaussianBump, ...] = ()
    v_bumps: tuple[GaussianBump, ...] = ()
    cutoff: RadialCutoff = RadialCutoff(2.0, 3.0)

    def __post_init__(self):
        xi = np.asarray(self.shell_density, dtype=float)
        if xi.shape == ():
            xi = np.full(self.gamma.n_panels, float(xi))
        if xi.shape != (self.gamma.n_panels,):
            raise ValueError("shell_density must provide one value per panel")
        object.__setattr__(self, "shell_density", xi)
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


def eval_density(m: MediumSpec, x, derivatives: bool = True):
    """(rho, grad rho, piecewise lap rho) at points x; rho alone also on Gamma.

    The layer contribution to the Laplacian vanishes (harmonic off Gamma);
    its value and gradient come from panel quadrature of the static kernel.
    Gradient accuracy degrades within a quarter panel diameter of Gamma
    (warned, matching the solver's near-field contract).
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    xi = m.shell_density
    sl = layer_potential(x, m.gamma, xi.astype(complex), 0.0).real
    b_val, b_grad, b_lap = _sum_bumps(m.rho_bumps, x)
    c_val, c_grad, c_lap = m.cutoff.fields(x)

    f = b_val + sl
    rho = 1.0 + c_val * f
    if not derivatives:
        return rho, None, None

    if near_surface(x, m.gamma):
        warnings.warn(_NEAR_GAMMA_WARNING + " within a quarter panel diameter "
                      "of Gamma; near-field accuracy is reduced", stacklevel=2)
    sl_grad = layer_potential_gradient(x, m.gamma, xi.astype(complex), 0.0).real
    f_grad = b_grad + sl_grad
    grad = c_grad * f[:, None] + c_val[:, None] * f_grad
    lap = c_lap * f + 2.0 * np.einsum("ij,ij->i", c_grad, f_grad) + c_val * b_lap
    return rho, grad, lap


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
    """Raise ValueError unless the grid covers the support ball and no cell centre lies on Gamma."""
    R = m.r_support
    if np.any(grid.lo > -R) or np.any(grid.hi < R):
        raise ValueError(f"grid {grid.lo}..{grid.hi} does not cover the support ball radius {R}")
    n_on = int(np.count_nonzero(on_surface(grid.cell_center, m.gamma)))
    if n_on:
        raise ValueError(f"{n_on} grid cell centres lie on Gamma, where the density gradient "
                         "is undefined; shift or refine the grid")


def _schrodinger_data(m: MediumSpec, omegas, grid: VolumeGrid) -> list[SchrodingerData]:
    """(V, alpha) at each of ``omegas`` from one sampling of the medium.

    Only the omega^2 (1 - 1/v^2) term varies; all entries share one DeltaSpec.
    """
    omegas = [float(omega) for omega in omegas]
    if not all(omega > 0 for omega in omegas):
        raise ValueError("omega must be positive")
    check_medium_grid(m, grid)

    x = grid.cell_center
    with warnings.catch_warnings():
        # near-Gamma cells take one-sided values
        warnings.filterwarnings("ignore", message=_NEAR_GAMMA_WARNING)
        rho, grad, lap = eval_density(m, x)
    if np.any(rho <= 0):
        raise MediumValidityError(f"density reaches {rho.min():.3g} <= 0 on the grid")
    v = eval_sound_speed(m, x)
    if np.any(v <= 0):
        raise MediumValidityError(f"sound speed reaches {v.min():.3g} <= 0 on the grid")

    grad2 = np.einsum("ij,ij->i", grad, grad)
    V_phi = -0.5 * lap / rho + 0.75 * grad2 / rho**2
    contrast = 1.0 - 1.0 / v**2

    rho_gamma = surface_density_trace(m)
    if np.any(rho_gamma <= 0):
        raise MediumValidityError("density trace on Gamma is not positive")
    delta = DeltaSpec(mesh=m.gamma, alpha=0.5 * m.shell_density / rho_gamma)

    return [
        SchrodingerData(V=PotentialSample(grid=grid, values=V_phi + omega**2 * contrast),
                        delta=delta, omega=omega)
        for omega in omegas
    ]


def acoustic_to_schrodinger(m: MediumSpec, omega: float, grid: VolumeGrid) -> SchrodingerData:
    """Sample (V, alpha) of the transformed problem at frequency omega.

    V is evaluated from the density derivatives (never by differencing
    sqrt(rho) numerically); alpha_q = xi_q / (2 rho|_Gamma(q)) and carries no
    omega dependence.
    """
    return _schrodinger_data(m, [omega], grid)[0]


def schrodinger_to_acoustic_field(psi, rho):
    """u = sqrt(rho) psi pointwise."""
    rho = np.asarray(rho, dtype=float)
    if np.any(rho <= 0):
        raise MediumValidityError("density must be positive")
    return np.sqrt(rho) * np.asarray(psi, dtype=complex)


def acoustic_farfield(m: MediumSpec, omegas, incidence: np.ndarray, obs_grid,
                      grid: VolumeGrid) -> list[FarFieldPattern]:
    """End-to-end pipeline: medium -> (V, alpha) -> delta solve -> far field.

    One pattern per frequency in ``omegas``; the medium is sampled once.
    Since rho = v = 1 outside the cutoff ball, the acoustic far field equals
    the transformed-problem far field with k = omega.
    """
    incidence = np.atleast_2d(np.asarray(incidence, dtype=float))
    incidents = [plane_wave(d) for d in incidence]
    patterns = []
    for data in _schrodinger_data(m, omegas, grid):
        sols = DeltaSystem(data.V, data.delta, data.omega).solve_many(incidents)
        patterns.append(FarFieldPattern(
            k=data.omega,
            values=farfield_source(sols, obs_grid.normals),
            observations=obs_grid.normals,
            obs_weights=obs_grid.weights,
            incidence=incidence,
            meta={"pipeline": "acoustic", "omega": data.omega},
        ))
    return patterns


def media_equal(a: MediumSpec, b: MediumSpec) -> bool:
    """Structural equality of two medium specifications."""
    return (
        a.gamma.n_panels == b.gamma.n_panels
        and np.array_equal(a.gamma.vertices, b.gamma.vertices)
        and np.array_equal(a.gamma.triangles, b.gamma.triangles)
        and np.array_equal(a.shell_density, b.shell_density)
        and a.rho_bumps == b.rho_bumps
        and a.v_bumps == b.v_bumps
        and a.cutoff == b.cutoff
    )
