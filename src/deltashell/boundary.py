"""Delta-shell boundary solver: single-layer operator and the coupled system.

The total field for a potential V plus a surface interaction of strength
alpha on Gamma satisfies, in discretized form, the single block system

    psi_i + sum_j G_ij V_j psi_j + sum_q SLvol_iq eta_q = psi0(c_i)   (cells)
    eta_q = alpha_q * [ psi0(x_q) - sum_j Tr_qj V_j psi_j
                                  - sum_p S_qp eta_p ]                (panels)

in the unknowns (psi on grid cells, eta on panels), where eta is the
surface density alpha * trace(psi) (equal to the jump of the normal
derivative of psi across Gamma).  All blocks use the outgoing kernel.

Quadrature (one fixed panel rule, the symmetric 3-point Gauss rule of
``geometry.triangle_rule``; every kernel value comes from ``kernels``):

* off-panel entries use the 3-point rule per flat triangle;
* a (target, panel) pair closer than 2.8 panel diameters (centroid
  distance) splits the kernel as (1/r - k^2 r/2)/(4 pi) plus a bounded
  remainder: the first part and its gradient are integrated in closed form
  over the flat triangle from any target, on the panel, coplanar or off
  the plane (Wilton-Rao-Glisson 1984, Graglia 1993), the remainder
  (``kernels.radial_remainder``) by the 3-point rule on the panel's four
  midpoint subtriangles.  The collocation self-entry is the near pair
  whose target is the centroid.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from ._dense import ExceptionalFrequencyError, GuardedLU, row_chunks  # noqa: F401 (re-export)
from .geometry import SurfaceMesh, triangle_rule
from .kernels import (
    IncidentField,
    eval_incident,
    radial_gradient_factor,
    radial_kernel,
    radial_remainder,
    radial_remainder_gradient_factor,
)
from .volume import (
    PotentialSample,
    VolumeField,
    assemble_volume_operator,
    cell_block,
    volume_potential,
)

__all__ = [
    "DeltaSpec",
    "BoundaryDensity",
    "DeltaSolution",
    "DeltaSystem",
    "assemble_single_layer",
    "layer_potential",
    "layer_potential_gradient",
    "eval_total_field",
    "eval_scattered_field",
    "eval_scattered_gradient",
    "near_surface",
    "on_surface",
    "check_jump_relation",
    "static_self_integrals",
    "density_to_csv_rows",
]

MAX_PANELS = 8192

# a (target, panel) pair is near when the centroid distance is below this
# many panel diameters
_NEAR_RATIO = 2.8
# a target within this many panel diameters of a closed panel is on the surface
_SELF_TOL = 1e-12
# check_jump_relation: offset from Gamma in panel diameters, FD step in offsets
_JUMP_OFFSET, _JUMP_FD_STEP = 0.1, 0.5


# ---------------------------------------------------------------------------
# Data types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DeltaSpec:
    """Surface strength alpha sampled per panel (real, units 1/length)."""

    mesh: SurfaceMesh
    alpha: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.alpha, dtype=float)
        if a.shape == ():
            a = np.full(self.mesh.n_panels, float(a))
        if a.shape != (self.mesh.n_panels,):
            raise ValueError("alpha must provide one value per panel")
        if not np.all(np.isfinite(a)):
            raise ValueError("alpha has non-finite values")
        object.__setattr__(self, "alpha", a)

    def lp_norm(self, p: float = 4.0) -> float:
        """Discrete L^p(Gamma) norm of alpha (reported, not enforced)."""
        return float(np.sum(self.mesh.panel_area * np.abs(self.alpha) ** p) ** (1.0 / p))

    @property
    def is_zero(self) -> bool:
        return not np.any(self.alpha)


@dataclass(frozen=True)
class BoundaryDensity:
    """eta = alpha * trace(psi) per panel; the normal-derivative jump of psi."""

    mesh: SurfaceMesh
    eta: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.eta, dtype=complex)
        if e.shape != (self.mesh.n_panels,):
            raise ValueError("eta must provide one value per panel")
        if not np.all(np.isfinite(e)):
            raise ValueError("eta has non-finite values")
        object.__setattr__(self, "eta", e)


# no surface: a 0-panel mesh, so alpha is zero and the system is cells-only
_NO_SURFACE = DeltaSpec(SurfaceMesh.from_arrays(np.zeros((0, 3)), np.zeros((0, 3), dtype=int)),
                        np.zeros(0))


# ---------------------------------------------------------------------------
# Flat-triangle quadrature helpers
# ---------------------------------------------------------------------------

def _flat_triangle_moments(x: np.ndarray, corners: np.ndarray, grad: bool) -> np.ndarray:
    """Closed-form int_T r^-1 and int_T r dsigma / (4 pi), r = |x - y|, over flat triangles.

    x (p, 3) pairs one-to-one with corners (p, 3, 3); the target may lie on
    T, in its plane or off it.  Returns (p, 2), or the x-gradients (p, 2, 3).
    With h the height of x over T, Omega the solid angle of T seen from x
    (Van Oosterom-Strackee) and, for edge i, its outward in-plane normal
    m_i, the signed distance t_i of the foot point from its line and the
    edge integrals f_i = int dl / r, E_i = int r dl (Wilton-Rao-Glisson
    1984; Graglia 1993 for the gradients):

        int r^-1 = sum_i t_i f_i - |h| Omega,   grad = -sum_i f_i m_i - sign(h) Omega n,
        int r = (h^2 int r^-1 + sum_i t_i E_i)/3, grad = -sum_i E_i m_i + h (int r^-1) n.

    The gradients raise ValueError for a target on the closed panel
    (``_panel_gap`` within _SELF_TOL).
    """
    a = corners - x[:, None, :]                              # v_i - x
    R = np.linalg.norm(a, axis=2)
    e = np.roll(corners, -1, axis=1) - corners               # edge i: v_i -> v_{i+1}
    length = np.linalg.norm(e, axis=2)
    u = e / length[..., None]
    n = np.cross(e[:, 0], e[:, 1])
    n /= np.linalg.norm(n, axis=1)[:, None]
    m = np.cross(u, n[:, None, :])
    t = np.einsum("pij,pij->pi", a, m)                       # > 0 inside
    h = -np.einsum("pj,pj->p", a[:, 0], n)
    r0sq = t**2 + h[:, None] ** 2                            # squared distance to the edge line
    l_lo = np.einsum("pij,pij->pi", a, u)                    # edge coordinates of v_i, v_{i+1}
    l_hi = l_lo + length
    R_lo, R_hi = R, np.roll(R, -1, axis=1)

    # f = log((R_hi + l_hi)/(R_lo + l_lo)) = log((R_lo - l_lo)/(R_hi - l_hi)); take the
    # form whose numerator end has l > 0, and write R + l = r0^2/(R - l) for l < 0
    flip = l_hi + l_lo < 0
    num = np.where(flip, R_lo - l_lo, R_hi + l_hi)
    l_d = np.where(flip, -l_hi, l_lo)
    R_d = np.where(flip, R_hi, R_lo)
    den = R_d + l_d
    neg = l_d < 0
    den[neg] = r0sq[neg] / (R_d[neg] - l_d[neg])
    # den = 0 only for x on the closed edge, where t = r0 = 0 and t f, r0^2 f -> 0
    f = np.log(num / np.where(den > 0, den, num))
    E = 0.5 * (r0sq * f + l_hi * R_hi - l_lo * R_lo)

    triple = np.einsum("pj,pj->p", a[:, 0], np.cross(a[:, 1], a[:, 2]))
    dots = np.einsum("pij,pij->pi", a, np.roll(a, -1, axis=1))        # a_i . a_{i+1}
    omega = 2.0 * np.arctan2(triple, np.prod(R, axis=1) + np.einsum("pi,pi->p", dots, np.roll(R, 1, axis=1)))
    # omega = -sign(h) * solid angle
    inv = np.einsum("pi,pi->p", t, f) + h * omega
    if not grad:
        lin = (h**2 * inv + np.einsum("pi,pi->p", t, E)) / 3.0
        return np.stack([inv, lin], axis=1) / (4.0 * np.pi)
    if np.any(_panel_gap(x, corners) <= _SELF_TOL):
        raise ValueError("layer gradient requested on the surface")
    grad_inv = omega[:, None] * n - np.einsum("pi,pij->pj", f, m)
    grad_lin = (h * inv)[:, None] * n - np.einsum("pi,pij->pj", E, m)
    return np.stack([grad_inv, grad_lin], axis=1) / (4.0 * np.pi)


def _panel_gap(x: np.ndarray, corners: np.ndarray) -> np.ndarray:
    """Distance from x[p] to the closed flat triangle corners[p] (height or nearest edge), in its diameters."""
    e = np.roll(corners, -1, axis=1) - corners               # edge i: v_i -> v_{i+1}
    a = x[:, None, :] - corners                              # x - v_i
    e2 = np.einsum("pij,pij->pi", e, e)
    s = np.clip(np.einsum("pij,pij->pi", a, e) / e2, 0.0, 1.0)
    to_edge = np.linalg.norm(a - s[..., None] * e, axis=2).min(axis=1)
    n = np.cross(e[:, 0], e[:, 1])
    n /= np.linalg.norm(n, axis=1)[:, None]
    inside = np.all(np.einsum("pij,pj->pi", np.cross(e, a), n) >= 0, axis=1)
    dist = np.where(inside, np.abs(np.einsum("pj,pj->p", a[:, 0], n)), to_edge)
    return dist / np.sqrt(e2.max(axis=1))


def static_self_integrals(mesh: SurfaceMesh) -> np.ndarray:
    """Closed-form int_panel dsigma(y) / (4 pi |c - y|) from each centroid c."""
    return _flat_triangle_moments(mesh.panel_centroid, np.stack(mesh.corners(), axis=1), grad=False)[:, 0]


# the 3-point rule on the panel's four midpoint subtriangles, barycentric: a corner
# one is the panel halved towards its vertex, the middle one the panel halved
# and point-reflected through the centroid
_GAUSS3, _ = triangle_rule(*np.eye(3)[:, None])
_RULE_POINTS = _GAUSS3.shape[1]  # points of the panel rule
_SUB_BARY = np.concatenate([(np.eye(3)[:, None] + _GAUSS3) / 2, (1 - _GAUSS3) / 2]).reshape(-1, 3)
_SUB_W = np.full(len(_SUB_BARY), 1.0 / len(_SUB_BARY))


def _near_pair_integrals(x: np.ndarray, mesh: SurfaceMesh, ii: np.ndarray, qq: np.ndarray,
                         k: float, grad: bool) -> np.ndarray:
    """Integral of the kernel (or its x-gradient) over panel qq[j] from target x[ii[j]].

    The singular terms (1/r - k^2 r/2)/(4 pi) in closed form, the remainder
    ``kernels.radial_remainder`` by the 12-point midpoint subrule.
    """
    corners = np.stack(mesh.corners(), axis=1)
    out = np.empty((len(ii), 3) if grad else len(ii), dtype=complex)
    for sl in row_chunks(len(ii), len(_SUB_W) * 3):
        xs, cs, areas = x[ii[sl]], corners[qq[sl]], mesh.panel_area[qq[sl]]
        d = xs[:, None, :] - np.einsum("sj,pjk->psk", _SUB_BARY, cs)
        r = np.sqrt(np.einsum("psk,psk->ps", d, d))
        if grad:
            rem = np.einsum("psk,ps,s,p->pk", d, radial_remainder_gradient_factor(r, k), _SUB_W, areas)
        else:
            rem = radial_remainder(r, k) @ _SUB_W * areas
        moments = _flat_triangle_moments(xs, cs, grad)
        out[sl] = moments[:, 0] - 0.5 * k**2 * moments[:, 1] + rem
    return out


def _squared_distances(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """|x_i - y_j|^2 for x (n, 3) and y (..., 3), shape (n, ...); one coordinate at a time,
    which avoids the (n, ..., 3) difference array."""
    out = np.zeros((len(x),) + y.shape[:-1])
    for i in range(3):
        diff = np.subtract.outer(x[:, i], y[..., i])
        out += diff * diff
    return out


def _near_pairs(x: np.ndarray, mesh: SurfaceMesh) -> tuple[np.ndarray, np.ndarray]:
    """(target, panel) index pairs closer than _NEAR_RATIO panel diameters (centroid distance)."""
    return np.nonzero(_squared_distances(x, mesh.panel_centroid) < (_NEAR_RATIO * mesh.panel_diameter) ** 2)


def _surface_gap(x: np.ndarray, mesh: SurfaceMesh) -> np.ndarray:
    """Per point of x, the least ``_panel_gap`` over its near pairs (inf if none); a point
    within a quarter diameter of a panel lies within 0.92 diameters of its centroid."""
    corners = np.stack(mesh.corners(), axis=1)
    out = np.full(len(x), np.inf)
    for rows in row_chunks(len(x), mesh.n_panels):
        ii, qq = _near_pairs(x[rows], mesh)
        np.minimum.at(out[rows], ii, _panel_gap(x[rows][ii], corners[qq]))
    return out


def near_surface(x: np.ndarray, mesh: SurfaceMesh) -> bool:
    """True when a point of x lies within a quarter panel diameter of a closed panel."""
    return bool(np.any(_surface_gap(x, mesh) < 0.25))


def on_surface(x: np.ndarray, mesh: SurfaceMesh) -> np.ndarray:
    """Mask of the points of x on a closed panel, where ``layer_potential_gradient`` raises."""
    return _surface_gap(x, mesh) <= _SELF_TOL


def _panel_block(x: np.ndarray, mesh: SurfaceMesh, k: float, grad: bool = False) -> np.ndarray:
    """Panel integrals of the kernel from targets x: M[i, q] ~ int_{panel q} G_k(x_i, y) dsigma(y).

    Returns (n, m) values, or with ``grad`` the (n, m, 3) x-gradients.  Base
    rule everywhere; near pairs (collocation self entries included) take the
    closed-form static part plus the subrule remainder.  The near pairs are
    integrated first, so a gradient on the surface raises before the base
    rule runs; their base-rule distance is the placeholder 1.0, as in
    ``volume.cell_block``, since a target on a quadrature point is near.
    """
    qpts, w = mesh.quadrature_points()                        # (m, g, 3), (g,)
    ii, qq = _near_pairs(x, mesh)
    near = _near_pair_integrals(x, mesh, ii, qq, k, grad)
    if grad:
        d = x[:, None, None, :] - qpts[None, :, :, :]
        r = np.sqrt(np.einsum("...i,...i->...", d, d))
        r[ii, qq] = 1.0
        block = np.einsum("imgk,img,g->imk", d, radial_gradient_factor(r, k), w)
        block *= mesh.panel_area[None, :, None]
    else:
        r = np.sqrt(_squared_distances(x, qpts))
        r[ii, qq] = 1.0
        block = np.einsum("img,g->im", radial_kernel(r, k), w) * mesh.panel_area[None, :]
    block[ii, qq] = near
    return block


def _layer_matrix(points: np.ndarray, mesh: SurfaceMesh, k: float) -> np.ndarray:
    """The filled panel block from ``points``, in row chunks."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    out = np.empty((len(points), mesh.n_panels), dtype=complex)
    for rows in row_chunks(len(points), mesh.n_panels * _RULE_POINTS):
        out[rows] = _panel_block(points[rows], mesh, k)
    return out


def assemble_single_layer(mesh: SurfaceMesh, k: float) -> np.ndarray:
    """Collocation single-layer matrix S[q, p] = int_{panel p} G_k(c_q, y) dsigma."""
    if mesh.n_panels > MAX_PANELS:
        raise ValueError(f"mesh has {mesh.n_panels} panels, cap is {MAX_PANELS}")
    return _layer_matrix(mesh.panel_centroid, mesh, k)


def layer_potential(points, mesh: SurfaceMesh, eta: np.ndarray, k: float) -> np.ndarray:
    """Single-layer field sum_q eta_q int_{panel q} G_k(x, y) dsigma(y)."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    eta = np.asarray(eta, dtype=complex)
    out = np.empty(len(points), dtype=complex)
    for rows in row_chunks(len(points), mesh.n_panels * 4):
        out[rows] = _panel_block(points[rows], mesh, k) @ eta
    return out


def layer_potential_gradient(points, mesh: SurfaceMesh, eta: np.ndarray, k: float) -> np.ndarray:
    """Analytic gradient of the single-layer field (off-surface points).

    Raises ValueError for a point on a closed panel, within _SELF_TOL panel
    diameters.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    eta = np.asarray(eta, dtype=complex)
    out = np.empty((len(points), 3), dtype=complex)
    for rows in row_chunks(len(points), mesh.n_panels * _RULE_POINTS):
        out[rows] = np.einsum("imk,m->ik", _panel_block(points[rows], mesh, k, grad=True), eta)
    return out


# ---------------------------------------------------------------------------
# Coupled delta-shell system
# ---------------------------------------------------------------------------

@dataclass
class DeltaSolution:
    """Solution of the coupled system: surface density plus grid field."""

    density: BoundaryDensity
    incident: IncidentField
    k: float
    residual: float
    trace: np.ndarray            # trace of the total field at panel centroids
    potential: PotentialSample | None
    delta: DeltaSpec
    support: np.ndarray          # grid cells in the dense solve
    source_density: np.ndarray   # (V psi) on support cells
    psi_support: np.ndarray      # psi on support cells (dense-solve values)
    _grid_values: np.ndarray | None = field(default=None, repr=False)

    @property
    def mesh(self) -> SurfaceMesh:
        return self.delta.mesh

    @property
    def volume_field(self) -> VolumeField | None:
        """Total field on the full grid (computed on first access)."""
        if self.potential is None:
            return None
        if self._grid_values is None:
            grid = self.potential.grid
            psi0 = np.asarray(eval_incident(self.incident, self.k, grid.cell_center), dtype=complex)
            vals = psi0 - volume_potential(grid.cell_center, grid, self.source_density,
                                           self.k, cells=self.support)
            if len(self.density.eta):
                vals -= layer_potential(grid.cell_center, self.mesh, self.density.eta, self.k)
            vals[self.support] = self.psi_support  # dense-solve values are authoritative
            self._grid_values = vals
        return VolumeField(grid=self.potential.grid, values=self._grid_values)


class DeltaSystem:
    """Assembled and factorized coupled system, reusable across incident fields.

    ``V = None`` drops the cells and ``delta = None`` the surface (an empty
    mesh), so ``DeltaSystem(V, None, k)`` is the plain Lippmann-Schwinger solve.
    """

    def __init__(self, V: PotentialSample | None, delta: DeltaSpec | None, k: float):
        if k <= 0:
            raise ValueError("k must be positive")
        self.k = float(k)
        self.delta = delta = _NO_SURFACE if delta is None else delta
        self.potential = V
        self.mesh = delta.mesh

        alpha = delta.alpha
        self.surface_active = not delta.is_zero
        self.support = V.support() if V is not None else np.zeros(0, dtype=int)
        ns, np_ = len(self.support), self.mesh.n_panels

        if V is not None and ns:
            self.G = assemble_volume_operator(V.grid, k, cells=self.support)
            self.Vs = V.values[self.support]
            self.centers = V.grid.cell_center[self.support]
        else:
            self.G = np.zeros((0, 0), dtype=complex)
            self.Vs = np.zeros(0)
            self.centers = np.zeros((0, 3))

        if self.surface_active:
            self.S = assemble_single_layer(self.mesh, k)
            SLvol = _layer_matrix(self.centers, self.mesh, k)
        else:
            # alpha == 0: the panel rows decouple (eta = 0); solve cells only
            self.S = None
        # Tr after the layer blocks, whose chunked temporaries set the peak memory
        self.Tr = (cell_block(self.mesh.panel_centroid, self.centers, V.grid, k) if ns
                   else np.zeros((np_, 0), dtype=complex))
        A = self.G * self.Vs[None, :]
        if self.surface_active:
            A = np.block([[A, SLvol],
                          [alpha[:, None] * (self.Tr * self.Vs[None, :]), alpha[:, None] * self.S]])
        A[np.diag_indices_from(A)] += 1.0

        self._A = A
        self._lu = GuardedLU(A, context="delta-shell system") if len(A) else None

    def solve(self, inc: IncidentField) -> DeltaSolution:
        return self.solve_many([inc])[0]

    def solve_many(self, incidents) -> list[DeltaSolution]:
        """Solutions for several incident fields from one back-substitution.

        The incident fields form the columns of one right-hand-side matrix;
        residuals, source densities and panel traces are computed for all
        columns at once.
        """
        incidents = list(incidents)
        ns, np_ = len(self.support), self.mesh.n_panels
        points = np.concatenate([self.centers, self.mesh.panel_centroid])
        psi0 = np.stack([np.asarray(eval_incident(inc, self.k, points), dtype=complex)
                         for inc in incidents], axis=1)                # (ns + np, n_rhs)

        if self.surface_active:
            rhs = psi0.copy()
            rhs[ns:] *= self.delta.alpha[:, None]
        else:
            rhs = psi0[:ns]
        x = self._lu.solve(rhs) if len(rhs) else rhs
        residual = (np.linalg.norm(self._A @ x - rhs, axis=0)
                    / np.maximum(np.linalg.norm(rhs, axis=0), 1e-300))
        psi_s = x[:ns]
        eta = x[ns:] if self.surface_active else np.zeros((np_, len(incidents)), dtype=complex)

        source = self.Vs[:, None] * psi_s
        trace = psi0[ns:] - self.Tr @ source
        if self.surface_active:
            trace = trace - self.S @ eta

        # one contiguous row per solution
        psi_s, source, eta, trace = (np.ascontiguousarray(a.T) for a in (psi_s, source, eta, trace))
        return [
            DeltaSolution(
                density=BoundaryDensity(mesh=self.mesh, eta=eta[j]), incident=inc, k=self.k,
                residual=float(residual[j]), trace=trace[j], potential=self.potential,
                delta=self.delta, support=self.support, source_density=source[j],
                psi_support=psi_s[j],
            )
            for j, inc in enumerate(incidents)
        ]


# ---------------------------------------------------------------------------
# Field evaluation
# ---------------------------------------------------------------------------

def eval_scattered_field(sol: DeltaSolution, x) -> np.ndarray | complex:
    """Scattered part: -G (V psi) - SL eta evaluated at x."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    pts = np.atleast_2d(x)
    vals = np.zeros(len(pts), dtype=complex)
    if len(sol.support):
        vals -= volume_potential(pts, sol.potential.grid, sol.source_density, sol.k, cells=sol.support)
    if np.any(sol.density.eta):
        vals -= layer_potential(pts, sol.mesh, sol.density.eta, sol.k)
    return vals[0] if single else vals


def eval_total_field(sol: DeltaSolution, x, near_warning: bool = True) -> np.ndarray | complex:
    """Total field psi0 + scattered at x; warns near the surface."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    pts = np.atleast_2d(x)
    if near_warning and near_surface(pts, sol.mesh):
        warnings.warn("evaluation point within a quarter panel diameter of Gamma; "
                      "near-field accuracy is reduced", stacklevel=2)
    psi0 = np.asarray(eval_incident(sol.incident, sol.k, pts), dtype=complex)
    vals = psi0 + eval_scattered_field(sol, pts)
    return vals[0] if single else vals


def eval_scattered_gradient(sol: DeltaSolution, x) -> np.ndarray:
    """Analytic gradient of the scattered field at off-surface points."""
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    out = np.zeros((len(pts), 3), dtype=complex)
    if len(sol.support):
        grid = sol.potential.grid
        d, factor = cell_block(pts, grid.cell_center[sol.support], grid, sol.k, grad=True)
        out -= np.einsum("ijk,ij,j->ik", d, factor, sol.source_density)
    if np.any(sol.density.eta):
        out -= layer_potential_gradient(pts, sol.mesh, sol.density.eta, sol.k)
    return out


def check_jump_relation(mesh: SurfaceMesh, k: float, xi: np.ndarray) -> float:
    """Relative error in the normal-derivative jump [d_n SL xi] = -xi.

    Evaluates n.grad(SL xi) at c_q +/- delta n_q by central finite
    differences of the layer potential (offset delta = _JUMP_OFFSET panel
    diameters, step _JUMP_FD_STEP delta) and returns the area-weighted
    relative L^2 error of (jump + xi).
    """
    xi = np.asarray(xi, dtype=complex)
    if xi.shape == ():
        xi = np.full(mesh.n_panels, complex(xi))
    c = mesh.panel_centroid
    nrm = mesh.panel_normal
    delta = _JUMP_OFFSET * mesh.panel_diameter
    h = _JUMP_FD_STEP * delta

    vals = [layer_potential(c + off[:, None] * nrm, mesh, xi, k)
            for off in (delta + h, delta - h, -(delta - h), -(delta + h))]
    dn_out = (vals[0] - vals[1]) / (2.0 * h)
    dn_in = (vals[2] - vals[3]) / (2.0 * h)
    jump = dn_out - dn_in

    w = mesh.panel_area
    err = np.sqrt(np.sum(w * np.abs(jump + xi) ** 2) / np.sum(w * np.abs(xi) ** 2))
    return float(err)


def density_to_csv_rows(sol: DeltaSolution):
    """Yield (panel id, cx, cy, cz, Re eta, Im eta, alpha) rows."""
    for q, (c, e, a) in enumerate(zip(sol.mesh.panel_centroid, sol.density.eta, sol.delta.alpha)):
        yield q, c[0], c[1], c[2], e.real, e.imag, a
