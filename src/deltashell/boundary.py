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
* panel pairs (or evaluation points) closer than a few panel diameters are
  re-integrated on a uniformly subdivided triangle (fixed depth per
  distance bucket, fully batched);
* the collocation self-entry splits the kernel as
  1/(4 pi r) + (e^{ikr} - 1)/(4 pi r): the first term is integrated in
  closed form over the flat triangle from its centroid, the second
  (bounded) term by the base rule.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from ._dense import ExceptionalFrequencyError, GuardedLU  # noqa: F401 (re-export)
from .geometry import SurfaceMesh, triangle_rule
from .kernels import IncidentField, eval_incident, radial_gradient_factor, radial_kernel
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
    "solve_delta_system",
    "eval_total_field",
    "eval_scattered_field",
    "eval_scattered_gradient",
    "check_jump_relation",
    "static_self_integrals",
    "density_to_csv_rows",
]

MAX_PANELS = 8192
_CHUNK = 2**22

# near-field buckets: centroid distance below ratio * panel diameter
# triggers uniform subdivision to the given depth (4**depth subtriangles)
_NEAR_BUCKETS = ((0.2, 6), (0.45, 5), (0.9, 4), (1.6, 3), (2.8, 2))
_SELF_TOL = 1e-12


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


# ---------------------------------------------------------------------------
# Flat-triangle quadrature helpers
# ---------------------------------------------------------------------------

def static_self_integrals(mesh: SurfaceMesh) -> np.ndarray:
    """Closed-form int_panel dsigma(y) / (4 pi |c - y|) from each centroid c.

    The panel is split into three subtriangles at the centroid; for a
    subtriangle with apex c and opposite edge AB the radial integral reduces
    to d * (asinh(t_B/d) - asinh(t_A/d)) with d the apex-edge distance and
    t the signed coordinates of A, B along the edge from the foot point.
    """
    v0, v1, v2 = mesh.corners()
    c = mesh.panel_centroid
    total = np.zeros(mesh.n_panels)
    for a, b in ((v0, v1), (v1, v2), (v2, v0)):
        u = b - a
        length = np.linalg.norm(u, axis=1)
        u = u / length[:, None]
        t_a = np.einsum("ij,ij->i", a - c, u)
        t_b = t_a + length
        foot = a + (np.einsum("ij,ij->i", c - a, u))[:, None] * u
        d = np.linalg.norm(c - foot, axis=1)
        total += d * (np.arcsinh(t_b / d) - np.arcsinh(t_a / d))
    return total / (4.0 * np.pi)


def _subdivide(corners: np.ndarray, depth: int) -> np.ndarray:
    """Uniformly subdivide triangles (m, 3, 3) -> (m * 4**depth, 3, 3)."""
    tris = corners
    for _ in range(depth):
        a, b, c = tris[:, 0], tris[:, 1], tris[:, 2]
        ab, bc, ca = (a + b) / 2, (b + c) / 2, (c + a) / 2
        tris = np.concatenate(
            [
                np.stack([a, ab, ca], axis=1),
                np.stack([b, bc, ab], axis=1),
                np.stack([c, ca, bc], axis=1),
                np.stack([ab, bc, ca], axis=1),
            ],
            axis=0,
        )
    return tris


def _pair_integrals(points: np.ndarray, corners: np.ndarray, k: float, depth: int,
                    grad: bool) -> np.ndarray:
    """Refined integral of the kernel (or its x-gradient) per (point, panel) pair.

    points (m, 3) pairs one-to-one with corners (m, 3, 3).
    """
    m = len(points)
    out = np.zeros((m, 3) if grad else m, dtype=complex)
    n_sub = 4**depth
    chunk = max(1, _CHUNK // (n_sub * 3))
    for start in range(0, m, chunk):
        stop = min(start + chunk, m)
        p = stop - start
        a, b, c = _subdivide(corners[start:stop], depth).transpose(1, 0, 2)  # (nsub*p, 3), p fastest
        pts, w = triangle_rule(a, b, c)
        pts = pts.reshape(n_sub, p, -1, 3).transpose(1, 0, 2, 3)  # (p, nsub, g, 3)
        areas = 0.5 * np.linalg.norm(np.cross(b - a, c - a), axis=1).reshape(n_sub, p).T  # (p, nsub)
        d = points[start:stop, None, None, :] - pts
        r = np.sqrt(np.einsum("...i,...i->...", d, d))
        if grad:
            g = radial_gradient_factor(r, k)
            out[start:stop] = np.einsum("psg,psgi,g,ps->pi", g, d, w, areas + 0j)
        else:
            out[start:stop] = np.einsum("psg,g,ps->p", radial_kernel(r, k), w, areas + 0j)
    return out


def _near_pairs(x: np.ndarray, mesh: SurfaceMesh) -> list[tuple[np.ndarray, np.ndarray, int]]:
    """Near (target, panel) pairs, classified by centroid distance over panel diameter.

    One (i, q, depth) triple per non-empty class: depth 0 holds the centroid
    hits, the others the near buckets.  Pairs beyond every bucket keep the
    base rule.
    """
    dist = np.linalg.norm(x[:, None, :] - mesh.panel_centroid[None, :, :], axis=-1)
    ratio = dist / mesh.panel_diameter[None, :]
    assigned = dist < _SELF_TOL
    pairs = [(*np.nonzero(assigned), 0)] if np.any(assigned) else []
    for threshold, depth in _NEAR_BUCKETS:
        hit = (ratio < threshold) & ~assigned
        if np.any(hit):
            pairs.append((*np.nonzero(hit), depth))
            assigned |= hit
    return pairs


def _layer_matrix(points: np.ndarray, mesh: SurfaceMesh, k: float) -> np.ndarray:
    """Matrix M[i, q] ~ int_{panel q} e^{ik|x_i - y|}/(4 pi |x_i - y|) dsigma(y).

    Base rule everywhere, near buckets re-integrated on subdivided panels,
    exact centroid hits (collocation points) via the analytic static split.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n, m = len(points), mesh.n_panels
    qpts, w = mesh.quadrature_points()                        # (m, g, 3), (g,)
    areas = mesh.panel_area
    out = np.empty((n, m), dtype=complex)

    near: dict[int, list[tuple[np.ndarray, np.ndarray]]] = {}
    rows_per_chunk = max(1, _CHUNK // max(m * len(w), 1))
    for start in range(0, n, rows_per_chunk):
        stop = min(start + rows_per_chunk, n)
        x = points[start:stop]
        d = x[:, None, None, :] - qpts[None, :, :, :]
        r = np.sqrt(np.einsum("...i,...i->...", d, d))
        # a target on a quadrature point (r = 0) lies within a third of the panel
        # diameter of the centroid, inside the 0.45 bucket: its base value is
        # overwritten below, the clamp only keeps the discarded value finite
        r = np.maximum(r, 1e-290)
        out[start:stop] = np.einsum("img,g->im", radial_kernel(r, k), w) * areas[None, :]
        for ii, qq, depth in _near_pairs(x, mesh):
            near.setdefault(depth, []).append((ii + start, qq))

    corners = np.stack(mesh.corners(), axis=1)
    for depth, pairs in near.items():
        ii = np.concatenate([i for i, _ in pairs])
        qq = np.concatenate([q for _, q in pairs])
        if depth:
            out[ii, qq] = _pair_integrals(points[ii], corners[qq], k, depth, grad=False)
            continue
        static = static_self_integrals(mesh)
        # bounded remainder (e^{ikr} - 1)/(4 pi r) by the base rule
        d = points[ii][:, None, :] - qpts[qq]                 # (p, g, 3)
        r = np.sqrt(np.einsum("...i,...i->...", d, d))
        rem = radial_kernel(r, k) - radial_kernel(r, 0.0)
        out[ii, qq] = static[qq] + np.einsum("pg,g->p", rem, w) * areas[qq]
    return out


def assemble_single_layer(mesh: SurfaceMesh, k: float, max_panels: int = MAX_PANELS) -> np.ndarray:
    """Collocation single-layer matrix S[q, p] = int_{panel p} G_k(c_q, y) dsigma."""
    if mesh.n_panels > max_panels:
        raise ValueError(f"mesh has {mesh.n_panels} panels, cap is {max_panels}")
    return _layer_matrix(mesh.panel_centroid, mesh, k)


def layer_potential(points, mesh: SurfaceMesh, eta: np.ndarray, k: float) -> np.ndarray:
    """Single-layer field sum_q eta_q int_{panel q} G_k(x, y) dsigma(y)."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    eta = np.asarray(eta, dtype=complex)
    out = np.empty(len(points), dtype=complex)
    chunk = max(16, _CHUNK // max(mesh.n_panels * 4, 1))
    for start in range(0, len(points), chunk):
        stop = min(start + chunk, len(points))
        out[start:stop] = _layer_matrix(points[start:stop], mesh, k) @ eta
    return out


def layer_potential_gradient(points, mesh: SurfaceMesh, eta: np.ndarray, k: float) -> np.ndarray:
    """Analytic gradient of the single-layer field (off-surface points)."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    eta = np.asarray(eta, dtype=complex)
    n, m = len(points), mesh.n_panels
    qpts, w = mesh.quadrature_points()
    areas = mesh.panel_area
    out = np.zeros((n, 3), dtype=complex)

    coef = eta * areas
    rows_per_chunk = max(1, _CHUNK // max(m * len(w), 1))
    corners = np.stack(mesh.corners(), axis=1)

    for start in range(0, n, rows_per_chunk):
        stop = min(start + rows_per_chunk, n)
        x = points[start:stop]
        d = x[:, None, None, :] - qpts[None, :, :, :]
        r = np.sqrt(np.einsum("...i,...i->...", d, d))
        pairs = _near_pairs(x, mesh)
        if np.any(r < _SELF_TOL) or any(depth == 0 for _, _, depth in pairs):
            raise ValueError("layer gradient requested on the surface")
        g = radial_gradient_factor(r, k)
        base = np.einsum("imgk,img,g->imk", d, g, w)
        out[start:stop] = np.einsum("imk,m->ik", base, coef)

        for ii, qq, depth in pairs:
            refined = _pair_integrals(x[ii], corners[qq], k, depth, grad=True)
            # swap the base-rule pair contribution for the refined one
            coarse = np.einsum("pgk,pg,g->pk", d[ii, qq], g[ii, qq], w) * areas[qq, None]
            np.add.at(out, ii + start, (refined - coarse) * eta[qq, None])
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
    """Assembled and factorized coupled system, reusable across incident fields."""

    def __init__(
        self,
        V: PotentialSample | None,
        delta: DeltaSpec,
        k: float,
        max_panels: int = MAX_PANELS,
    ):
        if k <= 0:
            raise ValueError("k must be positive")
        self.k = float(k)
        self.delta = delta
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
            self.S = assemble_single_layer(self.mesh, k, max_panels=max_panels)
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


def solve_delta_system(
    V: PotentialSample | None,
    delta: DeltaSpec,
    inc: IncidentField,
    k: float,
) -> DeltaSolution:
    """One-shot assembly + solve; build a DeltaSystem directly to reuse the LU."""
    return DeltaSystem(V, delta, k).solve(inc)


def solve_delta_system_composition(
    V: PotentialSample | None,
    delta: DeltaSpec,
    inc: IncidentField,
    k: float,
) -> DeltaSolution:
    """Operator-composition route (cross-validation path, small sizes only).

    Realizes psi^{V,alpha} = psi^V - SL^V (1 + alpha g0 SL^V)^{-1} alpha g0 psi^V
    with SL^V applied through the volume solver, instead of one block solve.
    """
    from .volume import solve_lippmann_schwinger

    mesh = delta.mesh
    alpha = delta.alpha
    np_ = mesh.n_panels
    if V is None or len(V.support()) == 0:
        # free background: SL^V = SL^0
        S = assemble_single_layer(mesh, k)
        psi0_panels = np.asarray(eval_incident(inc, k, mesh.panel_centroid), dtype=complex)
        A = alpha[:, None] * S
        A[np.arange(np_), np.arange(np_)] += 1.0
        lu = GuardedLU(A, context="surface system (composition route)")
        eta = lu.solve(alpha * psi0_panels)
        trace = psi0_panels - S @ eta
        residual = float(np.linalg.norm(A @ eta - alpha * psi0_panels) / max(np.linalg.norm(alpha * psi0_panels), 1e-300))
        return DeltaSolution(
            density=BoundaryDensity(mesh=mesh, eta=eta), incident=inc, k=k,
            residual=residual, trace=trace, potential=V, delta=delta,
            support=np.zeros(0, dtype=int), source_density=np.zeros(0, dtype=complex),
            psi_support=np.zeros(0, dtype=complex),
        )

    grid = V.grid
    support = V.support()
    Vs = V.values[support]
    centers = grid.cell_center[support]

    base = solve_lippmann_schwinger(V, inc, k)
    psi_v = base.field.values[support]
    S = assemble_single_layer(mesh, k)
    SLvol = _layer_matrix(centers, mesh, k)
    Tr = cell_block(mesh.panel_centroid, centers, grid, k)
    G = assemble_volume_operator(grid, k, cells=support)

    lhs = G * Vs[None, :]
    lhs[np.arange(len(support)), np.arange(len(support))] += 1.0
    lu_v = GuardedLU(lhs, context="volume block (composition route)")
    U = lu_v.solve(SLvol)                       # SL^V eta on the support grid
    g0_slv = S - Tr @ (Vs[:, None] * U)         # gamma0 SL^V as a panel operator

    trace_psi_v = np.asarray(eval_incident(inc, k, mesh.panel_centroid), dtype=complex) - Tr @ (Vs * psi_v)
    A = alpha[:, None] * g0_slv
    A[np.arange(np_), np.arange(np_)] += 1.0
    lu_s = GuardedLU(A, context="trace system (composition route)")
    eta = lu_s.solve(alpha * trace_psi_v)

    psi_total = psi_v - U @ eta
    source = Vs * psi_total
    trace = trace_psi_v - g0_slv @ eta
    residual = float(np.linalg.norm(A @ eta - alpha * trace_psi_v) / max(np.linalg.norm(alpha * trace_psi_v) + 1e-300, 1e-300))
    return DeltaSolution(
        density=BoundaryDensity(mesh=mesh, eta=eta), incident=inc, k=k,
        residual=residual, trace=trace, potential=V, delta=delta,
        support=support, source_density=source, psi_support=psi_total,
    )


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
    if near_warning and sol.mesh.n_panels:
        dist = np.min(
            np.linalg.norm(pts[:, None, :] - sol.mesh.panel_centroid[None, :, :], axis=-1)
            / sol.mesh.panel_diameter[None, :],
            axis=1,
        )
        if np.any(dist < 0.25):
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


def check_jump_relation(
    mesh: SurfaceMesh,
    k: float,
    xi: np.ndarray,
    delta_factor: float = 0.1,
    fd_factor: float = 0.5,
) -> float:
    """Relative error in the normal-derivative jump [d_n SL xi] = -xi.

    Evaluates n.grad(SL xi) at c_q +/- delta n_q by central finite
    differences of the layer potential (offset delta and step are fractions
    of the local panel diameter) and returns the area-weighted relative L^2
    error of (jump + xi).
    """
    xi = np.asarray(xi, dtype=complex)
    if xi.shape == ():
        xi = np.full(mesh.n_panels, complex(xi))
    c = mesh.panel_centroid
    nrm = mesh.panel_normal
    delta = delta_factor * mesh.panel_diameter
    h = fd_factor * delta

    offsets = [delta + h, delta - h, -(delta - h), -(delta + h)]
    vals = [
        layer_potential(c + off[:, None] * nrm, mesh, xi, k)
        for off in offsets
    ]
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
