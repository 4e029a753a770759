"""Delta-shell boundary solver: single-layer operator and the coupled system.

A potential V plus a surface interaction of strength alpha on Gamma is the
singular potential V~ = V + alpha delta_Gamma.  Its discrete form is one
Lippmann-Schwinger equation over the collocation points x_i (the support
cell centres, then the panel centroids, Sigma's first):

    psi_i + sum_j K_ij w_j psi_j = psi0(x_i),

where K_ij integrates the outgoing kernel over cell or panel j from x_i and
w = (V on the cells, alpha on the panels) is the discrete V~.  The sources are
the support of V~: the cells where V != 0 and Sigma, the panels where alpha != 0;
the other panels' rows give the rest of the trace psi|_Gamma.  eta = alpha psi|_Gamma
is the surface density (the jump of the normal derivative of psi across Gamma).

One source table (``_Sources``), made by one constructor, lists the sources of a pass, the cells
then the panels, each with its point c, its near radius and its far rule's coefficients: its
measure A (the cell volume or the panel area) and the rank-2 factor P of its second moment
M = P^T P about c (0 for a cell).  One row function reads it to give
K(x, .), or its jet (the value, then the x-gradient, from one pass); a fill writes the
rows of K (S is the fill at the centroids with no cells), and an apply forms
sum_j K(x, j) q_j: the layer potential (q = eta) and the scattered field -K (w psi), the
outgoing resolvent applied to the source V~ psi.  The far field reads the same table.

Quadrature (one distance pass over the table's points; every phase from ``kernels._cis``,
real and imaginary parts summed apart):

* a source beyond its near radius is a monopole of A plus a quadrupole of M at c, the
  Taylor rule A G_k(x, c) + M : grad grad G_k(x, c) / 2: for a cell the midpoint rule,
  for a panel, with M = int_T (y - c)(y - c)^T dsigma, exact for integrands quadratic on
  the panel, as the 3-point Gauss rule is, with one kernel evaluation per pair, which reads M = P^T P
  by the panel's rank-2 factor P: d.M d = |P d|^2, M d = P^T (P d), and P d = P x - P c from one
  contraction.  The rule is itself an exact radiating field, whose far field e^{-ik x.c} (A - k^2 |P x|^2 / 2)
  ``farfield.farfield_source`` sums for every source from the same coefficients.  At k = 0 every block is float64;
* a target within half a spacing of a cell centre takes the equal-volume
  ball's value (``volume.ball_self_term``) and a zero gradient;
* a target within 2.8 diameters of a panel centroid splits the kernel as
  (1/r - k^2 r/2)/(4 pi) plus a bounded remainder: the first part and its gradient are
  integrated in closed form over the flat triangle from any target, on the panel,
  coplanar or off the plane (Wilton-Rao-Glisson 1984, Graglia 1993), the remainder
  (``kernels.radial_remainder``) by the 3-point rule on the panel's four midpoint
  subtriangles, in real parts; at k = 0 the remainder is 0 and is skipped.  The
  collocation self-entry is the near pair whose target is the centroid.
"""

from __future__ import annotations

import copy
import logging
import time
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._dense import ExceptionalFrequencyError, GuardedLU, empty_mapped, map_chunks, matmul, row_chunks  # noqa: F401 (re-export)
from .geometry import _SUB_BARY, SurfaceMesh, VolumeGrid, _equal, _freeze
from .kernels import IncidentField, _cis, _remainder_parts, eval_incident
from .volume import PotentialSample, VolumeField, ball_self_term

__all__ = [
    "DeltaSpec",
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
]

MAX_PANELS = 8192
MAX_GRID_CELLS = 32**3

# a (target, panel) pair is near when the centroid distance is below this
# many panel diameters
_NEAR_RATIO = 2.8
# a target within this many panel diameters of a closed panel is on the surface
_SELF_TOL = 1e-12
# check_jump_relation: offset from Gamma in panel diameters
_JUMP_OFFSET = 0.1
# mixed-precision solve (as LAPACK's zcgesv): I + K diag(w) is factored in complex64
# unless its rcond is below _SINGLE_RCOND_FLOOR, where kappa * u_32 (u_32 = 6e-8) is no
# longer << 1 and refinement need not converge; refinement stops at a largest residual of
# _REFINE_TOL, when the residual stops halving, or after _REFINE_STEPS steps, and a
# result above _REFINE_ACCEPT is solved again with a complex128 LU
_SINGLE_RCOND_FLOOR = 1e-4
_REFINE_TOL, _REFINE_ACCEPT, _REFINE_STEPS = 1e-15, 1e-13, 10

_log = logging.getLogger("deltashell")
_KERNEL_LOG = "delta-shell kernel: %s, %d x %d, k = %g, %.3f s"   # filled or reused, rows x columns, k, seconds


# ---------------------------------------------------------------------------
# Data types
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class DeltaSpec:
    """Surface strength alpha sampled per panel (real, units 1/length); a read-only copy,
    so Sigma, the panels where alpha != 0, is fixed with it."""

    mesh: SurfaceMesh
    alpha: np.ndarray
    __eq__ = _equal

    def __post_init__(self):
        object.__setattr__(self, "alpha", _freeze(np.array(self.mesh.per_panel(self.alpha, "alpha"))))

    def lp_norm(self, p: float = 4.0) -> float:
        """Discrete L^p(Gamma) norm of alpha (reported, not enforced)."""
        return float(np.sum(self.mesh.panel_area * np.abs(self.alpha) ** p) ** (1.0 / p))

    def support(self) -> np.ndarray:
        """The panels of Sigma, where alpha != 0."""
        return np.flatnonzero(self.alpha)

    @cached_property
    def sigma(self) -> SurfaceMesh:
        """Sigma as a mesh of Gamma's vertices: ``mesh`` itself when alpha is nowhere 0."""
        on, m = self.support(), self.mesh
        return m if len(on) == m.n_panels else SurfaceMesh.from_arrays(m.vertices, m.triangles[on])


# no surface: a 0-panel mesh, so the system is cells-only
_NO_SURFACE = DeltaSpec(SurfaceMesh.from_arrays(np.zeros((0, 3)), np.zeros((0, 3), dtype=int)),
                        np.zeros(0))


@dataclass(frozen=True, eq=False)
class _Sources:
    """The sources of a kernel pass, one row each, the cells then the panels: the point c (cell centre or
    panel centroid), the radius within which a target takes the near rule (half a spacing, or _NEAR_RATIO
    panel diameters), and the far rule's coefficients, read by the kernel rows and the far field alike.
    With A the measure (cell volume or panel area) and M = P^T P the second moment about c (0 for a cell),
    they are P/sqrt(4 pi) as the maps (p_a, -p_a.c) of (x, 1) to p_a.(x - c), A/(4 pi) and tr M/(8 pi).
    ``grid`` holds the cells (None if none), ``mesh`` the panels."""

    point: np.ndarray     # (m, 3)
    near: np.ndarray      # (m,)
    factor: np.ndarray    # (2, 4, m)
    weight: np.ndarray    # (2, m): A/(4 pi), tr M/(8 pi)
    grid: VolumeGrid | None
    mesh: SurfaceMesh


def _sources(mesh: SurfaceMesh = _NO_SURFACE.mesh, grid: VolumeGrid | None = None,
             cells: np.ndarray | None = None) -> _Sources:
    """The source table of the cells of ``grid`` numbered ``cells`` (all by default), then the panels of ``mesh``."""
    centers = np.zeros((0, 3)) if grid is None else grid.cell_center[slice(None) if cells is None else cells]
    nc = len(centers)
    vol, half = (grid.cell_volume, 0.5 * float(np.min(grid.spacing))) if nc else (0.0, 0.0)
    point, measure = np.concatenate([centers, mesh.panel_centroid]), np.concatenate([np.full(nc, vol), mesh.panel_area])
    p = np.concatenate([np.zeros((nc, 2, 3)), mesh.panel_factor]).transpose(1, 2, 0) / np.sqrt(4.0 * np.pi)   # (2, 3, m)
    return _Sources(point=_freeze(point), near=_freeze(np.concatenate([np.full(nc, half), _NEAR_RATIO * mesh.panel_diameter])),
                    factor=_freeze(np.concatenate([p, -np.einsum("akm,mk->am", p, point)[:, None]], axis=1)),
                    weight=_freeze(np.stack([measure / (4.0 * np.pi), 0.5 * np.einsum("akm,akm->m", p, p)])),
                    grid=grid if nc else None, mesh=mesh)


def _support_sources(V: PotentialSample | None, support: np.ndarray, delta: DeltaSpec) -> _Sources:
    """The source table of V~ = V + alpha delta_Gamma, its support: the cells where V != 0, then Sigma."""
    return _sources(delta.sigma, None if V is None else V.grid, support)


# ---------------------------------------------------------------------------
# Flat-triangle quadrature helpers
# ---------------------------------------------------------------------------

def _flat_triangle_moments(x: np.ndarray, mesh: SurfaceMesh, qq: np.ndarray, grad: bool) -> np.ndarray:
    """Closed-form int_T r^-1 and int_T r dsigma / (4 pi), r = |x - y|, over flat triangles.

    x (p, 3) pairs one-to-one with the panels qq (p,) of ``mesh``; the target may lie on
    T, in its plane or off it.  Returns (p, 2), or with ``grad`` the (p, 2, 4) jets: each, then its x-gradient.
    With h the height of x over T, Omega the solid angle of T seen from x
    (Van Oosterom-Strackee) and, for edge i, its outward in-plane normal
    m_i, the signed distance t_i of the foot point from its line and the
    edge integrals f_i = int dl / r, E_i = int r dl (Wilton-Rao-Glisson
    1984; Graglia 1993 for the gradients):

        int r^-1 = sum_i t_i f_i - |h| Omega,   grad = -sum_i f_i m_i - sign(h) Omega n,
        int r = (h^2 int r^-1 + sum_i t_i E_i)/3, grad = -sum_i E_i m_i + h (int r^-1) n.

    The edge frames are the panel's own (``SurfaceMesh``).  With ``grad`` it raises ValueError, before
    the edge integrals, for a target on the closed panel (``_gap`` within _SELF_TOL).
    """
    a, t, h, l_lo, l_hi = _edge_frame(x, mesh, qq)
    if grad and np.any(_gap(t, h, l_lo, l_hi, mesh.panel_diameter[qq]) <= _SELF_TOL):
        raise ValueError("layer gradient requested on the surface")
    R = np.linalg.norm(a, axis=2)
    r0sq = t**2 + h[:, None] ** 2                            # squared distance to the edge line
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

    dots = np.einsum("pij,pij->pi", a, np.roll(a, -1, axis=1))        # a_i . a_{i+1}
    triple = -2.0 * mesh.panel_area[qq] * h                           # a_0 . (a_1 x a_2); omega = -sign(h) * solid angle
    omega = 2.0 * np.arctan2(triple, np.prod(R, axis=1) + np.einsum("pi,pi->p", dots, np.roll(R, 1, axis=1)))
    inv = np.einsum("pi,pi->p", t, f) + h * omega
    lin = (h**2 * inv + np.einsum("pi,pi->p", t, E)) / 3.0
    if not grad:
        return np.stack([inv, lin], axis=1) / (4.0 * np.pi)
    m, n = mesh.panel_edge_normal[qq], mesh.panel_normal[qq]
    grad_inv = omega[:, None] * n - np.einsum("pi,pij->pj", f, m)
    grad_lin = (h * inv)[:, None] * n - np.einsum("pi,pij->pj", E, m)
    return np.stack([np.column_stack([inv, grad_inv]), np.column_stack([lin, grad_lin])], axis=1) / (4.0 * np.pi)


def _edge_frame(x: np.ndarray, mesh: SurfaceMesh, qq: np.ndarray) -> tuple[np.ndarray, ...]:
    """Per target x[p] and panel qq[p]: a_i = v_i - x, the signed distance t_i of x's foot point from edge i's
    line (> 0 inside), x's height h over the panel, and the coordinates l_lo, l_hi of v_i, v_{i+1} on that line."""
    a = mesh.panel_corners[qq] - x[:, None, :]
    l_lo = np.einsum("pij,pij->pi", a, mesh.panel_edge[qq])
    return (a, np.einsum("pij,pij->pi", a, mesh.panel_edge_normal[qq]),
            -np.einsum("pj,pj->p", a[:, 0], mesh.panel_normal[qq]), l_lo, l_lo + mesh.panel_edge_length[qq])


def _gap(t: np.ndarray, h: np.ndarray, l_lo: np.ndarray, l_hi: np.ndarray, diameter: np.ndarray) -> np.ndarray:
    """Distance from x to the closed flat triangle (``_edge_frame``), in its diameters: |h| over the
    triangle (every t_i >= 0), else the distance to the nearest edge."""
    beyond = np.maximum(l_lo, 0.0) + np.maximum(-l_hi, 0.0)   # along the edge line, past an end
    to_edge = np.sqrt(t**2 + h[:, None] ** 2 + beyond**2).min(axis=1)
    return np.where(np.all(t >= 0, axis=1), np.abs(h), to_edge) / diameter


def _kernel_dtype(k: float):
    """The dtype of the kernel's blocks: float64 at k = 0, complex128 at k > 0."""
    return float if k == 0 else complex


def _near_pair_integrals(x: np.ndarray, mesh: SurfaceMesh, ii: np.ndarray, qq: np.ndarray,
                         k: float, grad: bool) -> np.ndarray:
    """Integral of the kernel over panel qq[j] from target x[ii[j]], or with ``grad`` its jet (value, x-gradient).

    The singular terms (1/r - k^2 r/2)/(4 pi) in closed form, the remainder
    ``kernels.radial_remainder`` in real parts by the 12-point, equal-weight midpoint
    subrule (``SurfaceMesh.panel_subrule_points``).  At k = 0 the kernel is 1/(4 pi r)
    and the remainder is 0: float64 1/r moments.
    """
    out = np.empty((len(ii), 4) if grad else len(ii), dtype=_kernel_dtype(k))
    for sl in row_chunks(len(ii), len(_SUB_BARY) * 3):
        xs, qs, areas = x[ii[sl]], qq[sl], mesh.panel_area[qq[sl]]
        moments = _flat_triangle_moments(xs, mesh, qs, grad)
        if k == 0:
            out[sl] = moments[:, 0]
            continue
        d = xs[:, None, :] - mesh.panel_subrule_points[qs]
        r = np.sqrt(np.einsum("psk,psk->ps", d, d))
        value, gradient = _remainder_parts(r, k, grad)
        re, im = [np.einsum("ps,p->p", part, areas) for part in value]
        if grad:
            re, im = [np.column_stack([v, np.einsum("psk,ps,p->pk", d, part, areas)])
                      for v, part in zip((re, im), gradient)]
        out[sl].real = moments[:, 0] - 0.5 * k**2 * moments[:, 1] + re / len(_SUB_BARY)
        out[sl].imag = im / len(_SUB_BARY)
    return out


def _near_pairs(x: np.ndarray, src: _Sources) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (target, source) index pairs closer than the source's ``near`` radius (centre or centroid
    distance), and every |x - c|^2 (n, m), summed one axis at a time, each offset squared in place."""
    r2 = np.square(np.subtract.outer(x[:, 0], src.point[:, 0]))
    for i in (1, 2):
        d = np.subtract.outer(x[:, i], src.point[:, i])
        r2 += np.multiply(d, d, out=d)
    return *np.nonzero(r2 < src.near ** 2), r2


def _surface_gap(x: np.ndarray, mesh: SurfaceMesh) -> np.ndarray:
    """Per point of x, the least ``_gap`` over its near pairs (inf if none); a point
    within a quarter diameter of a panel lies within 0.92 diameters of its centroid."""
    out, src = np.full(len(x), np.inf), _sources(mesh)
    for rows in row_chunks(len(x), mesh.n_panels):
        ii, qq, _ = _near_pairs(x[rows], src)
        np.minimum.at(out[rows], ii, _gap(*_edge_frame(x[rows][ii], mesh, qq)[1:], mesh.panel_diameter[qq]))
    return out


def near_surface(x: np.ndarray, mesh: SurfaceMesh) -> bool:
    """True when a point of x lies within a quarter panel diameter of a closed panel."""
    return bool(np.any(_surface_gap(x, mesh) < 0.25))


def on_surface(x: np.ndarray, mesh: SurfaceMesh) -> np.ndarray:
    """Mask of the points of x on a closed panel, where ``layer_potential_gradient`` raises."""
    return _surface_gap(x, mesh) <= _SELF_TOL


def _kernel_rows(x: np.ndarray, src: _Sources, k: float, grad: bool = False, out: np.ndarray | None = None) -> np.ndarray:
    """K(x, .) over the sources of ``src``: its cells, then its panels.

    Returns (n, m) values, or with ``grad`` the (n, m, 4) jets (the value, then the x-gradient), in
    ``out`` if given; float64 at k = 0.  One distance pass (``_near_pairs``) over the cell centres and
    the panel centroids c finds the pairs within a source's ``near`` radius, whose entries are made first, so a
    gradient on the surface raises before any other work: at a cell the equal-volume ball
    (``volume.ball_self_term``) with a zero gradient, at a panel ``_near_pair_integrals``.  Their
    distance is then the placeholder 1.0.  Every other pair takes one far rule,
    A G_k(x, c) + M : grad grad G_k(x, c) / 2 with the source's measure A and moment M = P^T P
    (``weight``, ``factor``); with d = x - c, u = 1/r, q = d.M d = |P d|^2, T = tr M:

        e^{ikr}/(4 pi) (P + iQ),  P = A u - T u^3/2 + q (3u^5 - k^2 u^3)/2,  Q = k T u^2/2 - 3k q u^4/2,

    whose gradient e^{ikr}/(4 pi) (ik u (P + iQ) d + grad P + i grad Q) is a multiple of d plus one of M d = P^T P d.
    """
    nc = len(src.point) - src.mesh.n_panels
    ii, jj, r = _near_pairs(x, src)
    on_panel = jj >= nc
    near = _near_pair_integrals(x, src.mesh, ii[on_panel], jj[on_panel] - nc, k, grad)
    r[ii, jj] = 1.0
    s = np.einsum("ik,akj->aij", np.column_stack([x, np.ones(len(x))]), src.factor)   # p_a.d / sqrt(4 pi)
    q = np.add(*np.square(s, out=None if grad else s))            # q / (4 pi)
    s = s if grad else None                                        # a value row keeps no offset arrays
    u = np.reciprocal(np.sqrt(r, out=r))                           # r is |d| from here
    u2 = np.square(u)
    q *= u2                                                        # q u^2
    area, trace = src.weight
    w = trace - 1.5 * q                                            # T/2 - 3 q u^2/2
    # [re, im] of P + iQ and, with grad, of the factors of d and of M d in the gradient; [re] at k = 0
    parts = [[u * (area - u2 * w - 0.5 * k**2 * q)] + ([k * u2 * w] if k else [])]
    if grad:
        u3, ku = u2 * u, k * u
        a = u3 * (3.0 * u2 * (w - q) - area + 1.5 * k**2 * q)
        parts += [[a], [u3 * (3.0 * u2 - k**2)]]
        if k:
            parts[1] = [a - ku * parts[0][1], -2.0 * k * u2 * u2 * (w - 1.5 * q) + ku * parts[0][0]]
            parts[2].append(-3.0 * k * u2 * u2)
    del u, u2, w, q                                                # freed before the block and the phases
    if out is None:
        out = np.empty(r.shape + ((4,) if grad else ()), dtype=_kernel_dtype(k))
    channels = [(ch.real, ch.imag) if k else (ch,) for ch in (np.moveaxis(out, -1, 0) if grad else [out])]
    if k:
        # times e^{ikr}: the value straight into its channel, the gradient's factors into new arrays
        cs, sn = _cis(np.multiply(r, k, out=r))
        for j, ((re, im), (o_re, o_im)) in enumerate(zip(parts, channels[:1] + [(None, None)] * 2)):
            sn_im, sn_re = np.multiply(sn, im, out=o_re), np.multiply(sn, re, out=o_im)
            parts[j] = (np.subtract(np.multiply(cs, re, out=re), sn_im, out=sn_im),
                        np.add(sn_re, np.multiply(cs, im, out=im), out=sn_re))
    else:
        channels[0][0][...] = parts[0][0]
    for i, channel in enumerate(channels[1:]):
        md = s[0] * src.factor[0, i] + s[1] * src.factor[1, i]    # (M d)_i / (4 pi)
        d = np.subtract.outer(x[:, i], src.point[:, i])
        for along_d, along_md, o in zip(parts[1], parts[2], channel):
            np.add(along_d * d, along_md * md, out=o)
    out[ii[on_panel], jj[on_panel]] = near
    ball = ball_self_term(k, 0.0 if src.grid is None else src.grid.cell_volume)
    out[ii[~on_panel], jj[~on_panel]] = [ball, 0.0, 0.0, 0.0] if grad else ball
    return out


def _source_chunks(n: int, src: _Sources, grad: bool = False) -> list[slice]:
    """Row chunks for n targets: a row costs 2 entries per source, cell or panel, ten with ``grad``:
    at k = 2 a row's temporaries and block peak at 8.0 floats per source, a jet row's at 27.0
    (tracemalloc, 24 rows), so a chunk holds 4.0 or 2.7 floats per charged entry."""
    return row_chunks(n, 2 * len(src.point) * (5 if grad else 1))


def _fill(points: np.ndarray, src: _Sources, k: float) -> np.ndarray:
    """The rows K(x, .) for every x in ``points``, filled in row chunks."""
    if src.grid is not None and src.grid.n_cells > MAX_GRID_CELLS:
        raise ValueError(f"grid has {src.grid.n_cells} cells, cap is {MAX_GRID_CELLS}")
    if src.mesh.n_panels > MAX_PANELS:
        raise ValueError(f"mesh has {src.mesh.n_panels} panels, cap is {MAX_PANELS}")
    out = np.empty((len(points), len(src.point)), dtype=_kernel_dtype(k))
    map_chunks(lambda rows: _kernel_rows(points[rows], src, k, out=out[rows]), _source_chunks(len(points), src))
    return out


def _apply(x: np.ndarray, src: _Sources, q: np.ndarray, k: float, grad: bool = False) -> np.ndarray:
    """sum_j K(x, j) q_j over the sources of ``src``, or with ``grad`` its (n, 4) jet (the value, then
    the x-gradient); real when k = 0 and q is real.

    A 2-D q (m, c) gives (n, c), or (n, 4, c): each kernel row chunk is made once and
    applied column by column, so every column is bitwise its 1-D product.
    """
    cols = np.ascontiguousarray(q.T if q.ndim == 2 else q[None])
    out = np.empty((len(x),) + ((4,) if grad else ()) + cols.shape[:1], dtype=np.result_type(_kernel_dtype(k), q))

    def fill(rows):
        block = _kernel_rows(x[rows], src, k, grad)
        for j, c in enumerate(cols):
            out[rows, ..., j] = np.einsum("im...,m->i...", block, c)

    map_chunks(fill, _source_chunks(len(x), src, grad))
    return out if q.ndim == 2 else out[..., 0]


def assemble_single_layer(mesh: SurfaceMesh, k: float) -> np.ndarray:
    """Collocation single-layer matrix S[q, p] = int_{panel p} G_k(c_q, y) dsigma."""
    return _fill(mesh.panel_centroid, _sources(mesh), k)


def layer_potential(points, mesh: SurfaceMesh, eta: np.ndarray, k: float) -> np.ndarray:
    """Single-layer field sum_q eta_q int_{panel q} G_k(x, y) dsigma(y).

    Complex, except for a real eta at k = 0 (the static layer), where the
    field is float64 and summed in real arithmetic.
    """
    return _apply(np.atleast_2d(np.asarray(points, dtype=float)), _sources(mesh), np.asarray(eta), k)


def layer_potential_gradient(points, mesh: SurfaceMesh, eta: np.ndarray, k: float) -> np.ndarray:
    """Analytic gradient of the single-layer field (off-surface points); dtype as ``layer_potential``.

    Raises ValueError for a point on a closed panel, within _SELF_TOL panel
    diameters.
    """
    return _apply(np.atleast_2d(np.asarray(points, dtype=float)), _sources(mesh), np.asarray(eta), k, grad=True)[:, 1:]


# ---------------------------------------------------------------------------
# Coupled delta-shell system
# ---------------------------------------------------------------------------

@dataclass
class DeltaSolution:
    """Solution of the coupled system: surface density plus grid field."""

    eta: np.ndarray              # alpha * trace per panel: the normal-derivative jump of psi
    incident: IncidentField
    k: float
    residual: float
    trace: np.ndarray            # trace of the total field at panel centroids
    potential: PotentialSample | None
    delta: DeltaSpec
    support: np.ndarray          # grid cells in the dense solve
    source_density: np.ndarray   # (V psi) on support cells
    psi_support: np.ndarray      # psi on support cells (dense-solve values)

    @property
    def mesh(self) -> SurfaceMesh:
        return self.delta.mesh

    @property
    def volume_field(self) -> VolumeField | None:
        """Total field on the full grid (evaluated on each access)."""
        if self.potential is None:
            return None
        grid = self.potential.grid
        return VolumeField(grid=grid, values=self._cell_values(np.arange(grid.n_cells)))

    def _cell_values(self, cells: np.ndarray) -> np.ndarray:
        """psi at grid cells: the total field, with the dense-solve values on the support."""
        out = np.empty(len(cells), dtype=complex)
        on = np.isin(cells, self.support)
        out[on] = self.psi_support[np.searchsorted(self.support, cells[on])]
        out[~on] = eval_total_field(self, self.potential.grid.cell_center[cells[~on]], near_warning=False)
        return out


def _system_matrix(kernel: np.ndarray, weights: np.ndarray, dtype) -> tuple[np.ndarray, float]:
    """I + K diag(w) in ``dtype``, in K's row (C) order and in pages of its own (``empty_mapped``), which
    GuardedLU factors in place as its transpose, and its 1-norm.

    Written row chunk by row chunk from ``kernel``, each product cast to ``dtype`` as it is stored,
    so no other n x n array is made; each chunk sums its columns' moduli in float64, and those partial
    sums are added in chunk order, so the 1-norm takes no second pass over A.
    """
    n = len(weights)
    A, K = empty_mapped((n, n), dtype), kernel[:n, :n]
    chunks = row_chunks(n, n)
    column_sums = np.empty((len(chunks), n))

    def fill(rows):
        np.multiply(K[rows], weights, out=A[rows], casting="same_kind")
        i = np.arange(n)[rows]
        A[i, i] += 1.0
        np.sum(np.abs(A[rows]), axis=0, dtype=float, out=column_sums[rows.start // chunks[0].stop])

    map_chunks(fill, chunks)
    return A, float(column_sums.sum(axis=0).max(initial=0.0))


class DeltaSystem:
    """The factorized system (I + K diag(w)) x = psi0, reusable across incident fields.

    ``kernel`` is K, one column per source (the support of V, then Sigma, the
    support of alpha) and one row per point of ``points``: the sources, then
    the rest of Gamma.  ``weights`` is w: V on the cells, alpha on Sigma.
    ``V = None`` drops the cells and ``delta = None`` the surface (an empty
    mesh), so ``DeltaSystem(V, None, k)`` is the plain Lippmann-Schwinger solve.

    A system holds ``kernel`` in complex128 and the LU factors of
    I + K diag(w) in complex64; ``solve_many`` refines each solution in
    complex128 with the residual.  When the complex64 factors are singular or
    their rcond is below ``_SINGLE_RCOND_FLOOR``, or refinement stalls above
    ``_REFINE_ACCEPT``, the complex64 LU is dropped and the system factors
    I + K diag(w) in complex128 instead, where a condition number above 1e12
    raises ``ExceptionalFrequencyError``.

    K depends on the points and the source set, not on the values of V or
    alpha: media with the same grid, Gamma and supports of V and alpha share
    it, and ``reweighted`` factors another medium's weights over it.
    """

    def __init__(self, V: PotentialSample | None, delta: DeltaSpec | None, k: float):
        if not 0 < k < np.inf:
            raise ValueError(f"k must be positive and finite, got {k}")
        self.k = float(k)
        delta = _NO_SURFACE if delta is None else delta
        self.support = V.support() if V is not None else np.zeros(0, dtype=int)
        src = _support_sources(V, self.support, delta)
        self._panels = np.concatenate([delta.support(), np.flatnonzero(delta.alpha == 0)])   # Sigma, then the rest
        self.points = np.concatenate([src.point[:len(self.support)], delta.mesh.panel_centroid[self._panels]])
        start = time.perf_counter()
        self.kernel = _fill(self.points, src, k)
        _log.debug(_KERNEL_LOG, "filled", *self.kernel.shape, k, time.perf_counter() - start)
        self._weigh(V, delta)

    def reweighted(self, V: PotentialSample | None, delta: DeltaSpec | None) -> DeltaSystem:
        """The system of V and delta at this k over this ``kernel``: factors I + K diag(w') for
        the new weights and computes no kernel entry.  Raises ValueError when the grid, the
        support of V, Gamma's arrays or the support of alpha differ, which changes the sources.
        """
        delta = _NO_SURFACE if delta is None else delta
        if not self._shares_kernel(V, delta):
            raise ValueError("reweighted: the grid, the support of V, Gamma or the support of alpha differ")
        _log.debug(_KERNEL_LOG, "reused", *self.kernel.shape, self.k, 0.0)
        system = copy.copy(self)
        system._weigh(V, delta)
        return system

    def _shares_kernel(self, V: PotentialSample | None, delta: DeltaSpec) -> bool:
        """True when V and delta have this system's points and source set."""
        return ((V is None) == (self.potential is None)
                and (V is None or (V.grid == self.potential.grid and np.array_equal(V.support(), self.support)))
                and delta.mesh == self.mesh
                and np.array_equal(delta.support(), self.delta.support()))

    def _weigh(self, V: PotentialSample | None, delta: DeltaSpec) -> None:
        """Take w = (V on its support, alpha on Sigma) and factor I + K diag(w)."""
        self.potential, self.delta, self.mesh = V, delta, delta.mesh
        Vs = np.zeros(0) if V is None else V.values[self.support]
        self.weights = np.concatenate([Vs, delta.alpha[delta.support()]])
        self._lu = self._factor() if len(self.weights) else None

    def _factor(self, fallback: str | None = None) -> GuardedLU:
        """The LU of I + K diag(w): complex64 unless ``fallback`` names why not, or the
        complex64 factors turn out singular or worse conditioned than 1/_SINGLE_RCOND_FLOOR."""
        context, start = "delta-shell system", time.perf_counter()
        if fallback is None:
            try:
                lu = GuardedLU(*_system_matrix(self.kernel, self.weights, np.complex64), context=context)
            except ExceptionalFrequencyError:
                lu, fallback = None, "complex64 factors singular"
            if lu is not None and lu.rcond < _SINGLE_RCOND_FLOOR:
                lu, fallback = None, f"complex64 rcond {lu.rcond:.3e} below {_SINGLE_RCOND_FLOOR:g}"
        if fallback is not None:
            lu = GuardedLU(*_system_matrix(self.kernel, self.weights, complex), context=context)
        _log.debug("delta-shell LU: %s, n = %d, rcond %.6e, fallback: %s, %.3f s",
                   lu.dtype, len(self.weights), lu.rcond, fallback, time.perf_counter() - start)
        return lu

    def solve(self, inc: IncidentField) -> DeltaSolution:
        return self.solve_many([inc])[0]

    def solve_many(self, incidents) -> list[DeltaSolution]:
        """Solutions for several incident fields, refined together.

        The incident fields form the columns of one right-hand-side matrix.
        Starting from x = 0 and r = psi0, each refinement step adds LU^-1 r to
        x and forms K (w x) in complex128, which gives every column's
        residual r = psi0 - x - K (w x) on the unknowns' rows and, after the
        last step, its trace psi0 - K (w x) at the panels, in panel order; eta is
        w x on Sigma and 0 elsewhere.
        """
        incidents = list(incidents)
        ns = len(self.support)
        psi0 = np.stack([np.asarray(eval_incident(inc, self.k, self.points), dtype=complex)
                         for inc in incidents], axis=1)                # (ns + np, n_rhs)
        x, wx, kwx, residual = self._refine(psi0, time.perf_counter())
        # one contiguous row per solution
        trace, eta = (np.zeros((len(incidents), self.mesh.n_panels), dtype=complex) for _ in range(2))
        trace[:, self._panels] = (psi0[ns:] - kwx[ns:]).T
        eta[:, self.delta.support()] = wx[ns:].T
        psi_s, source = (np.ascontiguousarray(a.T) for a in (x[:ns], wx[:ns]))
        return [
            DeltaSolution(
                eta=eta[j], incident=inc, k=self.k,
                residual=float(residual[j]), trace=trace[j], potential=self.potential,
                delta=self.delta, support=self.support, source_density=source[j],
                psi_support=psi_s[j],
            )
            for j, inc in enumerate(incidents)
        ]

    def _refine(self, psi0: np.ndarray, start: float):
        """x, w x, K (w x) and each column's relative residual for the unknowns' rows of psi0;
        logs the seconds since ``start``."""
        n = len(self.weights)
        b = psi0[:n]
        b_norm = np.maximum(np.linalg.norm(b, axis=0), 1e-300)
        x, r, worst = np.zeros_like(b), b, np.inf
        wx, kwx = np.zeros_like(b, order="F"), np.zeros_like(psi0, order="F")
        for steps in range(1, _REFINE_STEPS + 1):
            if n:
                x += self._lu.solve(r)
                np.multiply(self.weights[:, None], x, out=wx)
                matmul(self.kernel, wx, out=kwx)
            r = b - (x + kwx[:n])
            residual = np.linalg.norm(r, axis=0) / b_norm
            worst, previous = residual.max(initial=0.0), worst
            if worst <= _REFINE_TOL or worst >= previous / 2:
                break
        if worst > _REFINE_ACCEPT and self._lu.dtype == np.complex64:
            self._lu = None  # drop the complex64 factors before the complex128 matrix is built
            self._lu = self._factor(f"refinement stalled at residual {worst:.2e}")
            return self._refine(psi0, start)
        _log.debug("delta-shell solve: %d right-hand sides, %d refinement steps, largest residual %.2e, %.3f s",
                   b.shape[1], steps, worst, time.perf_counter() - start)
        return x, wx, kwx, residual


# ---------------------------------------------------------------------------
# Field evaluation
# ---------------------------------------------------------------------------

def _strength(sol: DeltaSolution) -> np.ndarray:
    """w psi over the sources of V~: V psi on the support cells, then eta on Sigma."""
    return np.concatenate([sol.source_density, sol.eta[sol.delta.support()]])


def _scattered(sol: DeltaSolution, pts: np.ndarray, grad: bool = False) -> np.ndarray:
    """-K(x, .) (w psi): the outgoing field of the source V~ psi at pts, or with ``grad`` its (n, 4) jet."""
    return -_apply(pts, _support_sources(sol.potential, sol.support, sol.delta), _strength(sol), sol.k, grad)


def _radial(jet: np.ndarray, normals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(f, n . grad f) from an (n, 4) jet of f, with one unit normal n per point."""
    return jet[:, 0], np.einsum("ij,ij->i", normals, jet[:, 1:])


def eval_scattered_field(sol: DeltaSolution, x) -> np.ndarray | complex:
    """Scattered part: -G (V psi) - SL eta evaluated at x."""
    x = np.asarray(x, dtype=float)
    vals = _scattered(sol, np.atleast_2d(x))
    return vals[0] if x.ndim == 1 else vals


def eval_total_field(sol: DeltaSolution, x, near_warning: bool = True) -> np.ndarray | complex:
    """Total field psi0 + scattered at x; warns near the surface."""
    x = np.asarray(x, dtype=float)
    pts = np.atleast_2d(x)
    if near_warning and near_surface(pts, sol.mesh):
        warnings.warn("evaluation point within a quarter panel diameter of Gamma; "
                      "near-field accuracy is reduced", stacklevel=2)
    psi0 = np.asarray(eval_incident(sol.incident, sol.k, pts), dtype=complex)
    vals = psi0 + eval_scattered_field(sol, pts)
    return vals[0] if x.ndim == 1 else vals


def eval_scattered_gradient(sol: DeltaSolution, x) -> np.ndarray:
    """Analytic gradient of the scattered field at off-surface points."""
    return _scattered(sol, np.atleast_2d(np.asarray(x, dtype=float)), grad=True)[:, 1:]


def check_jump_relation(mesh: SurfaceMesh, k: float, xi: np.ndarray) -> float:
    """Relative error in the normal-derivative jump [d_n SL xi] = -xi.

    ``xi`` is one real value per panel, or a number (``SurfaceMesh.per_panel``).
    Evaluates n.grad(SL xi) at c_q +/- delta n_q with one analytic
    ``layer_potential_gradient`` call over both offsets (delta = _JUMP_OFFSET
    panel diameters) and returns the area-weighted relative L^2 error of
    (jump + xi).
    """
    xi = mesh.per_panel(xi, "xi")
    if not np.any(xi):
        raise ValueError("xi is 0 on every panel, where the relative jump error is undefined")
    c, nrm = mesh.panel_centroid, mesh.panel_normal
    off = (_JUMP_OFFSET * mesh.panel_diameter)[:, None] * nrm
    grad = layer_potential_gradient(np.concatenate([c + off, c - off]), mesh, xi, k)
    dn_out, dn_in = np.einsum("sij,ij->si", grad.reshape(2, -1, 3), nrm)
    w, jump = mesh.panel_area, dn_out - dn_in
    return float(np.sqrt(np.sum(w * np.abs(jump + xi) ** 2) / np.sum(w * np.abs(xi) ** 2)))

