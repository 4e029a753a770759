"""Verification harness: certifies the structural identities of the model.

Each check produces an ``ExperimentReport`` (JSON-serializable: name, inputs,
metrics, thresholds, pass flag, runtime).  Reports assert only at the level
the discretization supports:

* exact algebraic splits (rearrangements computed from the same sampled
  values) at 1e-10,
* Green-identity matches between independently quadratured sides at 1e-2,
* convergence claims as monotone sequences,

and never a continuum limit.  In particular the CGO large-w limit is not
chased (exponential ill-conditioning); the finite-w algebra is certified and
the remainder against the direct Fourier difference is reported, not
asserted.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

import numpy as np

from .acoustic import SchrodingerData, acoustic_farfield, media_equal
from .boundary import (
    DeltaSolution,
    DeltaSystem,
    eval_scattered_field,
    eval_scattered_gradient,
    eval_total_field,
)
from .farfield import FarFieldPattern, check_enclosing_radius
from .geometry import make_sphere_grid
from .kernels import ComplexDirection, Exponential, eval_incident_grad, sigma_pair_for_xi

__all__ = [
    "ExperimentReport",
    "green_pairing_check",
    "fourier_identity_check",
    "sommerfeld_check",
    "uniqueness_experiment",
    "reciprocity_check",
    "lattice_directions",
]

PAIRING_REL_TOL = 1e-2          # Green identity between independently quadratured sides
ALGEBRAIC_TOL = 1e-10           # algebraic zeros and exact splits of the same sampled values
WRONSKIAN_NODES = (24, 48)      # (n_theta, n_phi) of the Wronskian sphere |y| = R
SOMMERFELD_RADII = (4.0, 8.0, 16.0)  # radiation residual radii, each doubling the last
SOMMERFELD_MIN_DECAY = 1.8      # least residual decay per radius doubling
SOMMERFELD_FD_STEP = 1e-3       # radial central-difference step


@dataclass
class ExperimentReport:
    name: str
    inputs: dict
    metrics: dict
    thresholds: dict
    passed: bool
    seconds: float = 0.0

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "inputs": self.inputs,
            "metrics": self.metrics,
            "thresholds": self.thresholds,
            "pass": bool(self.passed),
            "seconds": self.seconds,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def lattice_directions() -> np.ndarray:
    """The 26 directions of the unit-cube lattice, normalized."""
    pts = np.array([
        (i, j, k)
        for i in (-1, 0, 1) for j in (-1, 0, 1) for k in (-1, 0, 1)
        if (i, j, k) != (0, 0, 0)
    ], dtype=float)
    return pts / np.linalg.norm(pts, axis=1)[:, None]


def _total_field_and_radial(sol: DeltaSolution, points: np.ndarray, normals: np.ndarray):
    """(psi, d_r psi) on a sphere, analytic gradients."""
    psi = np.asarray(eval_total_field(sol, points, near_warning=False), dtype=complex)
    grad = eval_scattered_gradient(sol, points) + eval_incident_grad(sol.incident, sol.k, points)
    return psi, np.einsum("ij,ij->i", normals, grad)


def _cross_trace(sol: DeltaSolution, mesh) -> np.ndarray:
    """Trace of a solution on a (possibly different) surface."""
    if mesh is sol.mesh:
        return sol.trace
    return np.asarray(eval_total_field(sol, mesh.panel_centroid, near_warning=False), dtype=complex)


def _solve_pair(d1: SchrodingerData, d2: SchrodingerData,
                rho1: ComplexDirection, rho2: ComplexDirection, k: float):
    """The CGO solutions psi_m of medium m for the exponential e^{rho_m . x}."""
    return (DeltaSystem(d1.V, d1.delta, k).solve(Exponential(rho1)),
            DeltaSystem(d2.V, d2.delta, k).solve(Exponential(rho2)))


def _pairing_nodes(d1: SchrodingerData, d2: SchrodingerData,
                   sol1: DeltaSolution, sol2: DeltaSolution):
    """Node groups (x, w, psi1, psi2) of <psi1 (Vt1 - Vt2), psi2> = sum w conj(psi1) psi2.

    The signed weights are vol (V1 - V2) on the cells, area alpha1 on Gamma1
    and -area alpha2 on Gamma2; callers reuse the identical sampled values in
    algebraically rearranged sums.
    """
    grid, grid2 = d1.V.grid, d2.V.grid
    if not (np.array_equal(grid.lo, grid2.lo) and np.array_equal(grid.hi, grid2.hi) and grid.n == grid2.n):
        raise ValueError("the two media must be sampled on a shared grid")
    mesh1, mesh2 = d1.delta.mesh, d2.delta.mesh
    return (
        (grid.cell_center, grid.cell_volume * (d1.V.values - d2.V.values),
         sol1.volume_field.values, sol2.volume_field.values),
        (mesh1.panel_centroid, mesh1.panel_area * d1.delta.alpha,
         sol1.trace, _cross_trace(sol2, mesh1)),
        (mesh2.panel_centroid, -mesh2.panel_area * d2.delta.alpha,
         _cross_trace(sol1, mesh2), sol2.trace),
    )


def _pairing(nodes) -> tuple[complex, float]:
    """(pairing, mass): the sums of w conj(psi1) psi2 and of its modulus, one per group."""
    terms = [w * np.conj(p1) * p2 for _, w, p1, p2 in nodes]
    return complex(sum(np.sum(t) for t in terms)), float(sum(np.sum(np.abs(t)) for t in terms))


def green_pairing_check(
    d1: SchrodingerData,
    d2: SchrodingerData,
    rho1: ComplexDirection,
    rho2: ComplexDirection,
    R: float,
) -> ExperimentReport:
    """Volume+surface pairing against the boundary Wronskian on |y| = R.

    LHS = int conj(psi1)(V1 - V2) psi2 + int_G1 conj(eta1) tr psi2
                                       - int_G2 conj(tr psi1) eta2,
    RHS = int_{|y|=R} [ conj(d_r psi1) psi2 - conj(psi1) d_r psi2 ],

    with B_R enclosing both scatterers (``check_enclosing_radius``) and the
    RHS on the WRONSKIAN_NODES sphere grid.  For identical media the LHS
    vanishes algebraically (asserted at ALGEBRAIC_TOL); the Green-identity
    match is asserted at PAIRING_REL_TOL.
    """
    t0 = time.time()
    k = rho1.k
    if abs(rho2.k - k) > 1e-12 * max(1.0, k):
        raise ValueError("rho1 and rho2 must share the wavenumber")
    for d in (d1, d2):
        check_enclosing_radius(R, d.delta.mesh, d.V)

    sol1, sol2 = _solve_pair(d1, d2, rho1, rho2, k)
    lhs, mass = _pairing(_pairing_nodes(d1, d2, sol1, sol2))

    sphere = make_sphere_grid(R, *WRONSKIAN_NODES)
    psi1, dr1 = _total_field_and_radial(sol1, sphere.nodes, sphere.normals)
    psi2, dr2 = _total_field_and_radial(sol2, sphere.nodes, sphere.normals)
    rhs = complex(np.sum(sphere.weights * (np.conj(dr1) * psi2 - np.conj(psi1) * dr2)))
    wron_mass = float(np.sum(sphere.weights * (np.abs(dr1 * psi2) + np.abs(psi1 * dr2))))

    identical = (
        np.array_equal(d1.V.values, d2.V.values)
        and d1.delta.mesh is d2.delta.mesh
        and np.array_equal(d1.delta.alpha, d2.delta.alpha)
    )
    rel_gap = abs(lhs - rhs) / (abs(lhs) + abs(rhs) + 1e-300)
    metrics = {
        "lhs_re": lhs.real, "lhs_im": lhs.imag,
        "rhs_re": rhs.real, "rhs_im": rhs.imag,
        "rel_gap": rel_gap,
        "pairing_mass": mass,
        "wronskian_mass": wron_mass,
        "identical_media": identical,
    }
    if identical:
        # LHS is an algebraic zero; the Wronskian vanishes only at the
        # Green-identity level (discrete flux conservation).
        passed = (abs(lhs) <= ALGEBRAIC_TOL * max(mass, 1.0)
                  and abs(rhs) <= PAIRING_REL_TOL * max(wron_mass, 1e-300))
        thresholds = {"lhs_zero": ALGEBRAIC_TOL, "rhs_over_mass": PAIRING_REL_TOL}
    else:
        passed = rel_gap <= PAIRING_REL_TOL
        thresholds = {"rel_gap": PAIRING_REL_TOL}
    return ExperimentReport(
        name="green_pairing",
        inputs={"k": k, "w1": rho1.w, "w2": rho2.w, "R": R},
        metrics=metrics,
        thresholds=thresholds,
        passed=bool(passed),
        seconds=time.time() - t0,
    )


def fourier_identity_check(
    d1: SchrodingerData,
    d2: SchrodingerData,
    xi: np.ndarray,
    w: float,
    k: float,
) -> ExperimentReport:
    """Exact finite-w decomposition of the pairing behind the uniqueness proof.

    With (rho1, rho2) chosen so conj(rho1) + rho2 = -i xi, write
    psi_m = e^{rho_m . x} (1 + phi_m); then, node by node,

        <psi1 (Vt1 - Vt2), psi2>  =  <Vt1 - Vt2, u_xi>  +  F_xi,

    where u_xi = e^{-i xi . x},  <Vt1 - Vt2, u_xi> = -(Fourier difference D),

        F_xi = <Vt1 - Vt2, u_xi (conj(phi1) + phi2)>
             + <conj(phi1) (Vt1 - Vt2), u_xi phi2>,

    and D = hat(Vt2)(xi) - hat(Vt1)(xi) by direct quadrature.  The split is
    algebraic and asserted at ALGEBRAIC_TOL; |F_xi - D| is the finite-w
    remainder, reported only (it tends to 0 along the CGO sequence w -> oo).
    """
    t0 = time.time()
    xi = np.asarray(xi, dtype=float)
    rho1, rho2 = sigma_pair_for_xi(xi, k, w)
    nodes = _pairing_nodes(d1, d2, *_solve_pair(d1, d2, rho1, rho2, k))
    P, mass = _pairing(nodes)

    F = 0.0 + 0.0j
    D = 0.0 + 0.0j
    for x, node_w, p1, p2 in nodes:
        u = np.exp(-1j * (x @ xi))                         # u_xi
        f1 = np.conj(np.exp(-(x @ rho1.rho)) * p1 - 1.0)   # conj(phi1)
        f2 = np.exp(-(x @ rho2.rho)) * p2 - 1.0            # phi2
        F += np.sum(node_w * u * (f1 + f2)) + np.sum(node_w * u * f1 * f2)
        D -= np.sum(node_w * u)                            # D = hat(Vt2) - hat(Vt1)

    split_err = abs(P - (-D + F)) / max(mass, 1e-300)
    metrics = {
        "pairing_re": P.real, "pairing_im": P.imag,
        "F_re": F.real, "F_im": F.imag,
        "fourier_diff_re": D.real, "fourier_diff_im": D.imag,
        "split_err": float(split_err),
        "finite_w_remainder": abs(F - D),
        "pairing_mass": mass,
    }
    return ExperimentReport(
        name="fourier_identity",
        inputs={"k": k, "w": w, "xi": list(map(float, xi))},
        metrics=metrics,
        thresholds={"split_err": ALGEBRAIC_TOL},
        passed=bool(split_err <= ALGEBRAIC_TOL),
        seconds=time.time() - t0,
    )


def sommerfeld_check(scattered_eval, k: float, name: str = "sommerfeld") -> ExperimentReport:
    """Radiation-condition residual max_d |r (d_r - ik) psi_sc| per radius.

    ``scattered_eval`` maps an (n, 3) point array to scattered-field values
    (a DeltaSolution is accepted directly).  The radial derivative is a
    central difference of step SOMMERFELD_FD_STEP at each of SOMMERFELD_RADII;
    asserts the residual drops by at least SOMMERFELD_MIN_DECAY per radius
    doubling.
    """
    t0 = time.time()
    if isinstance(scattered_eval, DeltaSolution):
        sol = scattered_eval
        scattered_eval = lambda pts: eval_scattered_field(sol, pts)  # noqa: E731
    dirs = lattice_directions()
    residuals = []
    for r in SOMMERFELD_RADII:
        up = scattered_eval((r + SOMMERFELD_FD_STEP) * dirs)
        dn = scattered_eval((r - SOMMERFELD_FD_STEP) * dirs)
        mid = scattered_eval(r * dirs)
        d_r = (up - dn) / (2.0 * SOMMERFELD_FD_STEP)
        residuals.append(float(np.max(np.abs(r * (d_r - 1j * k * mid)))))
    ratios = [residuals[i] / max(residuals[i + 1], 1e-300) for i in range(len(residuals) - 1)]
    scale = max(residuals)
    passed = all(q >= SOMMERFELD_MIN_DECAY for q in ratios) or scale < 1e-14
    return ExperimentReport(
        name=name,
        inputs={"k": k, "radii": list(map(float, SOMMERFELD_RADII))},
        metrics={"residuals": residuals, "decay_ratios": ratios},
        thresholds={"decay_per_doubling": SOMMERFELD_MIN_DECAY},
        passed=bool(passed),
        seconds=time.time() - t0,
    )


def uniqueness_experiment(
    make_medium_a,
    make_medium_b,
    omega: float,
    omega_tilde: float,
    grid,
    obs_grid,
    incidence: np.ndarray,
    levels: tuple[int, int] = (0, 1),
    separation: float = 10.0,
) -> ExperimentReport:
    """Desk-scale contrapositive of two-frequency uniqueness.

    ``make_medium_*`` build a MediumSpec at a refinement level; far fields of
    both media at both frequencies are compared at the finer level.  The
    noise floor N is the same-medium far-field distance across the two
    levels; distinct media must separate by ``separation`` x N at both
    frequencies, identical media must sit within the floor.
    """
    t0 = time.time()
    if omega == omega_tilde or omega <= 0 or omega_tilde <= 0:
        raise ValueError("need two distinct positive frequencies")
    coarse, fine = levels
    mA_f, mB_f = make_medium_a(fine), make_medium_b(fine)
    mA_c = make_medium_a(coarse)
    identical = media_equal(mA_f, mB_f)

    omegas = (omega, omega_tilde)
    tables = {
        tag: dict(zip(omegas, acoustic_farfield(medium, omegas, incidence, obs_grid, grid)))
        for tag, medium in (("A", mA_f), ("B", mB_f), ("A_coarse", mA_c))
    }

    metrics = {}
    noise = {}
    distances = {}
    for om in omegas:
        noise[om] = tables["A"][om].rel_l2_distance(tables["A_coarse"][om])
        distances[om] = tables["A"][om].rel_l2_distance(tables["B"][om])
        metrics[f"noise_floor_w{om:g}"] = noise[om]
        metrics[f"distance_w{om:g}"] = distances[om]
    metrics["noise_floor"] = max(noise.values())
    metrics["identical_media"] = identical

    # the floor is frequency-dependent (the same mesh resolves omega and
    # omega_tilde differently), so each distance is held to its own floor
    if identical:
        passed = all(distances[om] <= max(noise[om], 1e-14) for om in distances)
        thresholds = {"identical_within_floor": 1.0}
    else:
        passed = all(distances[om] >= separation * noise[om] for om in distances)
        thresholds = {"separation_over_floor": separation}
    return ExperimentReport(
        name="uniqueness_experiment",
        inputs={"omega": omega, "omega_tilde": omega_tilde, "levels": list(levels)},
        metrics=metrics,
        thresholds=thresholds,
        passed=bool(passed),
        seconds=time.time() - t0,
    )


def reciprocity_check(ff: FarFieldPattern, rel_tol: float = 0.01) -> ExperimentReport:
    """max |s(xi, x) - s(-x, -xi)| / max |s| on an antipode-closed grid."""
    t0 = time.time()
    inc = ff.incidence
    obs = ff.observations
    if inc.shape != obs.shape or np.max(np.abs(inc - obs)) > 1e-9:
        raise ValueError("incidence and observation grids must be identical")

    # antipode lookup by nearest match
    dots = obs @ obs.T
    anti = np.argmin(dots, axis=1)
    if np.max(np.abs(obs[anti] + obs)) > 1e-9:
        raise ValueError("direction grid is not antipode-closed")

    asym = np.abs(ff.values - ff.values[np.ix_(anti, anti)].T)
    rel = float(np.max(asym) / max(np.max(np.abs(ff.values)), 1e-300))
    return ExperimentReport(
        name="reciprocity",
        inputs={"k": ff.k, "n_dirs": len(obs)},
        metrics={"max_rel_asymmetry": rel},
        thresholds={"max_rel_asymmetry": rel_tol},
        passed=bool(rel <= rel_tol),
        seconds=time.time() - t0,
    )
