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
asserted.  Two media are identical when their potential samples and surface
strengths compare equal, by value: a Gamma built twice is the same Gamma.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .acoustic import _farfields
from .boundary import DeltaSolution, _radial, _scattered, eval_total_field
from .farfield import FarFieldPattern, check_enclosing_radius
from .geometry import make_sphere_grid
from .kernels import _check_k

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


def lattice_directions() -> np.ndarray:
    """The 26 directions of the unit-cube lattice, normalized."""
    pts = np.array([
        (i, j, k)
        for i in (-1, 0, 1) for j in (-1, 0, 1) for k in (-1, 0, 1)
        if (i, j, k) != (0, 0, 0)
    ], dtype=float)
    return pts / np.linalg.norm(pts, axis=1)[:, None]


def _total_field_and_radial(sol: DeltaSolution, points: np.ndarray, normals: np.ndarray):
    """(psi, d_r psi) on a sphere, analytic gradients; the scattered part from one kernel pass."""
    return _radial(sol.incident.jet(sol.k, points) + _scattered(sol, points, grad=True), normals)


def _cross_trace(sol: DeltaSolution, mesh) -> np.ndarray:
    """Trace of a solution on a surface: its own trace on a mesh equal to its Gamma."""
    if mesh == sol.mesh:
        return sol.trace
    return np.asarray(eval_total_field(sol, mesh.panel_centroid, near_warning=False), dtype=complex)


def _check_media(sol1: DeltaSolution, sol2: DeltaSolution) -> float:
    """The one k of both solutions; ValueError unless both media share a grid."""
    k = sol1.k
    _check_k(k, sol2.k, "the two solutions must share the wavenumber")
    if sol1.potential is None or sol2.potential is None:
        raise ValueError("the pairing needs both media sampled on a shared grid, not a solution without V")
    if sol1.potential.grid != sol2.potential.grid:
        raise ValueError("the two media must be sampled on a shared grid")
    return k


def _pairing_nodes(sol1: DeltaSolution, sol2: DeltaSolution):
    """Node groups (x, w, psi1, psi2) of <psi1 (Vt1 - Vt2), psi2> = sum w conj(psi1) psi2.

    The signed weights are vol (V1 - V2) on the cells where it is nonzero,
    area alpha1 on Gamma1 and -area alpha2 on Gamma2; callers reuse the
    identical sampled values in algebraically rearranged sums.
    """
    grid = sol1.potential.grid
    dV = sol1.potential.values - sol2.potential.values
    cells = np.flatnonzero(dV)
    mesh1, mesh2 = sol1.mesh, sol2.mesh
    return (
        (grid.cell_center[cells], grid.cell_volume * dV[cells],
         sol1._cell_values(cells), sol2._cell_values(cells)),
        (mesh1.panel_centroid, mesh1.panel_area * sol1.delta.alpha,
         sol1.trace, _cross_trace(sol2, mesh1)),
        (mesh2.panel_centroid, -mesh2.panel_area * sol2.delta.alpha,
         _cross_trace(sol1, mesh2), sol2.trace),
    )


def _pairing(nodes) -> tuple[complex, float]:
    """(pairing, mass): the sums of w conj(psi1) psi2 and of its modulus, one per group."""
    terms = [w * np.conj(p1) * p2 for _, w, p1, p2 in nodes]
    return complex(sum(np.sum(t) for t in terms)), float(sum(np.sum(np.abs(t)) for t in terms))


def green_pairing_check(sol1: DeltaSolution, sol2: DeltaSolution | list, R: float) -> ExperimentReport | list:
    """Volume+surface pairing against the boundary Wronskian on |y| = R.

    ``solN`` is the CGO solution psi_N of medium N for the incident field
    ``Exponential(rhoN)``; k, V, alpha and Gamma come from the solutions,
    which share k.  ``sol2`` is one partner solution, giving one report, or a
    list of them, giving one report each from one evaluation of psi1 on the sphere.

    LHS = int conj(psi1)(V1 - V2) psi2 + int_G1 conj(eta1) tr psi2
                                       - int_G2 conj(tr psi1) eta2,
    RHS = int_{|y|=R} [ conj(d_r psi1) psi2 - conj(psi1) d_r psi2 ],

    with B_R enclosing both scatterers (``check_enclosing_radius``) and the
    RHS on the WRONSKIAN_NODES sphere grid.  For identical media the LHS
    vanishes algebraically (asserted at ALGEBRAIC_TOL); the Green-identity
    match is asserted at PAIRING_REL_TOL.
    """
    t0, partners = time.perf_counter(), sol2 if isinstance(sol2, list) else [sol2]
    inputs = [{"k": _check_media(sol1, sol), "w1": sol1.incident.rho_dir.w, "w2": sol.incident.rho_dir.w, "R": R}
              for sol in partners]
    for sol in (sol1, *partners):
        check_enclosing_radius(R, sol.mesh, sol.potential)
    sphere = make_sphere_grid(R, *WRONSKIAN_NODES)
    psi1, dr1 = _total_field_and_radial(sol1, sphere.nodes, sphere.normals)
    reports = []
    for partner, given in zip(partners, inputs):
        lhs, mass = _pairing(_pairing_nodes(sol1, partner))
        psi2, dr2 = _total_field_and_radial(partner, sphere.nodes, sphere.normals)
        rhs = complex(np.sum(sphere.weights * (np.conj(dr1) * psi2 - np.conj(psi1) * dr2)))
        wron_mass = float(np.sum(sphere.weights * (np.abs(dr1 * psi2) + np.abs(psi1 * dr2))))
        identical = sol1.potential == partner.potential and sol1.delta == partner.delta
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
        reports.append(ExperimentReport(name="green_pairing", inputs=given, metrics=metrics,
                                        thresholds=thresholds, passed=bool(passed), seconds=time.perf_counter() - t0))
        t0 = time.perf_counter()
    return reports if isinstance(sol2, list) else reports[0]


def fourier_identity_check(sol1: DeltaSolution, sol2: DeltaSolution, xi: np.ndarray) -> ExperimentReport:
    """Exact finite-w decomposition of the pairing behind the uniqueness proof.

    ``solN`` is the CGO solution psi_N of medium N for ``Exponential(rhoN)``,
    with conj(rho1) + rho2 = -i xi (ValueError otherwise; w = rho1.w).
    Write psi_m = e^{rho_m . x} (1 + phi_m); then, node by node,

        <psi1 (Vt1 - Vt2), psi2>  =  <Vt1 - Vt2, u_xi>  +  F_xi,

    where u_xi = e^{-i xi . x},  <Vt1 - Vt2, u_xi> = -(Fourier difference D),

        F_xi = <Vt1 - Vt2, u_xi (conj(phi1) + phi2)>
             + <conj(phi1) (Vt1 - Vt2), u_xi phi2>,

    and D = hat(Vt2)(xi) - hat(Vt1)(xi) by direct quadrature, at the solutions'
    shared k.  The split is algebraic and asserted at ALGEBRAIC_TOL; |F_xi - D|
    is the finite-w remainder, reported only (it tends to 0 along the CGO
    sequence w -> oo).
    """
    t0 = time.perf_counter()
    k = _check_media(sol1, sol2)
    xi = np.asarray(xi, dtype=float)
    rho1, rho2 = sol1.incident.rho_dir, sol2.incident.rho_dir
    gap = np.conj(rho1.rho) + rho2.rho + 1j * xi
    if np.max(np.abs(gap)) > 1e-12 * (1.0 + np.linalg.norm(rho1.rho) + np.linalg.norm(rho2.rho)):
        raise ValueError("the directions must satisfy conj(rho1) + rho2 = -i xi")
    nodes = _pairing_nodes(sol1, sol2)
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
        inputs={"k": k, "w": rho1.w, "xi": list(map(float, xi))},
        metrics=metrics,
        thresholds={"split_err": ALGEBRAIC_TOL},
        passed=bool(split_err <= ALGEBRAIC_TOL),
        seconds=time.perf_counter() - t0,
    )


def sommerfeld_check(scattered_eval, k: float, name: str = "sommerfeld") -> ExperimentReport:
    """Radiation-condition residual max_d |r (d_r - ik) psi_sc| per radius.

    ``scattered_eval`` maps an (n, 3) point array to the pair (psi_sc,
    d_r psi_sc) there.  A DeltaSolution is accepted directly: both come from
    one analytic jet pass over the points of all SOMMERFELD_RADII, and its k
    must be ``k`` (ValueError otherwise).  Asserts the residual drops by at
    least SOMMERFELD_MIN_DECAY per radius doubling.
    """
    t0 = time.perf_counter()
    radii = np.asarray(SOMMERFELD_RADII)[:, None]
    pts = (radii[:, :, None] * lattice_directions()).reshape(-1, 3)
    if isinstance(scattered_eval, DeltaSolution):
        _check_k(k, scattered_eval.k, f"the solution is at k={scattered_eval.k:g}, not at the check's k={k:g}")
        psi, d_r = _radial(_scattered(scattered_eval, pts, grad=True), pts / np.linalg.norm(pts, axis=1)[:, None])
    else:
        psi, d_r = scattered_eval(pts)
    residuals = np.max(np.abs(radii * (d_r - 1j * k * psi).reshape(len(radii), -1)), axis=1)
    ratios = residuals[:-1] / np.maximum(residuals[1:], 1e-300)
    passed = np.all(ratios >= SOMMERFELD_MIN_DECAY) or residuals.max() < 1e-14
    return ExperimentReport(
        name=name,
        inputs={"k": k, "radii": list(map(float, SOMMERFELD_RADII))},
        metrics={"residuals": residuals.tolist(), "decay_ratios": ratios.tolist()},
        thresholds={"decay_per_doubling": SOMMERFELD_MIN_DECAY},
        passed=bool(passed),
        seconds=time.perf_counter() - t0,
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
    t0 = time.perf_counter()
    if omega == omega_tilde or omega <= 0 or omega_tilde <= 0:
        raise ValueError("need two distinct positive frequencies")
    coarse, fine = levels
    mA_f, mB_f = make_medium_a(fine), make_medium_b(fine)
    mA_c = make_medium_a(coarse)
    identical = mA_f == mB_f

    omegas = (omega, omega_tilde)
    # one loop over the three media: A and B share Gamma, and their kernel when they share the support
    patterns = _farfields([mA_f, mB_f, mA_c], omegas, incidence, obs_grid, grid)
    tables = {tag: dict(zip(omegas, p)) for tag, p in zip(("A", "B", "A_coarse"), patterns)}

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
        seconds=time.perf_counter() - t0,
    )


def reciprocity_check(ff: FarFieldPattern, rel_tol: float = 0.01) -> ExperimentReport:
    """max |s(xi, x) - s(-x, -xi)| / max |s| on an antipode-closed grid."""
    t0 = time.perf_counter()
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
        seconds=time.perf_counter() - t0,
    )
