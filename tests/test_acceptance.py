"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line with the measured quantities, then
asserts.  Criteria:

1. far field of the unit sphere (alpha = 2, k = 2) vs the partial-wave
   oracle: rel L2 error <= 5% at 1280 panels, <= 2% at 5120, decreasing,
   within the runtime budget
2. flux-integral and source-sum far fields agree to 1e-3; the flux integral
   is radius-independent to 1e-4
3. normal-derivative jump of the single layer: error <= 5% at subdivision 3
   for constant and degree-one densities, decreasing over levels 1..3
4. volume+surface pairing equals the boundary Wronskian to 1e-2 for
   distinct media; algebraically-zero cases at 1e-10
5. the finite-w decomposition of the pairing closes to 1e-10; the
   remainder against the direct Fourier difference is reported
6. radiation residual drops by >= 1.8x per radius doubling for every
   solved configuration
7. acoustic pipeline consistency: smooth media match the volume-only
   path to 1e-3; the two-frequency potential identity holds to 1e-12;
   alpha is bitwise frequency-independent
8. two-frequency far-field separation >= 10x the mesh-refinement noise
   floor for distinct media; identical media sit within the floor
9. oracle internals: Wronskian, zero-strength, flux conservation,
   sound-soft limit
"""

import time
import warnings

import numpy as np
import pytest

from deltashell.acoustic import (
    GaussianBump,
    MediumSpec,
    RadialCutoff,
    acoustic_to_schrodinger,
    eval_sound_speed,
)
from deltashell.boundary import (
    DeltaSpec,
    DeltaSystem,
    check_jump_relation,
)
from deltashell.farfield import direction_grid, farfield_kirchhoff, farfield_source
from deltashell.geometry import make_sphere_grid, make_sphere_mesh, make_volume_grid
from deltashell.harness import (
    fourier_identity_check,
    green_pairing_check,
    sommerfeld_check,
    uniqueness_experiment,
)
from deltashell.kernels import Exponential, plane_wave, sigma_pair_for_xi
from deltashell.mie import RadialMedium, mie_farfield_values, solve_partial_waves, spherical_bessel, spherical_hankel
from deltashell.volume import PotentialSample

from conftest import bump_potential, reference_lippmann_schwinger

EZ = np.array([0.0, 0.0, 1.0])
XI = np.array([1.0, 0.0, 0.0])


def report(number, passed, detail):
    print(f"ACCEPTANCE {number} [{'PASS' if passed else 'FAIL'}] {detail}")


# ---------------------------------------------------------------------------
# Shared heavy fixtures
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def obs_grid():
    return make_sphere_grid(1.0, 12, 24)


@pytest.fixture(scope="module")
def mie_sphere_reference(obs_grid):
    oracle = solve_partial_waves(RadialMedium(a=1.0, alpha=2.0), 2.0, L=50)
    return mie_farfield_values(oracle, EZ, obs_grid.normals)


@pytest.fixture(scope="module")
def bem_sphere_runs(obs_grid):
    """(panels, rel_l2_error, seconds, solution, system) at 1280 and 5120."""
    runs = {}
    for s in (3, 4):
        t0 = time.time()
        mesh = make_sphere_mesh(1.0, s)
        system = DeltaSystem(None, DeltaSpec(mesh=mesh, alpha=np.full(mesh.n_panels, 2.0)), 2.0)
        sol = system.solve(plane_wave(EZ))
        ff = farfield_source(sol, obs_grid.normals)
        runs[mesh.n_panels] = {
            "ff": ff, "seconds": time.time() - t0, "solution": sol, "system": system,
        }
    return runs


@pytest.fixture(scope="module")
def cgo_media():
    """The assembled systems of the two CGO media at k = 1."""
    grid = make_volume_grid((-1.6, 1.6), 12)
    mesh = make_sphere_mesh(1.0, 2)
    return tuple(DeltaSystem(bump_potential(grid, amp),
                             DeltaSpec(mesh=mesh, alpha=np.full(mesh.n_panels, alpha)), 1.0)
                 for amp, alpha in ((0.35, 1.0), (-0.25, 1.5)))


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------

def test_criterion_1_mie_agreement(bem_sphere_runs, mie_sphere_reference, obs_grid):
    w = obs_grid.weights
    ref = mie_sphere_reference
    den = np.sqrt(w @ np.abs(ref) ** 2)
    errs = {}
    for n_panels, run in bem_sphere_runs.items():
        errs[n_panels] = float(np.sqrt(w @ np.abs(run["ff"] - ref) ** 2) / den)
    runtime = sum(run["seconds"] for run in bem_sphere_runs.values())
    ok = (errs[1280] <= 0.05 and errs[5120] <= 0.02
          and errs[5120] < errs[1280] and runtime <= 180.0)
    report(1, ok, f"mie agreement: err(1280) = {errs[1280]:.4f} <= 0.05, "
                  f"err(5120) = {errs[5120]:.4f} <= 0.02, runtime {runtime:.0f}s <= 180s")
    assert errs[1280] <= 0.05
    assert errs[5120] <= 0.02
    assert errs[5120] < errs[1280]
    assert runtime <= 180.0


def test_criterion_1_single_layer_symmetry_at_scale(bem_sphere_runs):
    # supporting check at the acceptance mesh: operator-scale symmetry
    system = bem_sphere_runs[5120]["system"]
    ns = len(system.support)
    S = system.kernel[ns:, ns:]
    rel = np.max(np.abs(S - S.T)) / np.linalg.norm(S, 1)
    report(1, rel <= 1e-3, f"single-layer symmetry at 5120 panels: {rel:.2e} <= 1e-3")
    assert rel <= 1e-3


def test_criterion_2_two_route_farfield(bem_sphere_runs, obs_grid):
    sol = bem_sphere_runs[1280]["solution"]
    obs = obs_grid.normals
    src = farfield_source(sol, obs)
    kir2 = farfield_kirchhoff(sol, 2.0, obs)
    kir3 = farfield_kirchhoff(sol, 3.0, obs)
    gap_routes = float(np.linalg.norm(kir2 - src) / np.linalg.norm(src))
    gap_radius = float(np.linalg.norm(kir2 - kir3) / np.linalg.norm(kir2))
    ok = gap_routes <= 1e-3 and gap_radius <= 1e-4
    report(2, ok, f"two-route gap {gap_routes:.2e} <= 1e-3, "
                  f"radius independence {gap_radius:.2e} <= 1e-4")
    assert gap_routes <= 1e-3
    assert gap_radius <= 1e-4


def test_criterion_3_jump_relation():
    results = {}
    for label in ("constant", "harmonic"):
        errs = []
        for s in (1, 2, 3):
            mesh = make_sphere_mesh(1.0, s)
            if label == "constant":
                xi = np.ones(mesh.n_panels)
            else:
                xi = mesh.panel_centroid[:, 2] / np.linalg.norm(mesh.panel_centroid, axis=1)
            errs.append(check_jump_relation(mesh, 0.0, xi))
        results[label] = errs
    ok = all(e[0] > e[1] > e[2] and e[2] <= 0.05 for e in results.values())
    report(3, ok, "jump relation: " + ", ".join(
        f"{lab} errors {e[0]:.3f} > {e[1]:.3f} > {e[2]:.3f} (final <= 0.05)"
        for lab, e in results.items()))
    for errs in results.values():
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] <= 0.05


@pytest.fixture(scope="module")
def cgo_solutions(cgo_media):
    """The CGO solutions psi1, psi2 of the two media for Exp(rho1), Exp(rho2)."""
    rho1, rho2 = sigma_pair_for_xi(XI, 1.0, 0.5)
    return tuple(system.solve(Exponential(rho)) for system, rho in zip(cgo_media, (rho1, rho2)))


def test_criterion_4_green_pairing(cgo_solutions):
    psi1, psi2 = cgo_solutions
    r_distinct = green_pairing_check(psi1, psi2, R=1.8)
    r_zero = green_pairing_check(psi1, psi1, R=1.8)
    lhs_zero = abs(complex(r_zero.metrics["lhs_re"], r_zero.metrics["lhs_im"]))
    zero_rel = lhs_zero / max(r_zero.metrics["pairing_mass"], 1.0)
    ok = r_distinct.metrics["rel_gap"] <= 1e-2 and zero_rel <= 1e-10
    report(4, ok, f"green pairing: gap {r_distinct.metrics['rel_gap']:.2e} <= 1e-2, "
                  f"identical-media pairing {zero_rel:.2e} <= 1e-10")
    assert r_distinct.passed
    assert r_distinct.metrics["rel_gap"] <= 1e-2
    assert zero_rel <= 1e-10


def test_criterion_5_fourier_split(cgo_solutions):
    r = fourier_identity_check(*cgo_solutions, XI)
    ok = r.metrics["split_err"] <= 1e-10
    report(5, ok, f"F_xi split closes to {r.metrics['split_err']:.2e} <= 1e-10; "
                  f"finite-w remainder |F - D| = {r.metrics['finite_w_remainder']:.3f} "
                  f"(|F| = {abs(complex(r.metrics['F_re'], r.metrics['F_im'])):.3f}, "
                  f"|D| = {abs(complex(r.metrics['fourier_diff_re'], r.metrics['fourier_diff_im'])):.3f}; reported)")
    assert r.passed
    assert r.metrics["split_err"] <= 1e-10


def test_criterion_6_sommerfeld_all_configurations(cgo_media, bem_sphere_runs):
    sys1, _ = cgo_media
    configs = {}

    configs["surface-only"] = bem_sphere_runs[1280]["solution"]
    configs["volume+surface"] = sys1.solve(plane_wave(EZ))
    configs["volume-only"] = DeltaSystem(sys1.potential, None, sys1.k).solve(plane_wave(EZ))

    mesh = make_sphere_mesh(1.0, 2)
    medium = MediumSpec(gamma=mesh, shell_density=np.full(mesh.n_panels, 1.0),
                        cutoff=RadialCutoff(1.4, 2.0))
    grid = make_volume_grid((-2.2, 2.2), 10)
    data = acoustic_to_schrodinger(medium, 1.5, grid)
    configs["acoustic"] = DeltaSystem(data.V, data.delta, 1.5).solve(plane_wave(EZ))

    all_ok = True
    details = []
    for name, target in configs.items():
        rep = sommerfeld_check(target, target.k, name=f"sommerfeld[{name}]")
        all_ok &= rep.passed
        details.append(f"{name}: ratios {['%.2f' % q for q in rep.metrics['decay_ratios']]}")
        assert rep.passed, (name, rep.metrics)
    report(6, all_ok, "radiation residual decay >= 1.8x per doubling; " + "; ".join(details))


def test_criterion_7_acoustic_consistency(obs_grid):
    mesh = make_sphere_mesh(1.0, 2)
    cutoff = RadialCutoff(1.4, 2.0)
    grid = make_volume_grid((-2.2, 2.2), 12)

    # smooth medium (no shell): delta pipeline vs volume-only pipeline
    smooth = MediumSpec(gamma=mesh, shell_density=np.zeros(mesh.n_panels),
                        v_bumps=(GaussianBump(amplitude=0.5, center=(0.0, 0.0, 0.0), width=0.7),),
                        cutoff=cutoff)
    omega = 1.5
    data = acoustic_to_schrodinger(smooth, omega, grid)
    sol_d = DeltaSystem(data.V, data.delta, omega).solve(plane_wave(EZ))
    support, source, _ = reference_lippmann_schwinger(data.V, plane_wave(EZ), omega)
    obs = obs_grid.normals
    ff_d = farfield_source(sol_d, obs)
    src = source * grid.cell_volume
    centers = grid.cell_center[support]
    ff_v = -(np.exp(-1j * omega * (obs @ centers.T)) @ src) / (4 * np.pi)
    gap_ff = float(np.linalg.norm(ff_d - ff_v) / np.linalg.norm(ff_v))

    # two-frequency structure on a medium with both shell and speed content
    full = MediumSpec(gamma=mesh, shell_density=np.full(mesh.n_panels, 0.8),
                      v_bumps=(GaussianBump(amplitude=0.4, center=(0.1, 0.0, 0.0), width=0.8),),
                      cutoff=cutoff)
    w1, w2 = 1.0, 2.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        dA = acoustic_to_schrodinger(full, w1, grid)
        dB = acoustic_to_schrodinger(full, w2, grid)
    v = eval_sound_speed(full, grid.cell_center)
    expected = (w2**2 - w1**2) * (1.0 - 1.0 / v**2)
    pot_gap = float(np.max(np.abs((dB.V.values - dA.V.values) - expected)))
    pot_scale = max(1.0, float(np.max(np.abs(expected))))
    alpha_bitwise = bool(np.array_equal(dA.delta.alpha, dB.delta.alpha))

    ok = gap_ff <= 1e-3 and pot_gap <= 1e-12 * pot_scale and alpha_bitwise
    report(7, ok, f"smooth-medium far-field gap {gap_ff:.2e} <= 1e-3; "
                  f"two-frequency potential identity {pot_gap:.2e} <= 1e-12; "
                  f"alpha bitwise omega-independent: {alpha_bitwise}")
    assert gap_ff <= 1e-3
    assert pot_gap <= 1e-12 * pot_scale
    assert alpha_bitwise


def _medium_builder(xi, v_amp=0.0):
    def make(level):
        mesh = make_sphere_mesh(1.0, level)
        v_bumps = (
            (GaussianBump(amplitude=v_amp, center=(0.0, 0.0, 0.0), width=0.6),)
            if v_amp else ()
        )
        return MediumSpec(gamma=mesh, shell_density=np.full(mesh.n_panels, xi),
                          v_bumps=v_bumps, cutoff=RadialCutoff(1.4, 2.0))
    return make


def test_criterion_8_desk_uniqueness():
    grid = make_volume_grid((-2.2, 2.2), 12)
    obs = direction_grid(4, 8)
    inc = direction_grid(3, 4).normals
    omega, omega_t = 1.0, 2.0

    r_shell = uniqueness_experiment(_medium_builder(1.0), _medium_builder(1.5),
                                    omega, omega_t, grid, obs, inc, levels=(2, 3))
    r_speed = uniqueness_experiment(_medium_builder(1.0), _medium_builder(1.0, v_amp=0.4),
                                    omega, omega_t, grid, obs, inc, levels=(2, 3))
    grid_small = make_volume_grid((-2.2, 2.2), 10)
    r_same = uniqueness_experiment(_medium_builder(1.0), _medium_builder(1.0),
                                   omega, omega_t, grid_small, obs, inc, levels=(1, 2))

    ok = r_shell.passed and r_speed.passed and r_same.passed
    detail = []
    for tag, r in (("shell", r_shell), ("speed", r_speed)):
        m = r.metrics
        detail.append(
            f"{tag}: D = ({m[f'distance_w{omega:g}']:.3f}, {m[f'distance_w{omega_t:g}']:.3f}) "
            f">= 10 x N = ({m[f'noise_floor_w{omega:g}']:.4f}, {m[f'noise_floor_w{omega_t:g}']:.4f})")
    detail.append("identical media within the floor: "
                  f"D = {r_same.metrics[f'distance_w{omega:g}']:.1e}")
    report(8, ok, "; ".join(detail))
    assert r_shell.passed, r_shell.metrics
    assert r_speed.passed, r_speed.metrics
    assert r_same.passed, r_same.metrics

    # the speed-only difference scales with the (w2^2 - w1^2) structure
    ratio = r_speed.metrics[f"distance_w{omega_t:g}"] / r_speed.metrics[f"distance_w{omega:g}"]
    assert ratio > 1.0


def test_criterion_9_oracle_internals():
    checks = []

    # Bessel/Hankel Wronskian j h' - j' h = i/x^2
    worst = 0.0
    for ell in (0, 3, 10):
        for x in (0.5, 1.0, 5.0):
            j, jp = spherical_bessel(ell, x)
            h, hp = spherical_hankel(ell, x)
            worst = max(worst, abs(j * hp - jp * h - 1j / x**2) * x**2)
    checks.append(("wronskian", worst, 1e-12))

    # alpha = 0 => t = 0
    sol0 = solve_partial_waves(RadialMedium(a=1.0, alpha=0.0), 2.0)
    checks.append(("zero strength", float(np.max(np.abs(sol0.t))), 0.0))

    # per-mode flux conservation
    sol = solve_partial_waves(RadialMedium(a=1.0, alpha=2.0), 2.0)
    active = np.abs(sol.t) > 1e-13
    checks.append(("unitarity", float(np.max(np.abs(np.abs(sol.s_matrix()[active]) - 1.0))), 1e-10))

    # sound-soft limit at alpha = 1e6
    hard = solve_partial_waves(RadialMedium(a=1.0, alpha=1e6), 2.0, L=25)
    worst = 0.0
    for ell in range(10):
        j, _ = spherical_bessel(ell, 2.0)
        h, _ = spherical_hankel(ell, 2.0)
        worst = max(worst, abs(hard.t[ell] + j / h) / max(abs(j / h), 1e-10))
    checks.append(("sound-soft limit", worst, 1e-4))

    ok = all(val <= tol for _, val, tol in checks)
    report(9, ok, "; ".join(f"{name} {val:.2e} <= {tol:g}" for name, val, tol in checks))
    for name, val, tol in checks:
        assert val <= tol, name
