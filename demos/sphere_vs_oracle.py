"""Delta shell on the unit sphere against the partial-wave reference.

Solves plane-wave scattering by a constant-strength shell (alpha = 2) on
icosphere meshes and compares the far field on a 12 x 24 direction grid with
the exact mode-matching solution: first at k = 2 on levels 1-3, then the
oracle-error table at k = 2, 5 and 8 on levels 2-4 (320, 1280 and 5120
panels), each entry with the seconds of its solve.  The relative L2 error
should drop roughly like the squared panel size.

    python demos/sphere_vs_oracle.py            # both tables, about 15 s on 2 cores
"""

import time

import numpy as np

from deltashell import (
    DeltaSpec,
    DeltaSystem,
    RadialMedium,
    farfield_source,
    make_sphere_grid,
    make_sphere_mesh,
    mie_farfield_values,
    plane_wave,
    solve_partial_waves,
)

K, ALPHA = 2.0, 2.0
INCIDENCE = np.array([0.0, 0.0, 1.0])

obs = make_sphere_grid(1.0, 12, 24)


def oracle_error(mesh, k, reference):
    """The solution at k on mesh, its far field's relative L2 error against ``reference``, and
    the seconds from the system's fill to the far field."""
    t0 = time.perf_counter()
    system = DeltaSystem(None, DeltaSpec(mesh=mesh, alpha=np.full(mesh.n_panels, ALPHA)), k)
    sol = system.solve(plane_wave(INCIDENCE))
    ff = farfield_source(sol, obs.normals)
    seconds = time.perf_counter() - t0
    err = np.sqrt(obs.weights @ np.abs(ff - reference) ** 2) / np.sqrt(obs.weights @ np.abs(reference) ** 2)
    return sol, err, seconds


oracle = solve_partial_waves(RadialMedium(a=1.0, alpha=ALPHA), K, L=50)
reference = mie_farfield_values(oracle, INCIDENCE, obs.normals)
print(f"oracle: {oracle.L + 1} modes, largest |t_l| = {np.abs(oracle.t).max():.4f}")

print(f"{'panels':>8} {'rel L2 error':>14} {'seconds':>9}")
for level in (1, 2, 3):
    mesh = make_sphere_mesh(1.0, level)
    sol, err, seconds = oracle_error(mesh, K, reference)
    print(f"{mesh.n_panels:>8} {err:>14.5f} {seconds:>9.1f}")

print("\nbackscatter amplitude (BEM vs oracle):")
back = np.array([[0.0, 0.0, -1.0]])
print("  BEM   :", farfield_source(sol, back)[0])
print("  oracle:", mie_farfield_values(oracle, INCIDENCE, back)[0])

LEVELS, WAVENUMBERS = (2, 3, 4), (2.0, 5.0, 8.0)
meshes = {level: make_sphere_mesh(1.0, level) for level in LEVELS}
print("\noracle error (seconds per solve) on the 12 x 24 grid:")
print(f"{'k':>4} " + " ".join(f"{meshes[level].n_panels:>22}" for level in LEVELS))
for k in WAVENUMBERS:
    ref = mie_farfield_values(solve_partial_waves(RadialMedium(a=1.0, alpha=ALPHA), k, L=50), INCIDENCE, obs.normals)
    cells = []
    for level in LEVELS:
        _, err, seconds = oracle_error(meshes[level], k, ref)
        cells.append(f"{err:.5g} ({seconds:.2f} s)")
    print(f"{k:>4g} " + " ".join(f"{cell:>22}" for cell in cells))
