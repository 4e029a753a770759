"""End-to-end acoustic run: medium with a density kink -> far fields.

Builds a medium whose density has a normal-derivative jump across the unit
sphere (a surface source of strength xi under the static single-layer
kernel, smoothly cut off), converts it to the equivalent volume potential
plus surface strength, solves at two frequencies, and prints the resulting
far-field amplitudes.  The conversion satisfies two exact structural
identities that the inverse problem relies on: alpha is frequency
independent, and V(w2) - V(w1) = (w2^2 - w1^2)(1 - 1/v^2).
"""

import numpy as np

from deltashell import (
    GaussianBump,
    MediumSpec,
    RadialCutoff,
    acoustic_farfield,
    acoustic_to_schrodinger,
    eval_density,
    eval_sound_speed,
    make_sphere_grid,
    make_sphere_mesh,
    make_volume_grid,
)

mesh = make_sphere_mesh(1.0, 2)
medium = MediumSpec(
    gamma=mesh,
    shell_density=np.full(mesh.n_panels, 1.0),
    v_bumps=(GaussianBump(amplitude=0.3, center=(0.0, 0.0, 0.0), width=0.6),),
    cutoff=RadialCutoff(1.4, 2.0),
)
grid = make_volume_grid((-2.2, 2.2), 12)

rho0, _, _ = eval_density(medium, np.zeros((1, 3)))
print(f"density at the origin: {rho0[0]:.4f} (1 + shell potential + bumps)")
print(f"sound speed at origin: {eval_sound_speed(medium, np.zeros((1, 3)))[0]:.4f}")

w1, w2 = 1.0, 2.0
d1 = acoustic_to_schrodinger(medium, w1, grid)
d2 = acoustic_to_schrodinger(medium, w2, grid)
print(f"surface strength alpha: {d1.delta.alpha[0]:.4f} per panel "
      f"(frequency independent: {np.array_equal(d1.delta.alpha, d2.delta.alpha)})")
v = eval_sound_speed(medium, grid.cell_center)
identity_gap = np.max(np.abs((d2.V.values - d1.V.values) - (w2**2 - w1**2) * (1 - 1 / v**2)))
print(f"two-frequency potential identity gap: {identity_gap:.2e}")

obs = make_sphere_grid(1.0, 6, 12)
incidence = np.array([[0.0, 0.0, 1.0]])
# one call samples the medium once and solves at both frequencies
for w, ff in zip((w1, w2), acoustic_farfield(medium, (w1, w2), incidence, obs, grid)):
    amp = np.sqrt(obs.weights @ np.abs(ff.values[0]) ** 2)
    print(f"omega = {w:g}: far-field L2 amplitude {amp:.4f}, "
          f"forward value {ff.values[0, np.argmax(obs.normals @ [0, 0, 1])]:.4f}")
