"""Two independent far-field extractions of one discrete solution.

The far field can be read off the discrete sources directly, or from the
flux (Kirchhoff) integral over any sphere enclosing the scatterer.  Both
describe the same solution, so they agree far below the discretization
error, and the flux integral does not care which radius is used.
"""

import numpy as np

from deltashell import (
    DeltaSpec,
    DeltaSystem,
    GaussianBump,
    PotentialSample,
    RadialCutoff,
    farfield_kirchhoff,
    farfield_source,
    make_sphere_grid,
    make_sphere_mesh,
    make_volume_grid,
    plane_wave,
)

K = 2.0
mesh = make_sphere_mesh(1.0, 2)
grid = make_volume_grid((-1.6, 1.6), 12)

bump, _, _ = GaussianBump(amplitude=0.6, center=(0.0, 0.0, 0.0), width=0.45).fields(grid.cell_center)
cut, _, _ = RadialCutoff(1.05, 1.40).fields(grid.cell_center)
V = PotentialSample(grid=grid, values=bump * cut)
delta = DeltaSpec(mesh=mesh, alpha=np.full(mesh.n_panels, 1.0))

sol = DeltaSystem(V, delta, K).solve(plane_wave([0.0, 0.0, 1.0]))
obs = make_sphere_grid(1.0, 8, 16).normals

src = farfield_source(sol, obs)
kir_r2 = farfield_kirchhoff(sol, 2.0, obs)
kir_r3 = farfield_kirchhoff(sol, 3.0, obs)

def rel(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)

print(f"source route  vs flux integral (R = 2): {rel(kir_r2, src):.2e}")
print(f"flux at R = 2 vs flux at R = 3        : {rel(kir_r2, kir_r3):.2e}")
print(f"|psi_inf| range over directions       : "
      f"{np.abs(src).min():.4f} .. {np.abs(src).max():.4f}")
