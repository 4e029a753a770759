"""Refinement study of the single-layer jump relation [d_n SL xi] = -xi.

The normal derivative of a single-layer potential jumps by minus the
density across the surface.  The check takes the normal derivative on both
sides of each panel from the analytic gradient of the layer potential; the
error is dominated by the probe offset (a fixed fraction of the panel
diameter), so it shrinks with refinement.
"""

import numpy as np

from deltashell import check_jump_relation, make_sphere_mesh

print(f"{'level':>6} {'panels':>8} {'constant density':>18} {'Y_1 density':>14}")
for level in (1, 2, 3):
    mesh = make_sphere_mesh(1.0, level)
    const = np.ones(mesh.n_panels)
    y1 = mesh.panel_centroid[:, 2] / np.linalg.norm(mesh.panel_centroid, axis=1)
    e_const = check_jump_relation(mesh, 0.0, const)
    e_y1 = check_jump_relation(mesh, 0.0, y1)
    print(f"{level:>6} {mesh.n_panels:>8} {e_const:>18.4f} {e_y1:>14.4f}")

print("\nHelmholtz kernel (k = 1.5), constant density, 320 panels:")
mesh = make_sphere_mesh(1.0, 2)
print(f"  relative jump error: {check_jump_relation(mesh, 1.5, np.ones(mesh.n_panels)):.4f}")
