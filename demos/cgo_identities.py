"""The integral identities behind two-frequency inverse uniqueness.

For two media and complex directions rho1, rho2 with conj(rho1) + rho2 =
-i xi, the weighted pairing of the two total fields against the data
difference equals a boundary Wronskian (Green's identity), and decomposes
exactly into the Fourier-transform difference of the data plus a finite-w
remainder.  Driving that remainder to zero along growing-w sequences is the
analytic heart of the uniqueness theorem; here both identities are verified
at fixed w, and the remainder is simply reported.
"""

import numpy as np

from deltashell import (
    DeltaSpec,
    DeltaSystem,
    Exponential,
    GaussianBump,
    PotentialSample,
    RadialCutoff,
    fourier_identity_check,
    green_pairing_check,
    make_sphere_mesh,
    make_volume_grid,
    sigma_pair_for_xi,
)

mesh = make_sphere_mesh(1.0, 2)
grid = make_volume_grid((-1.6, 1.6), 12)


k, w = 1.0, 0.5


def medium(amplitude, alpha):
    """The assembled system of one medium."""
    bump, _, _ = GaussianBump(amplitude=amplitude, center=(0.0, 0.0, 0.0), width=0.45).fields(grid.cell_center)
    cut, _, _ = RadialCutoff(1.05, 1.40).fields(grid.cell_center)
    return DeltaSystem(PotentialSample(grid=grid, values=bump * cut),
                       DeltaSpec(mesh=mesh, alpha=np.full(mesh.n_panels, alpha)), k)


sys1 = medium(0.35, 1.0)
sys2 = medium(-0.25, 1.5)
xi = np.array([1.0, 0.0, 0.0])
rho1, rho2 = sigma_pair_for_xi(xi, k, w)
print(f"rho1 = {rho1.rho}")
print(f"rho2 = {rho2.rho}")
print(f"conj(rho1) + rho2 + i xi = {np.conj(rho1.rho) + rho2.rho + 1j * xi}")

# the CGO solutions psi_m = e^{rho_m . x} (1 + phi_m): one solve per medium
psi1 = sys1.solve(Exponential(rho1))
psi2 = sys2.solve(Exponential(rho2))

green = green_pairing_check(psi1, psi2, R=1.8)
print("\nGreen pairing (volume+surface pairing vs boundary Wronskian):")
print(f"  LHS = {complex(green.metrics['lhs_re'], green.metrics['lhs_im']):.6f}")
print(f"  RHS = {complex(green.metrics['rhs_re'], green.metrics['rhs_im']):.6f}")
print(f"  relative gap = {green.metrics['rel_gap']:.2e}  -> {'PASS' if green.passed else 'FAIL'}")

four = fourier_identity_check(psi1, psi2, xi)
print("\nFinite-w decomposition (pairing = -(Fourier difference) + F_xi):")
print(f"  split closes to {four.metrics['split_err']:.2e}")
print(f"  |F_xi| = {abs(complex(four.metrics['F_re'], four.metrics['F_im'])):.4f}")
print(f"  |Fourier difference| = "
      f"{abs(complex(four.metrics['fourier_diff_re'], four.metrics['fourier_diff_im'])):.4f}")
print(f"  finite-w remainder |F - D| = {four.metrics['finite_w_remainder']:.4f} (reported only)")
