"""Physical invariants of the coupled solve, checked as hypothesis properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltashell.boundary import DeltaSpec, DeltaSystem, assemble_single_layer
from deltashell.kernels import plane_wave

from conftest import bump_potential

K = 1.7
T_REF = 1e-8


@pytest.fixture(scope="module")
def alpha_path(sphere_meshes, small_grid):
    """A bump with a shell alpha0 = 1.5 + 0.5 z, and the cells-only field it starts from."""
    mesh = sphere_meshes[1]
    V = bump_potential(small_grid, 0.6)
    alpha0 = 1.5 + 0.5 * mesh.panel_centroid[:, 2]

    def field(t):
        delta = None if t == 0 else DeltaSpec(mesh, t * alpha0)
        return DeltaSystem(V, delta, K).solve(plane_wave([0.0, 0.0, 1.0])).volume_field.values

    base = field(0)
    slope = np.linalg.norm(field(T_REF) - base) / T_REF
    coupling = np.linalg.norm(alpha0[:, None] * assemble_single_layer(mesh, K), 2)
    return field, base, slope, coupling


@settings(derandomize=True, deadline=None, max_examples=6)
@given(exponent=st.floats(min_value=-6.0, max_value=-1.0))
def test_alpha_to_zero_approaches_the_cells_only_field(alpha_path, exponent):
    # psi_t = psi_0 + t psi' + O(t^2): gap(t)/t tends to slope = |psi'|, and the
    # second-order part relative to the first is at most t c / (1 - t c) <= 2 t c
    # for t <= 0.1, with c = |alpha0 S|_2 (0.99 here) standing in for the
    # V-background coupling |alpha0 gamma0 SL^V| (measured ratio 0.25 t)
    field, base, slope, coupling = alpha_path
    t = 10.0**exponent
    gap = np.linalg.norm(field(t) - base)
    assert abs(gap / t - slope) <= 2.0 * (t + T_REF) * coupling * slope
