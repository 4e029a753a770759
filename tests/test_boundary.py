"""Single-layer operator, coupled delta solve, jump relations."""

import dataclasses
import logging
import re
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import integrate

from deltashell import _dense, acoustic, boundary, farfield, harness
from deltashell._dense import ExceptionalFrequencyError, GuardedLU
from deltashell.boundary import (
    _NEAR_RATIO,
    DeltaSolution,
    DeltaSpec,
    DeltaSystem,
    _flat_triangle_moments,
    assemble_single_layer,
    check_jump_relation,
    eval_scattered_field,
    eval_scattered_gradient,
    eval_total_field,
    layer_potential,
    layer_potential_gradient,
    near_surface,
    on_surface,
)
from deltashell.acoustic import MediumSpec, RadialCutoff
from deltashell.farfield import direction_grid, farfield_kirchhoff, farfield_source
from deltashell.geometry import SurfaceMesh, make_sphere_grid, make_sphere_mesh, make_volume_grid, triangle_rule
from deltashell.kernels import (
    Exponential,
    Herglotz,
    eval_incident,
    plane_wave,
    radial_gradient_factor,
    radial_kernel,
    radial_remainder,
    radial_remainder_gradient_factor,
    sigma_pair_for_xi,
)
from deltashell.volume import PotentialSample, assemble_volume_operator, volume_potential

from conftest import bump_potential, mixed_incidents, reference_lippmann_schwinger

EZ = np.array([0.0, 0.0, 1.0])


class TestSingleLayer:
    def test_static_self_integral_vs_quadrature(self, rng):
        tri = rng.normal(size=(3, 3))
        tri[:, 2] = 0.0  # planar, arbitrary in-plane shape
        mesh = SurfaceMesh.from_arrays(tri, [[0, 1, 2]])
        c = mesh.panel_centroid[0]

        def integrand(v, u):
            y = tri[0] + u * (tri[1] - tri[0]) + v * (tri[2] - tri[0])
            return 1.0 / np.linalg.norm(c - y)

        jac = 2.0 * mesh.panel_area[0]
        val, _ = integrate.dblquad(integrand, 0, 1, 0, lambda u: 1 - u, epsabs=1e-12)
        closed = _flat_triangle_moments(mesh.panel_centroid, mesh, np.arange(mesh.n_panels), grad=False)[:, 0]
        assert_allclose(closed[0], val * jac / (4 * np.pi), rtol=1e-10)

    def test_flat_square_assembles_coplanar_pairs(self):
        # each centroid lies in the plane of the other panel, outside it; k times the
        # panel diameter is 0.37, inside the 0.33-1.05 of the sphere meshes used here
        square = SurfaceMesh.from_arrays(0.2 * np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]]),
                                         [[0, 1, 2], [0, 2, 3]])
        k = 1.3
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            S = assemble_single_layer(square, k)
        tri = square.vertices[square.triangles[1]]
        x = square.panel_centroid[0]

        def part(v, u, f):
            r = np.linalg.norm(x - (tri[0] + u * (tri[1] - tri[0]) + v * (tri[2] - tri[0])))
            return f(np.exp(1j * k * r) / (4 * np.pi * r))

        jac = 2.0 * square.panel_area[1]
        ref = sum(unit * integrate.dblquad(part, 0, 1, 0, lambda u: 1 - u, args=(f,), epsabs=1e-13)[0]
                  for unit, f in ((1.0, np.real), (1j, np.imag))) * jac
        assert abs(S[0, 1] - ref) <= 5e-6 * abs(ref)

    def test_near_entries_match_converged_reference(self, sphere_meshes):
        # reference: closed-form 1/r part plus the remainder (e^{ikr} - 1)/(4 pi r)
        # on depth-4 uniform subdivisions (256 subtriangles per panel)
        mesh = sphere_meshes[3]
        k = 2.0
        rows = np.arange(0, mesh.n_panels, 32)
        c = mesh.panel_centroid[rows]
        ii, qq = np.nonzero(np.linalg.norm(c[:, None] - mesh.panel_centroid[None], axis=-1)
                            < _NEAR_RATIO * mesh.panel_diameter[None, :])
        assert np.any(rows[ii] == qq) and np.any(rows[ii] != qq)
        corners = mesh.panel_corners[qq]
        x = c[ii]
        sub = corners
        for _ in range(4):
            a, b, d = sub[:, 0], sub[:, 1], sub[:, 2]
            ab, bd, da = (a + b) / 2, (b + d) / 2, (d + a) / 2
            sub = np.concatenate([np.stack(t, axis=1) for t in
                                  ((a, ab, da), (b, bd, ab), (d, da, bd), (ab, bd, da))])
        n_sub = len(sub) // len(x)
        qpts, w = triangle_rule(sub[:, 0], sub[:, 1], sub[:, 2])        # rows: pair fastest
        r = np.linalg.norm(np.tile(x, (n_sub, 1))[:, None, :] - qpts, axis=-1)
        rem = (np.exp(1j * k * r) - 1.0) / (4 * np.pi * r) @ w * mesh.panel_area[np.tile(qq, n_sub)] / n_sub
        ref = _flat_triangle_moments(x, mesh, qq, grad=False)[:, 0] + rem.reshape(n_sub, -1).sum(axis=0)
        S = assemble_single_layer(mesh, k)
        assert np.max(np.abs(S[rows[ii], qq] - ref) / np.abs(ref)) <= 5e-6

    def test_uniform_shell_trace_converges_to_one(self, sphere_meshes):
        # Newtonian potential of the unit shell equals 1 on the surface
        errs = []
        for s in (1, 2, 3):
            mesh = sphere_meshes[s]
            S = assemble_single_layer(mesh, 0.0)
            errs.append(np.max(np.abs(S @ np.ones(mesh.n_panels) - 1.0)))
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 3e-3

    def test_uniform_layer_at_center(self, sphere_meshes):
        # every source point at unit distance: value e^{ik} in the continuum
        mesh = sphere_meshes[2]
        k = 1.3
        val = layer_potential(np.zeros((1, 3)), mesh, np.ones(mesh.n_panels), k)[0]
        assert abs(val - np.exp(1j * k)) < 2e-2

    def test_complex_symmetry_within_quadrature(self, sphere_meshes):
        # adjacent entries integrate over different panels, so symmetry holds
        # at the operator scale (row sums ~ shell trace ~ 1), improving like h;
        # the 1e-3 level is reached at 5120 panels (asserted with the
        # acceptance-scale system)
        asyms = []
        for s in (1, 2, 3):
            S = assemble_single_layer(sphere_meshes[s], 1.7)
            asyms.append(np.max(np.abs(S - S.T)) / np.linalg.norm(S, 1))
            assert np.array_equal(np.diag(S), np.diag(S.T))  # analytic self part
        assert asyms[0] > asyms[1] > asyms[2]
        assert asyms[-1] < 2e-3

    def test_potential_on_a_quadrature_point_is_finite(self, sphere_meshes):
        # r = 0 in the base rule; the pair is near, so the base rule sees the placeholder
        # distance and the value is the limit of the continuous single layer
        mesh = sphere_meshes[1]
        qpts, _ = mesh.quadrature_points()
        eta = np.ones(mesh.n_panels)
        x = qpts[3]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            on = layer_potential(x, mesh, eta, 1.0)
        off = layer_potential(x + 1e-9 * mesh.panel_diameter[3] * mesh.panel_normal[3], mesh, eta, 1.0)
        assert np.all(np.isfinite(on))
        assert np.all(np.abs(on - off) <= 1e-8 * np.abs(off))

    def test_layer_matrix_is_chunk_invariant(self, sphere_meshes, monkeypatch):
        # a filled block does not depend on where the rows split
        mesh = sphere_meshes[2]
        points = np.concatenate([mesh.panel_centroid, 1.1 * mesh.panel_centroid[:40]])
        sources = panel_sources(mesh)
        default = boundary._fill(points, sources, 1.7)
        monkeypatch.setattr(_dense, "CHUNK", mesh.n_panels * 3)  # one row per chunk
        assert len(_dense.row_chunks(len(points), mesh.n_panels * 3)) == len(points)
        assert np.array_equal(boundary._fill(points, sources, 1.7), default)
        assert np.array_equal(panel_rows(points, mesh, 1.7), default)

    def test_blocks_do_not_lose_digits_under_translation(self, sphere_meshes):
        # a rigid shift by 100 radii moves the blocks by rounding only: the offsets d = x - c, and the far
        # rule's P d = P x - P c from per-source coefficients, lose digits linearly in |c|/|d| (measured
        # 2.4e-13 of S's largest entry, 1.4e-13 and 2.2e-13 of the jet's value and gradient)
        mesh = sphere_meshes[3]
        shift = np.array([60.0, -48.0, 64.0])                                  # |shift| = 100 radii
        moved = SurfaceMesh.from_arrays(mesh.vertices + shift, mesh.triangles)
        c = mesh.panel_centroid
        x = np.concatenate([0.5 * c[::7], 1.03 * c[::5], 2.0 * c[::11]])     # inside, near and far targets
        for k in (0.0, 2.0):
            S = assemble_single_layer(mesh, k)
            assert np.max(np.abs(assemble_single_layer(moved, k) - S)) <= 1e-12 * np.max(np.abs(S))
            jet = panel_rows(x, mesh, k, grad=True)
            gap = np.abs(panel_rows(x + shift, moved, k, grad=True) - jet)
            for part in (np.s_[..., 0], np.s_[..., 1:]):
                assert np.max(gap[part]) <= 1e-12 * np.max(np.abs(jet[part]))

    @pytest.mark.parametrize("offset", [1e2, 1e4])
    def test_quadratic_form_does_not_lose_digits_under_translation(self, sphere_meshes, monkeypatch, offset):
        # the far rule's q = |P d|^2, d = x - c, is squared from P x - P c, so a rigid shift by L
        # radii loses digits linearly in L (measured 1.34e-14 L of the largest quadrupole entry;
        # the expanded x.M x - 2 x.M c + c.M c loses them as L^2: 2.6e-10 at 100 radii, 2.7e-6 at
        # 1e4).  The quadrupole part alone is the block of the table with A = tr M = 0, here with
        # no near pair.  The far field's |P x_hat|^2 reads no point: one panel's far-field
        # modulus moves with the rounding of its shifted corners (measured 3.7e-16 L).
        def quadrupole(src):
            return dataclasses.replace(src, weight=np.zeros_like(src.weight))

        mesh = sphere_meshes[3]
        shift = offset * np.array([0.6, -0.48, 0.64])
        moved = SurfaceMesh.from_arrays(mesh.vertices + shift, mesh.triangles)
        x = np.concatenate([0.5 * mesh.panel_centroid[::3], 2.0 * mesh.panel_centroid[::3]])
        assert len(boundary._near_pairs(x, panel_sources(mesh))[0]) == 0
        q = boundary._kernel_rows(x, quadrupole(panel_sources(mesh)), 0.0)                # 3 q u^5 / (8 pi)
        gap = np.abs(boundary._kernel_rows(x + shift, quadrupole(panel_sources(moved)), 0.0) - q)
        assert np.max(gap) <= 1e-13 * offset * np.max(np.abs(q))

        sources = farfield._support_sources
        monkeypatch.setattr(farfield, "_support_sources", lambda *args: quadrupole(sources(*args)))
        obs = direction_grid(6, 12).normals

        def weight(corners):
            # |e^{-ik x.c} k^2 |P x|^2 / 2| of a one-panel solution with eta = 1 at k = 3
            sol = DeltaSolution(eta=np.ones(1, dtype=complex), incident=plane_wave(EZ), k=3.0, residual=0.0,
                                trace=np.ones(1, dtype=complex), potential=None,
                                delta=DeltaSpec(mesh=SurfaceMesh.from_arrays(corners, [[0, 1, 2]]), alpha=1.0),
                                support=np.zeros(0, dtype=int), source_density=np.zeros(0, dtype=complex),
                                psi_support=np.zeros(0, dtype=complex))
            return np.abs(farfield_source(sol, obs))

        w = weight(TRI)
        assert np.max(np.abs(weight(TRI + shift) - w)) <= 1e-14 * offset * np.max(w)

    def test_panel_cap(self, sphere_meshes, monkeypatch):
        monkeypatch.setattr(boundary, "MAX_PANELS", 100)
        with pytest.raises(ValueError, match="cap is 100"):
            assemble_single_layer(sphere_meshes[2], 1.0)


TRI = np.array([[0.1, -0.2, 0.0], [1.3, 0.1, 0.05], [0.4, 0.9, -0.1]])
TRI_N = np.cross(TRI[1] - TRI[0], TRI[2] - TRI[0]) / np.linalg.norm(np.cross(TRI[1] - TRI[0], TRI[2] - TRI[0]))
TRI_MESH = SurfaceMesh.from_arrays(TRI, [[0, 1, 2]])
CLOSED_FORM_TARGETS = {
    "above the interior": TRI.mean(axis=0) + 0.3 * TRI_N,
    "coplanar outside": TRI[0] + 1.2 * (TRI[2] - TRI[0]) - 0.5 * (TRI[1] - TRI[0]),
    "on an edge's extension line": TRI[0] + 1.4 * (TRI[1] - TRI[0]),
    "near a vertex": TRI[2] - 0.01 * TRI_N + 0.005 * (TRI[0] - TRI[2]),
}


class TestClosedForm:
    """The flat-triangle integrals of 1/r and r (over 4 pi) and their gradients."""

    @staticmethod
    def _quad(fun):
        def integrand(v, u):
            return fun(TRI[0] + u * (TRI[1] - TRI[0]) + v * (TRI[2] - TRI[0]))

        jac = np.linalg.norm(np.cross(TRI[1] - TRI[0], TRI[2] - TRI[0]))
        return integrate.dblquad(integrand, 0, 1, 0, lambda u: 1 - u, epsabs=1e-13)[0] * jac / (4 * np.pi)

    @pytest.mark.parametrize("target", list(CLOSED_FORM_TARGETS))
    def test_against_dblquad_and_central_differences(self, target):
        x = CLOSED_FORM_TARGETS[target]
        value = _flat_triangle_moments(x[None], TRI_MESH, np.zeros(1, dtype=int), grad=False)[0]
        jet = _flat_triangle_moments(x[None], TRI_MESH, np.zeros(1, dtype=int), grad=True)[0]
        assert np.array_equal(jet[:, 0], value)
        grad = jet[:, 1:]
        ref = [self._quad(lambda y: 1 / np.linalg.norm(x - y)), self._quad(lambda y: np.linalg.norm(x - y))]
        assert_allclose(value, ref, rtol=1e-10)
        ref_grad = [[self._quad(lambda y: -(x - y)[i] / np.linalg.norm(x - y) ** 3) for i in range(3)],
                    [self._quad(lambda y: (x - y)[i] / np.linalg.norm(x - y)) for i in range(3)]]
        for g, r in zip(grad, ref_grad):
            assert np.linalg.norm(g - r) <= 1e-10 * np.linalg.norm(r)
        for j in (0, 1):
            fd = _central_gradient(
                lambda p: _flat_triangle_moments(p, TRI_MESH, np.zeros(len(p), dtype=int), grad=False)[:, j], x[None])
            assert np.linalg.norm(grad[j] - fd[0]) <= 1e-8 * np.linalg.norm(grad[j])


def _rel(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300)


FD_STEP = 1e-6


def _near_probes(mesh, q=0):
    """Points on panel q's normal through its centroid, at several fractions of the
    near threshold and one beyond it; those within a diameter on both sides."""
    c, n, d = mesh.panel_centroid[q], mesh.panel_normal[q], mesh.panel_diameter[q]
    ratios = (0.1, 0.325, 0.675, 1.25, 2.2, _NEAR_RATIO + 0.6)
    return np.array([c + s * f * d * n for f in ratios for s in ((1.0, -1.0) if f < 1.0 else (1.0,))])


def _assert_step_keeps_near_pairs(pts, mesh, h=FD_STEP):
    # central differences see one quadrature only if x +- h keeps the near pairs of x
    ratio = np.linalg.norm(pts[:, None, :] - mesh.panel_centroid[None], axis=-1) / mesh.panel_diameter
    assert np.min(np.abs(ratio - _NEAR_RATIO)) > 2 * h / np.min(mesh.panel_diameter)


def _central_gradient(f, pts, h=FD_STEP):
    grad = np.empty((len(pts), 3), dtype=complex)
    for ax in range(3):
        e = np.zeros(3)
        e[ax] = h
        grad[:, ax] = (f(pts + e) - f(pts - e)) / (2 * h)
    return grad


class TestGradients:
    def test_layer_gradient_matches_central_differences(self, sphere_meshes, rng):
        mesh = sphere_meshes[2]
        k = 1.7
        eta = rng.normal(size=mesh.n_panels) + 1j * rng.normal(size=mesh.n_panels)
        pts = np.concatenate([_near_probes(mesh, q) for q in (0, 101)])
        _assert_step_keeps_near_pairs(pts, mesh)
        grad = layer_potential_gradient(pts, mesh, eta, k)
        fd = _central_gradient(lambda x: layer_potential(x, mesh, eta, k), pts)
        for g, f in zip(grad, fd):
            assert np.linalg.norm(g - f) <= 1e-7 * np.linalg.norm(g)

    def test_layer_gradient_rejects_points_on_the_surface(self, sphere_meshes):
        mesh = sphere_meshes[1]
        qpts, _ = mesh.quadrature_points()
        v0, v1, v2 = mesh.panel_corners[3]
        for x in (mesh.panel_centroid[3], qpts[3, 1], 0.2 * v0 + 0.3 * v1 + 0.5 * v2,
                  0.5 * (v0 + v1), v2):
            with pytest.raises(ValueError, match="on the surface"):
                layer_potential_gradient(x[None], mesh, np.ones(mesh.n_panels), 1.0)

    @pytest.mark.parametrize("radius", [1e-6, 1e6])
    def test_layer_gradient_scales_with_the_mesh(self, rng, radius):
        # the on-surface tolerance scales with the panel diameter: at radius 1e6 a
        # point on a panel sits ~1e-10 off its plane after rounding
        mesh = make_sphere_mesh(radius, 2)
        k = 1.7 / radius
        eta = rng.normal(size=mesh.n_panels) + 1j * rng.normal(size=mesh.n_panels)
        c, n, d = mesh.panel_centroid[7], mesh.panel_normal[7], mesh.panel_diameter[7]
        pts = np.array([c + 0.1 * d * n, c - 0.1 * d * n])
        h = FD_STEP * np.min(mesh.panel_diameter)
        _assert_step_keeps_near_pairs(pts, mesh, h)
        grad = layer_potential_gradient(pts, mesh, eta, k)
        fd = _central_gradient(lambda x: layer_potential(x, mesh, eta, k), pts, h)
        for g, f in zip(grad, fd):
            assert np.linalg.norm(g - f) <= 1e-7 * np.linalg.norm(g)
        v0, v1, v2 = mesh.panel_corners[7]
        with pytest.raises(ValueError, match="on the surface"):
            layer_potential_gradient((0.2 * v0 + 0.3 * v1 + 0.5 * v2)[None], mesh, eta, k)

    def test_scattered_gradient_matches_central_differences(self, small_system, sphere_meshes):
        # probes near the fixture's mesh, also when the system has no surface
        mesh = sphere_meshes[1]
        sol = small_system.solve(plane_wave(EZ))
        pts = _near_probes(mesh)
        if len(sol.support):
            # a point inside a cell's self radius, where the cell adds no gradient
            grid = sol.potential.grid
            centers = grid.cell_center[sol.support]
            c = centers[np.argmin(np.linalg.norm(centers, axis=1))]
            pts = np.concatenate([pts, [c + 0.1 * np.min(grid.spacing) / np.sqrt(3.0)]])
            r = np.linalg.norm(pts[:, None, :] - centers[None], axis=-1)
            assert np.min(np.abs(r - 0.5 * np.min(grid.spacing))) > 2 * FD_STEP
        _assert_step_keeps_near_pairs(pts, mesh)
        grad = eval_scattered_gradient(sol, pts)
        fd = _central_gradient(lambda x: eval_scattered_field(sol, x), pts)
        for g, f in zip(grad, fd):
            assert np.linalg.norm(g - f) <= 1e-7 * max(np.linalg.norm(g), 1e-300)


def panel_sources(mesh):
    """The source table of the panels of ``mesh`` alone."""
    return boundary._sources(mesh)


def panel_rows(x, mesh, k, grad=False):
    """The kernel rows over the panels of ``mesh`` alone."""
    return boundary._kernel_rows(x, panel_sources(mesh), k, grad)


def cell_rows(x, cells, grid, k, grad=False):
    """The kernel rows over the cells of ``grid`` numbered ``cells`` alone."""
    return boundary._kernel_rows(x, boundary._sources(grid=grid, cells=cells), k, grad)


def kernel(x, y, k):
    """G_k(x, y) = exp(ik|x - y|)/(4 pi |x - y|) from the radial kernel."""
    return radial_kernel(np.linalg.norm(x - y, axis=-1), k)


class TestKernelEntries:
    def test_assembled_entries_are_kernel_values(self, sphere_meshes, small_grid):
        k = 1.7
        V = bump_potential(small_grid, 0.6)
        mesh = sphere_meshes[1]
        system = DeltaSystem(V, DeltaSpec(mesh=mesh, alpha=np.full(mesh.n_panels, 1.5)), k)
        vol = small_grid.cell_volume
        centers = small_grid.cell_center[V.support()]
        ns = len(centers)

        G = assemble_volume_operator(small_grid, k, cells=V.support())
        ii, jj = np.nonzero(~np.eye(len(centers), dtype=bool))
        assert_allclose(G[ii, jj], vol * kernel(centers[ii], centers[jj], k), rtol=1e-14)

        c = mesh.panel_centroid
        qq, jj = np.nonzero(np.linalg.norm(c[:, None] - centers[None], axis=-1)
                            >= 0.5 * np.min(small_grid.spacing))
        assert_allclose(system.kernel[ns:, :ns][qq, jj], vol * kernel(c[qq], centers[jj], k), rtol=1e-14)

        # the cell columns' jets outside the self region: vol [G, (x - c) radial_gradient_factor]
        x = np.concatenate([centers, 0.8 * c, 1.3 * c[::3]])
        jets = boundary._kernel_rows(x, boundary._sources(mesh, small_grid, V.support()), k, grad=True)[:, :ns]
        d = x[:, None] - centers[None]
        ii, jj = np.nonzero(np.linalg.norm(d, axis=-1) >= 0.5 * np.min(small_grid.spacing))
        factor = radial_gradient_factor(np.linalg.norm(d[ii, jj], axis=-1), k)
        assert_allclose(jets[ii, jj, 0], vol * kernel(x[ii], centers[jj], k), rtol=1e-14)
        assert_allclose(jets[ii, jj, 1:], vol * d[ii, jj] * factor[:, None], rtol=1e-14)

        # panel pairs beyond the near threshold carry the monopole-plus-quadrupole rule
        ratio = np.linalg.norm(c[:, None] - c[None], axis=-1) / mesh.panel_diameter[None, :]
        qq, pp = np.nonzero(ratio >= _NEAR_RATIO)
        assert len(qq) > 0
        assert_allclose(system.kernel[ns:, ns:][qq, pp], _taylor_rule(c[qq], mesh, pp, k, False), rtol=1e-13)

    @pytest.mark.parametrize("k", [0.0, 2.0, 5.0])
    def test_far_entries_match_a_subdivided_reference(self, sphere_meshes, k):
        # entries 2.8-10 panel diameters apart against the centroid rule on 16 x 16 subtriangles,
        # within a bound set by the 3-point rule's error on the same entries (1.0e-4, 1.7e-4 and
        # 1.5e-3 at k = 0, 2 and 5).  Both rules integrate quadratics exactly; the leading error is
        # the panel's third moment A/30 sum_i (v_i - c)^3, which the centroid rule drops and the
        # 3-point rule overshoots by A/120 sum_i (v_i - c)^3, so the far rule's error is about 4 times
        # the 3-point rule's (measured 3.1-4.2 times)
        mesh = sphere_meshes[2]
        c = mesh.panel_centroid
        x = np.concatenate([c[::32], 0.5 * c[::40], 1.5 * c[::40]])
        ratio = np.linalg.norm(x[:, None] - c[None], axis=-1) / mesh.panel_diameter
        ii, qq = np.nonzero((ratio >= _NEAR_RATIO) & (ratio < 10.0))
        n = 16
        uv = np.array([[[i, j], [i + 1, j], [i, j + 1]] for i in range(n) for j in range(n - i)]
                      + [[[i + 1, j], [i + 1, j + 1], [i, j + 1]] for i in range(n) for j in range(n - i - 1)]) / n
        sub = uv.mean(axis=1)                                          # subtriangle centroids, (n^2, 2)
        bary = np.column_stack([1.0 - sub.sum(axis=1), sub])
        ref = np.empty(len(ii), dtype=complex)
        for lo in range(0, len(ii), 200):
            y = np.einsum("sb,pbk->psk", bary, mesh.panel_corners[qq[lo:lo + 200]])
            ref[lo:lo + 200] = kernel(x[ii[lo:lo + 200], None], y, k).mean(axis=1)
        ref *= mesh.panel_area[qq]
        qpts, w = mesh.quadrature_points()
        three_point = kernel(x[ii][:, None], qpts[qq], k) @ w * mesh.panel_area[qq]
        far = panel_rows(x, mesh, k)[ii, qq]
        assert len(ii) > 6000
        assert _entry_gap(far, ref) <= 4.5 * _entry_gap(three_point, ref)


def _second_moments(mesh):
    """int_T (y - c)(y - c)^T dsigma per panel, from the 3-point rule, which integrates quadratics exactly."""
    qpts, w = mesh.quadrature_points()
    rel = qpts - mesh.panel_centroid[:, None, :]
    return np.einsum("p,g,pgi,pgj->pij", mesh.panel_area, w, rel, rel)


def _taylor_rule(x, mesh, panels, k, grad):
    """A G + M : grad grad G / 2 at the centroid of panel panels[j] seen from x[j], or with ``grad``
    its jet (the value, then the x-gradient), in exp form from the radial derivatives g1, g2, g3 of
    g = e^{ikr}/(4 pi r).  For a radial f and n = d/r:

        d_a d_b f = f2 n_a n_b + f1/r (delta_ab - n_a n_b),
        d_a d_b d_c f = f3 n_a n_b n_c + (f2 - f1/r)/r (delta_ab n_c + delta_ac n_b + delta_bc n_a - 3 n_a n_b n_c).
    """
    d = x - mesh.panel_centroid[panels]
    r = np.linalg.norm(d, axis=-1)
    n = d / r[:, None]
    A, M = mesh.panel_area[panels], _second_moments(mesh)[panels]
    Mn = np.einsum("pij,pj->pi", M, n)
    qn, T = np.einsum("pi,pi->p", n, Mn), np.trace(M, axis1=1, axis2=2)
    kr = k * r
    g = np.exp(1j * kr) / (4 * np.pi * r)
    g1 = g * (1j * kr - 1) / r
    g2 = g * (-kr**2 - 2j * kr + 2) / r**2
    g3 = g * (-1j * kr**3 + 3 * kr**2 + 6j * kr - 6) / r**3
    value = A * g + 0.5 * (g2 * qn + g1 / r * (T - qn))
    if not grad:
        return value
    h = (g2 - g1 / r) / r
    gradient = (A * g1 + 0.5 * (g3 * qn + h * (T - 3 * qn)))[:, None] * n + h[:, None] * Mn
    return np.concatenate([value[:, None], gradient], axis=-1)


def _exp_form_block(x, mesh, k, grad):
    """The complex128 panel block written with exp(ikr): ``_taylor_rule`` on far pairs, and on near
    pairs the closed-form (1/r - k^2 r/2)/(4 pi) plus ``kernels.radial_remainder`` on the 12-point subrule."""
    ii, qq, _ = boundary._near_pairs(x, panel_sources(mesh))
    far = np.ones((len(x), mesh.n_panels), dtype=bool)
    far[ii, qq] = False
    block = np.empty((len(x), mesh.n_panels) + ((4,) if grad else ()), dtype=complex)
    block[far] = _taylor_rule(x[np.nonzero(far)[0]], mesh, np.nonzero(far)[1], k, grad)
    corners, area = mesh.panel_corners, mesh.panel_area
    moments = _flat_triangle_moments(x[ii], mesh, qq, grad)
    ds = x[ii][:, None, :] - np.einsum("sj,pjk->psk", boundary._SUB_BARY, corners[qq])
    rs = np.linalg.norm(ds, axis=-1)
    rem = radial_remainder(rs, k).mean(axis=1) * area[qq]
    if grad:
        # the jet: the value, then the gradient
        rem_grad = np.einsum("psk,ps->pk", ds, radial_remainder_gradient_factor(rs, k)) / rs.shape[1] * area[qq, None]
        rem = np.concatenate([rem[:, None], rem_grad], axis=-1)
    block[ii, qq] = moments[:, 0] - 0.5 * k**2 * moments[:, 1] + rem
    return block


def _entry_gap(got, ref):
    """Largest distance between entries relative to the entry (the 3-vector for gradients);
    a jet's value and gradient are measured apart."""
    if got.shape[-1] == 4 and got.ndim == 3:
        return max(_entry_gap(got[..., 0], ref[..., 0]), _entry_gap(got[..., 1:], ref[..., 1:]))
    axis = -1 if got.ndim == 3 else None
    gap = np.abs(got - ref) if axis is None else np.linalg.norm(got - ref, axis=axis)
    size = np.abs(ref) if axis is None else np.linalg.norm(ref, axis=axis)
    return np.max(gap / size)


class TestRealArithmetic:
    """The blocks are summed in real arithmetic; the exp-form complex block is the reference."""

    @pytest.fixture(scope="class")
    def targets(self, sphere_meshes):
        # centroids (collocation self entries, values only) and points inside, near and
        # outside Gamma, each with near pairs
        mesh = sphere_meshes[2]
        c = mesh.panel_centroid
        off = np.concatenate([0.5 * c[::7], 0.97 * c[::5], 1.03 * c[::5], 1.6 * c[::9]])
        return mesh, c, off

    @pytest.mark.parametrize("grad", [False, True])
    def test_static_block_is_real_part_of_the_exp_form(self, targets, grad):
        mesh, c, off = targets
        x = off if grad else np.concatenate([c, off])
        block = panel_rows(x, mesh, 0.0, grad)
        ref = _exp_form_block(x, mesh, 0.0, grad)
        assert block.dtype == np.float64
        assert len(boundary._near_pairs(x, panel_sources(mesh))[0]) > len(x)
        assert _entry_gap(block, ref.real) <= 1e-14

    @pytest.mark.parametrize("grad", [False, True])
    def test_helmholtz_block_is_the_exp_form(self, targets, grad):
        mesh, c, off = targets
        x = off if grad else np.concatenate([c, off])
        block = panel_rows(x, mesh, 2.0, grad)
        assert block.dtype == np.complex128
        assert _entry_gap(block, _exp_form_block(x, mesh, 2.0, grad)) <= 1e-14

    def test_static_layer_potentials_of_a_real_density_are_real(self, targets):
        mesh, c, off = targets
        eta = 1.0 + 0.5 * c[:, 2]
        value = layer_potential(off, mesh, eta, 0.0)
        grad = layer_potential_gradient(off, mesh, eta, 0.0)
        assert value.dtype == grad.dtype == np.float64
        ref_value = _exp_form_block(off, mesh, 0.0, False) @ eta
        ref_grad = np.einsum("imk,m->ik", _exp_form_block(off, mesh, 0.0, True)[..., 1:], eta)
        assert _entry_gap(value, ref_value.real) <= 1e-14
        assert _entry_gap(grad[:, None, :], ref_grad.real[:, None, :]) <= 1e-14
        # a complex density keeps the complex path
        assert layer_potential(off, mesh, eta + 0j, 0.0).dtype == np.complex128


class TestPanelGeometry:
    def test_panel_block_reads_the_frozen_panel_arrays(self, sphere_meshes):
        # the second moments' factors and the stacked corners are built once per mesh; the block
        # equals the block from arrays rebuilt from the vertices, as each row chunk once did
        mesh = sphere_meshes[3]
        v0, v1, v2 = (mesh.vertices[mesh.triangles[:, i]] for i in range(3))
        corners = np.stack([v0, v1, v2], axis=1)
        rel = corners - ((v0 + v1 + v2) / 3.0)[:, None, :]
        two_area = np.linalg.norm(np.cross(v1 - v0, v2 - v0), axis=1)
        # P = sqrt(A/24) (2 rel_0 + rel_1, sqrt(3) rel_1), with P^T P the second moment
        factor = np.sqrt(two_area / 48.0)[:, None, None] * np.einsum("ai,pij->paj", [[2, 1, 0], [0, 3**0.5, 0]], rel)
        assert np.array_equal(mesh.panel_factor, factor) and np.array_equal(mesh.panel_corners, corners)
        assert_allclose(np.einsum("pai,paj->pij", factor, factor), _second_moments(mesh), rtol=1e-12, atol=1e-18)
        assert not (mesh.panel_factor.flags.writeable or mesh.panel_corners.flags.writeable)
        rebuilt = dataclasses.replace(mesh, panel_factor=factor, panel_corners=corners)
        c = mesh.panel_centroid
        off = np.concatenate([0.5 * c[::17], 1.05 * c[::9]])
        for k in (0.0, 2.0):
            for x, grad in ((np.concatenate([c[::5], off]), False), (off, True)):
                assert np.array_equal(panel_rows(x, mesh, k, grad), panel_rows(x, rebuilt, k, grad))


class TestSharedKernel:
    """Systems over another system's kernel (``DeltaSystem.reweighted``), and one apply for many densities."""

    @staticmethod
    def other_medium(system):
        # the same sources with other weights: 2 V on the same support, alpha raised where it
        # is nonzero, on a copy of Gamma (equal arrays, another object)
        V, alpha = system.potential, system.delta.alpha
        V2 = None if V is None else PotentialSample(grid=V.grid, values=2.0 * V.values)
        mesh = SurfaceMesh.from_arrays(system.mesh.vertices, system.mesh.triangles)
        return V2, DeltaSpec(mesh=mesh, alpha=np.where(alpha != 0, alpha + np.linspace(0, 1, len(alpha)), 0.0))

    def test_reweighted_system_is_the_fresh_system(self, small_system):
        V, delta = self.other_medium(small_system)
        shared, fresh = small_system.reweighted(V, delta), DeltaSystem(V, delta, small_system.k)
        assert shared.kernel is small_system.kernel and np.array_equal(shared.kernel, fresh.kernel)
        assert np.array_equal(shared.weights, fresh.weights)
        a, b = (system.solve(plane_wave(EZ)) for system in (shared, fresh))
        for name in ("eta", "trace", "psi_support", "source_density"):
            assert np.array_equal(getattr(a, name), getattr(b, name))
        pts = np.array([[0.0, 0.3, 2.5], [-2.2, 0.4, 0.1]])
        assert np.array_equal(eval_scattered_field(a, pts), eval_scattered_field(b, pts))

    def test_reweighted_rejects_other_sources(self, sphere_meshes, small_grid):
        mesh = sphere_meshes[1]
        V, delta = bump_potential(small_grid, 0.6), DeltaSpec(mesh=mesh, alpha=1.5)
        system = DeltaSystem(V, delta, 1.7)
        fewer = V.values.copy()
        fewer[V.support()[0]] = 0.0
        for V2, delta2 in (
            (PotentialSample(grid=small_grid, values=fewer), delta),             # another support
            (bump_potential(make_volume_grid((-1.6, 1.6), 10), 0.6), delta),    # another grid
            (V, DeltaSpec(mesh=sphere_meshes[2], alpha=1.5)),                    # another Gamma
            (V, DeltaSpec(mesh=mesh, alpha=0.0)),                                # alpha = 0
            (V, DeltaSpec(mesh=mesh, alpha=np.where(mesh.panel_centroid[:, 2] > 0, 1.5, 0.0))),  # another Sigma
            (None, delta),                                                       # no cells
        ):
            with pytest.raises(ValueError, match="reweighted"):
                system.reweighted(V2, delta2)

    def test_reweighted_takes_other_values_on_the_same_sigma(self, sphere_meshes, small_grid):
        # Sigma = {z > 0}: other nonzero values there share the kernel and give the fresh system
        # bitwise; alpha on the other half is another Sigma
        mesh = sphere_meshes[1]
        V, up = bump_potential(small_grid, 0.6), mesh.panel_centroid[:, 2] > 0
        system = DeltaSystem(V, DeltaSpec(mesh=mesh, alpha=np.where(up, 1.5, 0.0)), 1.7)
        delta = DeltaSpec(mesh=mesh, alpha=np.where(up, 2.0 + mesh.panel_centroid[:, 0], 0.0))
        shared, fresh = system.reweighted(V, delta), DeltaSystem(V, delta, 1.7)
        assert shared.kernel is system.kernel and np.array_equal(shared.kernel, fresh.kernel)
        assert np.array_equal(shared.weights, fresh.weights)
        a, b = (s.solve(plane_wave(EZ)) for s in (shared, fresh))
        for name in ("eta", "trace", "psi_support", "source_density"):
            assert np.array_equal(getattr(a, name), getattr(b, name))
        with pytest.raises(ValueError, match="reweighted"):
            system.reweighted(V, DeltaSpec(mesh=mesh, alpha=np.where(up, 0.0, 1.5)))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_apply_takes_the_densities_column_by_column(self, sphere_meshes, monkeypatch, workers):
        # a (m, 3) density gives three columns, each bitwise the product with that column alone
        monkeypatch.setattr(_dense, "WORKERS", workers)
        mesh = sphere_meshes[3]
        x = 1.5 * np.random.default_rng(11).normal(size=(120, 3))
        q = np.random.default_rng(12).uniform(0.5, 1.5, (mesh.n_panels, 3))
        sources = panel_sources(mesh)
        for k in (0.0, 2.0):
            for grad in (False, True):
                got = boundary._apply(x, sources, q, k, grad)
                assert got.shape == (len(x),) + ((4,) if grad else ()) + (3,)
                for j in range(3):
                    one = boundary._apply(x, sources, np.ascontiguousarray(q[:, j]), k, grad)
                    assert np.array_equal(got[..., j], one)


class TestSystemMatrix:
    def test_kernel_blocks_are_the_assembled_blocks(self, small_system):
        # the columns are the support cells, then Sigma (the panels where alpha != 0); the rows
        # are the same, then the rest of Gamma, which give the trace
        s = small_system
        mesh, V, ns = s.mesh, s.potential, len(s.support)
        sigma = np.flatnonzero(s.delta.alpha)
        order = np.concatenate([sigma, np.flatnonzero(s.delta.alpha == 0)])
        centers = V.grid.cell_center[s.support] if ns else np.zeros((0, 3))
        assert np.array_equal(s.points, np.concatenate([centers, mesh.panel_centroid[order]]))
        assert s.kernel.shape == (ns + mesh.n_panels, ns + len(sigma))
        if ns:
            assert np.array_equal(s.kernel[:ns, :ns], assemble_volume_operator(V.grid, s.k, cells=s.support))
            assert np.array_equal(s.kernel[ns:, :ns], cell_rows(mesh.panel_centroid, s.support, V.grid, s.k)[order])
        assert np.array_equal(s.kernel[:ns, ns:], panel_rows(centers, mesh, s.k)[:, sigma])
        assert np.array_equal(s.kernel[ns:, ns:], assemble_single_layer(mesh, s.k)[np.ix_(order, sigma)])
        Vs = V.values[s.support] if ns else np.zeros(0)
        assert np.array_equal(s.weights, np.concatenate([Vs, s.delta.alpha[sigma]]))

    def test_scattered_field_is_volume_plus_layer_potential(self, small_system, small_grid):
        # one apply over cells and panels against the cells-only and panels-only sums; the
        # jet's value and gradient against the value and gradient passes
        sol = small_system.solve(plane_wave(EZ))
        pts = small_grid.cell_center[::5]
        assert not np.any(on_surface(pts, sol.mesh))
        field, grad = np.zeros(len(pts), dtype=complex), np.zeros((len(pts), 3), dtype=complex)
        if len(sol.support):
            grid = sol.potential.grid
            field += volume_potential(pts, grid, sol.source_density, sol.k, cells=sol.support)
            cells = cell_rows(pts, sol.support, grid, sol.k, grad=True)
            assert np.array_equal(cells[..., 0], cell_rows(pts, sol.support, grid, sol.k))
            grad += np.einsum("imk,m->ik", cells[..., 1:], sol.source_density)
        if sol.delta.support().size != 0:
            field += layer_potential(pts, sol.mesh, sol.eta, sol.k)
            grad += layer_potential_gradient(pts, sol.mesh, sol.eta, sol.k)
        assert np.linalg.norm(eval_scattered_field(sol, pts) + field) <= 1e-14 * np.linalg.norm(field)
        assert np.linalg.norm(eval_scattered_gradient(sol, pts) + grad) <= 1e-14 * np.linalg.norm(grad)
        jet = boundary._scattered(sol, pts, grad=True)
        value = eval_scattered_field(sol, pts)
        assert np.linalg.norm(jet[:, 0] - value) <= 1e-14 * np.linalg.norm(value)
        assert np.linalg.norm(jet[:, 1:] + grad) <= 1e-14 * np.linalg.norm(grad)

    def test_field_and_gradient_take_one_pass(self, small_system, sphere_meshes, small_grid, monkeypatch):
        # each caller that needs a field and its gradient at the same points makes one
        # kernel pass, the jet's, and no value pass
        calls, apply = [], boundary._apply

        def counted(x, sources, q, k, grad=False):
            calls.append(grad)
            return apply(x, sources, q, k, grad)

        for module in (boundary, acoustic):
            monkeypatch.setattr(module, "_apply", counted)
        sol = small_system.solve(plane_wave(EZ))
        sphere = make_sphere_grid(2.5, 4, 8)
        medium = MediumSpec(gamma=sphere_meshes[1], shell_density=1.0, cutoff=RadialCutoff(1.4, 2.0))
        for run in (lambda: farfield_kirchhoff(sol, 2.5, EZ, n_theta=4, n_phi=8),
                    lambda: harness._total_field_and_radial(sol, sphere.nodes, sphere.normals),
                    lambda: harness.sommerfeld_check(sol, sol.k),
                    lambda: acoustic._density([medium], small_grid.cell_center[::7], derivatives=True)):
            calls.clear()
            run()
            assert calls == [True]

    def test_residual_is_the_dense_residual(self, small_system, monkeypatch):
        # a perturbed back-substitution lifts the residual far above rounding, where
        # the recorded value must be |(I + K diag(w)) x - psi0| / |psi0| rebuilt densely;
        # with complex128 factors the stalled refinement ends there, with no fallback
        s = small_system
        n = len(s.weights)
        A = np.eye(n) + s.kernel[:n] * s.weights
        lu = GuardedLU(A.copy())                                      # factored in place; A is read below
        shift = 1e-6 * np.exp(1j * np.arange(n))[:, None]
        solve = lu.solve
        monkeypatch.setattr(lu, "solve", lambda b: solve(b) + shift)
        monkeypatch.setattr(s, "_lu", lu)
        sol = s.solve(plane_wave(EZ))
        psi0 = eval_incident(plane_wave(EZ), s.k, s.points)[:n]
        x = solve(psi0[:, None])[:, 0] + shift[:, 0]
        dense = np.linalg.norm(A @ x - psi0) / np.linalg.norm(psi0)
        assert dense > 1e-8
        assert abs(sol.residual - dense) <= 1e-8 * dense

    def test_built_system_holds_two_matrices(self, sphere_meshes, monkeypatch):
        # held: the complex128 kernel (1 n^2 * 16 B) and the complex64 LU (0.5); no n x n
        # temporary on the way.  A small CHUNK keeps the fill's fixed-size row-chunk
        # temporaries, which do not grow with n, from hiding the n x n arrays in the peak.
        # The LU is A's own mapping (``empty_mapped``), which tracemalloc does not see, so it
        # is added to both, as if it had been held from the start.
        monkeypatch.setattr(_dense, "CHUNK", 2**15)
        mesh = sphere_meshes[3]
        delta = DeltaSpec(mesh=mesh, alpha=np.full(mesh.n_panels, 2.0))
        tracemalloc.start()
        try:
            system = DeltaSystem(None, delta, 2.0)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert system.kernel.shape == (1280, 1280)
        mapped = system._lu._lu.nbytes
        assert held + mapped <= 1.52 * mesh.n_panels**2 * 16
        assert peak + mapped <= 1.6 * mesh.n_panels**2 * 16

    def test_gradient_apply_peaks_as_the_value_apply(self, sphere_meshes, monkeypatch):
        # a jet row (the value and the gradient) makes about 3.1 times the temporaries of a
        # panel value row (d = x - c, the factors of d and M d, 4 channels), and is charged
        # five times the entries, so one chunk's temporaries, which glibc keeps in the
        # filling thread's arena, stay below a value chunk's (measured 0.58 times).
        # 2 value chunks, 9 jet chunks
        monkeypatch.setattr(_dense, "WORKERS", 1)
        monkeypatch.setattr(_dense, "CHUNK", 2**16)
        mesh = sphere_meshes[2]
        pts = 2.0 * mesh.vertices                                            # 162 far targets
        eta = np.exp(1j * np.arange(mesh.n_panels))
        peaks = []
        for potential in (layer_potential, layer_potential_gradient):
            tracemalloc.start()
            try:
                potential(pts, mesh, eta, 2.0)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0]


class TestMixedPrecision:
    """complex64 factors refined in complex128, and the complex128 fallback."""

    @pytest.fixture
    def system(self, sphere_meshes, small_grid):
        # a fresh coupled system per test: the tests replace its LU
        mesh = sphere_meshes[1]
        return DeltaSystem(bump_potential(small_grid, 0.6),
                           DeltaSpec(mesh=mesh, alpha=np.full(mesh.n_panels, 1.5)), 1.7)

    @staticmethod
    def gap_to_double_lu(system, sols):
        # relative distance of the solutions' unknowns from a complex128 LU solve
        n, ns = len(system.weights), len(system.support)
        A = np.eye(n) + system.kernel[:n] * system.weights
        psi0 = np.stack([eval_incident(sol.incident, system.k, system.points)[:n] for sol in sols], axis=1)
        ref = GuardedLU(A).solve(psi0)
        got = np.stack([np.concatenate([sol.psi_support, sol.eta / system.weights[ns:]])
                        for sol in sols], axis=1)
        return np.linalg.norm(got - ref) / np.linalg.norm(ref)

    def test_refined_single_precision_solution(self, system, caplog):
        caplog.set_level(logging.DEBUG, logger="deltashell")
        assert system._lu.dtype == np.complex64
        sols = system.solve_many(mixed_incidents())
        assert max(sol.residual for sol in sols) <= 1e-15
        assert self.gap_to_double_lu(system, sols) <= 1e-14
        (line,) = [r.getMessage() for r in caplog.records if r.name == "deltashell"]
        assert line.startswith("delta-shell solve: 6 right-hand sides, ")

    def test_factorization_and_solve_are_logged(self, sphere_meshes, caplog):
        caplog.set_level(logging.DEBUG, logger="deltashell")
        mesh = sphere_meshes[1]
        system = DeltaSystem(None, DeltaSpec(mesh=mesh, alpha=np.full(mesh.n_panels, 2.0)), 2.0)
        sol = system.solve(plane_wave(EZ))
        lines = [r.getMessage() for r in caplog.records if r.name == "deltashell"]
        assert all(r.levelno == logging.DEBUG for r in caplog.records if r.name == "deltashell")
        assert len(lines) == 3
        n = mesh.n_panels
        assert re.fullmatch(rf"delta-shell kernel: filled, {n} x {n}, k = 2, \d+\.\d{{3}} s", lines[0])
        assert re.fullmatch(re.escape(f"delta-shell LU: complex64, n = {n}, rcond {system._lu.rcond:.6e}, "
                                      "fallback: None, ") + r"\d+\.\d{3} s", lines[1])
        assert lines[2].startswith("delta-shell solve: 1 right-hand sides, ")
        assert re.search(re.escape(f"refinement steps, largest residual {sol.residual:.2e}, ") + r"\d+\.\d{3} s$",
                         lines[2])

    def test_stage_seconds_are_the_last_record_arg(self, sphere_meshes):
        # a handler on the "deltashell" logger reads each stage's seconds from its record's args
        class Seconds(logging.Handler):
            def __init__(self):
                super().__init__(logging.DEBUG)
                self.seconds = {}

            def emit(self, record):
                self.seconds[record.msg.split(":")[0]] = record.args[-1]

        handler, log = Seconds(), logging.getLogger("deltashell")
        level = log.level
        log.addHandler(handler)
        log.setLevel(logging.DEBUG)
        try:
            start = time.perf_counter()
            DeltaSystem(None, DeltaSpec(mesh=sphere_meshes[1], alpha=2.0), 2.0).solve(plane_wave(EZ))
            total = time.perf_counter() - start
        finally:
            log.removeHandler(handler)
            log.setLevel(level)
        assert set(handler.seconds) == {"delta-shell kernel", "delta-shell LU", "delta-shell solve"}
        assert all(isinstance(t, float) and t > 0 for t in handler.seconds.values())
        assert sum(handler.seconds.values()) <= total

    def test_low_single_precision_rcond_falls_back(self, system, monkeypatch, caplog):
        caplog.set_level(logging.DEBUG, logger="deltashell")
        monkeypatch.setattr(boundary, "_SINGLE_RCOND_FLOOR", 1.0)
        forced = DeltaSystem(system.potential, system.delta, system.k)
        assert forced._lu.dtype == np.complex128
        (lu_line,) = [r.getMessage() for r in caplog.records if r.getMessage().startswith("delta-shell LU")]
        assert "fallback: complex64 rcond" in lu_line
        sols = forced.solve_many(mixed_incidents())
        assert self.gap_to_double_lu(forced, sols) <= 1e-14
        assert max(sol.residual for sol in sols) <= 1e-15

    def test_stalled_refinement_falls_back_once(self, system, monkeypatch, caplog):
        # a back-substitution shifted by 1e-3 stalls refinement; the system factors in
        # complex128 once and keeps that LU for later solves
        caplog.set_level(logging.DEBUG, logger="deltashell")
        solve = system._lu.solve
        monkeypatch.setattr(system._lu, "solve", lambda b: solve(b) + 1e-3)
        sols = system.solve_many(mixed_incidents())
        assert system._lu.dtype == np.complex128
        assert self.gap_to_double_lu(system, sols) <= 1e-14
        assert max(sol.residual for sol in sols) <= 1e-15
        assert any("fallback: refinement stalled" in r.getMessage() for r in caplog.records)
        lu = system._lu
        system.solve(plane_wave(EZ))
        assert system._lu is lu

    def test_exponential_right_hand_side_refines(self, system):
        # |Re(rho) . x| is up to 35 on the collocation points (e^35 = 1.6e15); each column
        # is scaled to unit max-norm before the complex64 back-substitution
        rho1, rho2 = sigma_pair_for_xi(np.array([1.0, 0.0, 0.0]), system.k, 25.0)
        incidents = [Exponential(rho1), Exponential(rho2), plane_wave(EZ)]
        peak = max(np.max(np.abs(eval_incident(inc, system.k, system.points))) for inc in incidents)
        assert peak > 1e12
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sols = system.solve_many(incidents)
        assert system._lu.dtype == np.complex64
        assert max(sol.residual for sol in sols) <= 1e-15

    def test_singular_system_raises_from_the_constructor(self, sphere_meshes, monkeypatch):
        # K = -J / (alpha n) with J all ones: I + K diag(w) = I - J / n is singular, so the
        # complex64 factors are refused and the complex128 guard raises
        mesh = sphere_meshes[1]
        n, alpha = mesh.n_panels, 2.0
        monkeypatch.setattr(boundary, "_fill", lambda points, sources, k: np.full((len(points), n), -1.0 / (alpha * n),
                                                                                  dtype=complex))
        with pytest.raises(ExceptionalFrequencyError, match="perturbing k"):
            DeltaSystem(None, DeltaSpec(mesh=mesh, alpha=np.full(n, alpha)), 2.0)


class TestSolveMany:
    def test_matches_isolated_solves(self, small_system):
        incidents = mixed_incidents()
        batch = small_system.solve_many(incidents)
        assert len(batch) == len(incidents)
        for inc, sol in zip(incidents, batch):
            one = small_system.solve(inc)
            assert sol.incident is inc
            assert _rel(sol.eta, one.eta) <= 1e-12
            assert _rel(sol.trace, one.trace) <= 1e-12
            assert _rel(sol.source_density, one.source_density) <= 1e-12
            assert sol.residual <= 1e-10

    def test_stored_support_field(self, small_system):
        sol = small_system.solve_many(mixed_incidents())[-1]
        assert_allclose(small_system.weights[:len(sol.support)] * sol.psi_support, sol.source_density, rtol=1e-15)
        if sol.potential is not None:
            assert np.array_equal(sol.volume_field.values[sol.support], sol.psi_support)
        if small_system.delta.support().size == 0:
            assert not np.any(sol.eta)


class TestJumpRelation:
    def test_constant_density_static(self, sphere_meshes):
        errs = [check_jump_relation(sphere_meshes[s], 0.0, np.ones(sphere_meshes[s].n_panels))
                for s in (1, 2, 3)]
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 0.05

    def test_degree_one_harmonic_density(self, sphere_meshes):
        mesh = sphere_meshes[3]
        y1 = mesh.panel_centroid[:, 2] / np.linalg.norm(mesh.panel_centroid, axis=1)
        assert check_jump_relation(mesh, 0.0, y1) < 0.05

    def test_helmholtz_density(self, sphere_meshes):
        mesh = sphere_meshes[2]
        err = check_jump_relation(mesh, 1.5, np.ones(mesh.n_panels))
        assert err < 0.1

    def test_zero_density_is_rejected(self, sphere_meshes):
        # the relative error is 0/0 for xi = 0
        mesh = sphere_meshes[1]
        for xi in (0.0, np.zeros(mesh.n_panels)):
            with pytest.raises(ValueError, match="xi is 0"):
                check_jump_relation(mesh, 1.5, xi)


def solve_delta_system_composition(V, delta, inc, k):
    """Operator-composition route: the cross-check oracle for the block solve (small sizes).

    Realizes psi^{V,alpha} = psi^V - SL^V (1 + alpha g0 SL^V)^{-1} alpha g0 psi^V
    with SL^V applied through the volume solver, instead of one block solve.
    """
    mesh = delta.mesh
    alpha = delta.alpha
    np_ = mesh.n_panels
    if V is None or len(V.support()) == 0:
        # free background: SL^V = SL^0
        S = assemble_single_layer(mesh, k)
        psi0_panels = np.asarray(eval_incident(inc, k, mesh.panel_centroid), dtype=complex)
        A = alpha[:, None] * S
        A[np.arange(np_), np.arange(np_)] += 1.0
        lu = GuardedLU(A.copy(), context="surface system (composition route)")   # A is read below
        eta = lu.solve(alpha * psi0_panels)
        trace = psi0_panels - S @ eta
        residual = float(np.linalg.norm(A @ eta - alpha * psi0_panels) / max(np.linalg.norm(alpha * psi0_panels), 1e-300))
        return DeltaSolution(
            eta=eta, incident=inc, k=k,
            residual=residual, trace=trace, potential=V, delta=delta,
            support=np.zeros(0, dtype=int), source_density=np.zeros(0, dtype=complex),
            psi_support=np.zeros(0, dtype=complex),
        )

    grid = V.grid
    support = V.support()
    Vs = V.values[support]
    centers = grid.cell_center[support]

    S = assemble_single_layer(mesh, k)
    SLvol = panel_rows(centers, mesh, k)
    Tr = cell_rows(mesh.panel_centroid, support, grid, k)
    G = assemble_volume_operator(grid, k, cells=support)

    lhs = G * Vs[None, :]
    lhs[np.arange(len(support)), np.arange(len(support))] += 1.0
    lu_v = GuardedLU(lhs, context="volume block (composition route)")
    psi_v = lu_v.solve(np.asarray(eval_incident(inc, k, centers), dtype=complex))  # psi^V on the support
    U = lu_v.solve(SLvol)                       # SL^V eta on the support grid
    g0_slv = S - Tr @ (Vs[:, None] * U)         # gamma0 SL^V as a panel operator

    trace_psi_v = np.asarray(eval_incident(inc, k, mesh.panel_centroid), dtype=complex) - Tr @ (Vs * psi_v)
    A = alpha[:, None] * g0_slv
    A[np.arange(np_), np.arange(np_)] += 1.0
    lu_s = GuardedLU(A.copy(), context="trace system (composition route)")  # A is read below
    eta = lu_s.solve(alpha * trace_psi_v)

    psi_total = psi_v - U @ eta
    source = Vs * psi_total
    trace = trace_psi_v - g0_slv @ eta
    residual = float(np.linalg.norm(A @ eta - alpha * trace_psi_v) / max(np.linalg.norm(alpha * trace_psi_v) + 1e-300, 1e-300))
    return DeltaSolution(
        eta=eta, incident=inc, k=k,
        residual=residual, trace=trace, potential=V, delta=delta,
        support=support, source_density=source, psi_support=psi_total,
    )


class TestSigma:
    """alpha on Sigma, a proper part of Gamma: the panels where alpha = 0 are no unknowns."""

    def test_alpha_is_a_read_only_copy(self, sphere_meshes):
        # Sigma's mesh is built once per DeltaSpec; a change to the caller's array after the
        # fact must not leave it stale (a system built then had 80 columns and 40 weights)
        mesh = sphere_meshes[1]
        alpha = np.full(mesh.n_panels, 2.0)
        delta = DeltaSpec(mesh=mesh, alpha=alpha)
        assert delta.sigma is mesh
        alpha[:40] = 0.0
        assert np.all(delta.alpha == 2.0) and delta.sigma is mesh
        with pytest.raises(ValueError, match="read-only"):
            delta.alpha[0] = 0.0
        assert len(DeltaSystem(None, delta, 2.0).weights) == mesh.n_panels

    @pytest.mark.parametrize("with_cells", [False, True])
    def test_matches_the_full_gamma_reference(self, sphere_meshes, small_grid, with_cells):
        # the dense full-Gamma system I + K diag(w), w = 0 off Sigma, built here and solved in
        # complex128 by np.linalg.solve
        k, mesh = 2.0, sphere_meshes[2]
        V = bump_potential(small_grid, 0.6) if with_cells else None
        alpha = np.where(mesh.panel_centroid[:, 2] > 0, 2.0, 0.0)
        sigma, off = np.flatnonzero(alpha), alpha == 0
        system = DeltaSystem(V, DeltaSpec(mesh=mesh, alpha=alpha), k)
        cells = system.support
        ns = len(cells)
        assert len(system.weights) == ns + len(sigma) and 0 < len(sigma) < mesh.n_panels

        centers = small_grid.cell_center[cells]
        S = assemble_single_layer(mesh, k)
        K = (np.block([[assemble_volume_operator(small_grid, k, cells=cells), panel_rows(centers, mesh, k)],
                       [cell_rows(mesh.panel_centroid, cells, small_grid, k), S]]) if with_cells else S)
        w = np.concatenate([V.values[cells] if with_cells else np.zeros(0), alpha])
        incidents = mixed_incidents()
        points = np.concatenate([centers, mesh.panel_centroid])
        psi0 = np.stack([eval_incident(inc, k, points) for inc in incidents], axis=1).astype(complex)
        x = np.linalg.solve(np.eye(len(w)) + K * w, psi0)
        eta_ref, trace_ref = (w[:, None] * x)[ns:], x[ns:]

        sols = system.solve_many(incidents)
        eta, trace = np.stack([sol.eta for sol in sols], axis=1), np.stack([sol.trace for sol in sols], axis=1)
        assert not np.any(eta[off])
        assert _rel(eta, eta_ref) <= 1e-12 and _rel(trace, trace_ref) <= 1e-12
        # the far field -1/(4 pi) sum_j e^{-ik obs.y_j} q_j over the cell centers and the panel centroids,
        # a panel's q_j weighted by its monopole-plus-quadrupole factor A - k^2 obs.M obs/2
        obs = direction_grid(4, 8).normals
        y = np.concatenate([centers, mesh.panel_centroid])
        weight = np.concatenate([np.full((len(obs), ns), small_grid.cell_volume),
                                 mesh.panel_area - 0.5 * k**2 * np.einsum("oi,pij,oj->op", obs, _second_moments(mesh), obs)],
                                axis=1)
        ff_ref = -((np.exp(-1j * k * (obs @ y.T)) * weight) @ (w[:, None] * x)).T / (4.0 * np.pi)
        assert _rel(farfield_source(sols, obs), ff_ref) <= 1e-12


class TestDeltaSolve:
    @pytest.mark.parametrize("k", [0.0, -1.0, np.nan, np.inf])
    def test_wavenumber_must_be_positive_and_finite(self, sphere_meshes, k, monkeypatch):
        # raised before any kernel entry: nan and inf filled the kernel and failed in LAPACK
        monkeypatch.setattr(boundary, "_fill", None)
        with pytest.raises(ValueError, match="k must be positive and finite"):
            DeltaSystem(None, DeltaSpec(mesh=sphere_meshes[0], alpha=1.0), k)

    def test_alpha_zero_matches_lippmann_schwinger(self, sphere_meshes, small_grid):
        k = 1.4
        V = bump_potential(small_grid, 0.7)
        mesh = sphere_meshes[1]
        delta = DeltaSpec(mesh=mesh, alpha=np.zeros(mesh.n_panels))
        sol_d = DeltaSystem(V, delta, k).solve(plane_wave(EZ))
        _, _, field_v = reference_lippmann_schwinger(V, plane_wave(EZ), k)
        assert np.all(sol_d.eta == 0)
        assert np.max(np.abs(sol_d.volume_field.values - field_v)) < 1e-8

    def test_linearity_in_the_incident_field(self, sphere_meshes):
        k = 2.0
        mesh = sphere_meshes[2]
        delta = DeltaSpec(mesh=mesh, alpha=np.full(mesh.n_panels, 1.5))
        system = DeltaSystem(None, delta, k)
        d1, d2 = EZ, np.array([1.0, 0.0, 0.0])
        sum_inc = Herglotz(directions=np.array([d1, d2]), weights=np.ones(2),
                           density=np.ones(2))
        eta_sum = system.solve(sum_inc).eta
        eta_parts = system.solve(plane_wave(d1)).eta + system.solve(plane_wave(d2)).eta
        assert np.max(np.abs(eta_sum - eta_parts)) < 1e-10 * np.max(np.abs(eta_parts))

    def test_residual_stored_and_small(self, sphere_meshes, small_grid):
        V = bump_potential(small_grid, 0.5)
        mesh = sphere_meshes[1]
        delta = DeltaSpec(mesh=mesh, alpha=np.full(mesh.n_panels, 1.0))
        sol = DeltaSystem(V, delta, 1.2).solve(plane_wave(EZ))
        assert sol.residual < 1e-8

    def test_eta_is_alpha_times_trace(self, sphere_meshes, small_grid):
        V = bump_potential(small_grid, 0.5)
        mesh = sphere_meshes[1]
        alpha = np.full(mesh.n_panels, 1.3)
        sol = DeltaSystem(V, DeltaSpec(mesh=mesh, alpha=alpha), 1.2).solve(plane_wave(EZ))
        assert np.max(np.abs(sol.eta - alpha * sol.trace)) < 1e-10

    def test_trace_consistent_with_two_sided_average(self, sphere_meshes):
        # eta_q ~ alpha_q * (each side extrapolated to the centroid, averaged);
        # the plain two-sided average carries a delta*eta/2 first-order term
        k = 1.5
        mesh = sphere_meshes[3]
        alpha = np.full(mesh.n_panels, 2.0)
        sol = DeltaSystem(None, DeltaSpec(mesh=mesh, alpha=alpha), k).solve(plane_wave(EZ))

        def sides(scale):
            dlt = scale * mesh.panel_diameter[:, None] * mesh.panel_normal
            up = eval_total_field(sol, mesh.panel_centroid + dlt, near_warning=False)
            dn = eval_total_field(sol, mesh.panel_centroid - dlt, near_warning=False)
            return up, dn

        u1, d1 = sides(0.5)
        u2, d2 = sides(1.0)
        approx = alpha * 0.5 * ((2 * u1 - u2) + (2 * d1 - d2))
        rel = np.linalg.norm(approx - sol.eta) / np.linalg.norm(sol.eta)
        assert rel < 0.05

    def test_field_continuous_across_surface(self, sphere_meshes):
        # no jump in the field itself, only in its normal derivative: the
        # two-sided difference shrinks linearly with the offset
        k = 1.5
        mesh = sphere_meshes[3]
        sol = DeltaSystem(None, DeltaSpec(mesh=mesh, alpha=np.full(mesh.n_panels, 2.0)),
                          k).solve(plane_wave(EZ))

        def side_gap(scale):
            dlt = scale * mesh.panel_diameter[:, None] * mesh.panel_normal
            up = eval_total_field(sol, mesh.panel_centroid + dlt, near_warning=False)
            dn = eval_total_field(sol, mesh.panel_centroid - dlt, near_warning=False)
            return np.linalg.norm(up - dn) / np.linalg.norm(up)

        g2, g1, gh = side_gap(2.0), side_gap(1.0), side_gap(0.5)
        assert gh < 0.25
        for ratio in (g2 / g1, g1 / gh):
            assert 1.3 < ratio < 2.8

    def test_composition_route_matches_block_solve(self, sphere_meshes, small_grid):
        k = 1.3
        V = bump_potential(small_grid, 0.6)
        mesh = sphere_meshes[1]
        delta = DeltaSpec(mesh=mesh, alpha=np.full(mesh.n_panels, 1.2))
        a = DeltaSystem(V, delta, k).solve(plane_wave(EZ))
        b = solve_delta_system_composition(V, delta, plane_wave(EZ), k)
        scale = np.max(np.abs(a.eta))
        assert np.max(np.abs(a.eta - b.eta)) < 1e-10 * scale
        assert np.max(np.abs(a.trace - b.trace)) < 1e-10 * np.max(np.abs(a.trace))

    def test_composition_route_surface_only(self, sphere_meshes):
        mesh = sphere_meshes[1]
        delta = DeltaSpec(mesh=mesh, alpha=np.full(mesh.n_panels, 2.0))
        a = DeltaSystem(None, delta, 2.0).solve(plane_wave(EZ))
        b = solve_delta_system_composition(None, delta, plane_wave(EZ), 2.0)
        assert np.max(np.abs(a.eta - b.eta)) < 1e-12

    def test_near_surface_evaluation_warns(self, sphere_meshes):
        mesh = sphere_meshes[1]
        sol = DeltaSystem(None, DeltaSpec(mesh=mesh, alpha=np.full(mesh.n_panels, 1.0)),
                          1.0).solve(plane_wave(EZ))
        probe = mesh.panel_centroid[0] + 0.05 * mesh.panel_diameter[0] * mesh.panel_normal[0]
        with pytest.warns(UserWarning, match="near-field"):
            eval_total_field(sol, probe)
        # the limit is a quarter panel diameter from a centroid
        c, d, n = mesh.panel_centroid[5], mesh.panel_diameter[5], mesh.panel_normal[5]
        inside, outside = c + 0.24 * d * n, c + 0.26 * d * n
        assert near_surface(np.array([3.0 * EZ, inside]), mesh)
        assert not near_surface(np.array([3.0 * EZ, outside]), mesh)
        with pytest.warns(UserWarning, match="quarter panel diameter"):
            eval_total_field(sol, inside)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            eval_total_field(sol, outside)
            eval_total_field(sol, inside, near_warning=False)

    def test_near_surface_measures_the_closed_panel(self, sphere_meshes):
        # a vertex and an edge midpoint lie on Gamma, farther than a quarter
        # diameter from every centroid
        mesh = sphere_meshes[2]
        sol = DeltaSystem(None, DeltaSpec(mesh=mesh, alpha=np.full(mesh.n_panels, 1.0)),
                          1.0).solve(plane_wave(EZ))
        v0, v1, _ = mesh.panel_corners[0]
        for x in (mesh.vertices[0], 0.5 * (v0 + v1)):
            with pytest.warns(UserWarning, match="quarter panel diameter"):
                eval_total_field(sol, x)
        probes = np.array([mesh.vertices[0], 0.5 * (v0 + v1), mesh.panel_centroid[9],
                           1.01 * mesh.vertices[0], 3.0 * EZ])
        assert on_surface(probes, mesh).tolist() == [True, True, True, False, False]

    def test_singular_system_raises_exceptional_frequency(self):
        A = np.ones((4, 4), dtype=complex)
        with pytest.raises(ExceptionalFrequencyError, match="perturbing k"):
            GuardedLU(A, context="test system")

    def test_alpha_lp_norm_reported(self, sphere_meshes):
        mesh = sphere_meshes[1]
        delta = DeltaSpec(mesh=mesh, alpha=np.full(mesh.n_panels, 2.0))
        expected = (mesh.panel_area.sum() * 2.0**4) ** 0.25
        assert_allclose(delta.lp_norm(4.0), expected, rtol=1e-12)
