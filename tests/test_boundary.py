"""Single-layer operator, coupled delta solve, jump relations."""

import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import integrate

from deltashell._dense import ExceptionalFrequencyError, GuardedLU
from deltashell.boundary import (
    _NEAR_BUCKETS,
    DeltaSpec,
    DeltaSystem,
    assemble_single_layer,
    check_jump_relation,
    eval_scattered_field,
    eval_scattered_gradient,
    eval_total_field,
    layer_potential,
    layer_potential_gradient,
    solve_delta_system_composition,
    static_self_integrals,
)
from deltashell.geometry import SurfaceMesh, make_sphere_mesh
from deltashell.kernels import Herglotz, eval_incident, helmholtz_kernel, plane_wave
from deltashell.volume import assemble_volume_operator, solve_lippmann_schwinger

from conftest import bump_potential, mixed_incidents

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
        assert_allclose(static_self_integrals(mesh)[0], val * jac / (4 * np.pi), rtol=1e-10)

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
        # r = 0 in the base rule; the pair is near-field and re-integrated
        mesh = sphere_meshes[1]
        qpts, _ = mesh.quadrature_points()
        eta = np.ones(mesh.n_panels)
        x = qpts[3]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            on = layer_potential(x, mesh, eta, 1.0)
        off = layer_potential(x + 1e-3 * mesh.panel_normal[3], mesh, eta, 1.0)
        assert np.all(np.abs(on - off) < 1e-2 * np.abs(on))

    def test_panel_cap(self, sphere_meshes):
        with pytest.raises(ValueError, match="cap"):
            assemble_single_layer(sphere_meshes[2], 1.0, max_panels=100)


def _rel(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300)


FD_STEP = 1e-6


def _bucket_probes(mesh, q=0):
    """Points on panel q's normal through its centroid: one per near bucket and
    one beyond them; the first three buckets are probed on both sides."""
    c, n, d = mesh.panel_centroid[q], mesh.panel_normal[q], mesh.panel_diameter[q]
    edges = [0.0] + [t for t, _ in _NEAR_BUCKETS] + [4.0]
    pts = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        f = 0.5 * (lo + hi)
        pts += [c + s * f * d * n for s in ((1.0, -1.0) if f < 1.0 else (1.0,))]
    return np.array(pts)


def _assert_step_keeps_buckets(pts, mesh, h=FD_STEP):
    # central differences see one quadrature only if x +- h stays in the buckets of x
    ratio = np.linalg.norm(pts[:, None, :] - mesh.panel_centroid[None], axis=-1) / mesh.panel_diameter
    gap = min(np.min(np.abs(ratio - t)) for t, _ in _NEAR_BUCKETS)
    assert gap > 2 * h / np.min(mesh.panel_diameter)


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
        pts = np.concatenate([_bucket_probes(mesh, q) for q in (0, 101)])
        _assert_step_keeps_buckets(pts, mesh)
        grad = layer_potential_gradient(pts, mesh, eta, k)
        fd = _central_gradient(lambda x: layer_potential(x, mesh, eta, k), pts)
        for g, f in zip(grad, fd):
            assert np.linalg.norm(g - f) <= 1e-7 * np.linalg.norm(g)

    def test_layer_gradient_rejects_points_on_the_surface(self, sphere_meshes):
        mesh = sphere_meshes[1]
        qpts, _ = mesh.quadrature_points()
        for x in (mesh.panel_centroid[3], qpts[3, 1]):
            with pytest.raises(ValueError, match="on the surface"):
                layer_potential_gradient(x[None], mesh, np.ones(mesh.n_panels), 1.0)

    def test_scattered_gradient_matches_central_differences(self, small_system):
        sol = small_system.solve(plane_wave(EZ))
        pts = _bucket_probes(sol.mesh)
        if len(sol.support):
            # a point inside a cell's self radius, where the cell adds no gradient
            grid = sol.potential.grid
            centers = grid.cell_center[sol.support]
            c = centers[np.argmin(np.linalg.norm(centers, axis=1))]
            pts = np.concatenate([pts, [c + 0.1 * np.min(grid.spacing) / np.sqrt(3.0)]])
            r = np.linalg.norm(pts[:, None, :] - centers[None], axis=-1)
            assert np.min(np.abs(r - 0.5 * np.min(grid.spacing))) > 2 * FD_STEP
        _assert_step_keeps_buckets(pts, sol.mesh)
        grad = eval_scattered_gradient(sol, pts)
        fd = _central_gradient(lambda x: eval_scattered_field(sol, x), pts)
        for g, f in zip(grad, fd):
            assert np.linalg.norm(g - f) <= 1e-7 * max(np.linalg.norm(g), 1e-300)


class TestKernelEntries:
    def test_assembled_entries_are_kernel_values(self, sphere_meshes, small_grid):
        k = 1.7
        V = bump_potential(small_grid, 0.6)
        mesh = sphere_meshes[1]
        system = DeltaSystem(V, DeltaSpec(mesh=mesh, alpha=np.full(mesh.n_panels, 1.5)), k)
        vol = small_grid.cell_volume
        centers = small_grid.cell_center[V.support()]

        G = assemble_volume_operator(small_grid, k, cells=V.support())
        ii, jj = np.nonzero(~np.eye(len(centers), dtype=bool))
        assert_allclose(G[ii, jj], vol * helmholtz_kernel(centers[ii], centers[jj], k), rtol=1e-14)

        c = mesh.panel_centroid
        qq, jj = np.nonzero(np.linalg.norm(c[:, None] - centers[None], axis=-1)
                            >= 0.5 * np.min(small_grid.spacing))
        assert_allclose(system.Tr[qq, jj], vol * helmholtz_kernel(c[qq], centers[jj], k), rtol=1e-14)

        # panel pairs beyond the last near bucket carry the plain 3-point rule
        qpts, w = mesh.quadrature_points()
        ratio = np.linalg.norm(c[:, None] - c[None], axis=-1) / mesh.panel_diameter[None, :]
        qq, pp = np.nonzero(ratio >= _NEAR_BUCKETS[-1][0])
        assert len(qq) > 0
        expected = helmholtz_kernel(c[qq][:, None, :], qpts[pp], k) @ w * mesh.panel_area[pp]
        assert_allclose(system.S[qq, pp], expected, rtol=1e-13)


class TestSolveMany:
    def test_matches_isolated_solves(self, small_system):
        incidents = mixed_incidents()
        batch = small_system.solve_many(incidents)
        assert len(batch) == len(incidents)
        for inc, sol in zip(incidents, batch):
            one = small_system.solve(inc)
            assert sol.incident is inc
            assert _rel(sol.density.eta, one.density.eta) <= 1e-12
            assert _rel(sol.trace, one.trace) <= 1e-12
            assert _rel(sol.source_density, one.source_density) <= 1e-12
            assert sol.residual <= 1e-10

    def test_stored_support_field(self, small_system):
        sol = small_system.solve_many(mixed_incidents())[-1]
        assert_allclose(small_system.Vs * sol.psi_support, sol.source_density, rtol=1e-15)
        if sol.potential is not None:
            assert np.array_equal(sol.volume_field.values[sol.support], sol.psi_support)
        if small_system.delta.is_zero:
            assert not np.any(sol.density.eta)


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


class TestDeltaSolve:
    def test_alpha_zero_matches_lippmann_schwinger(self, sphere_meshes, small_grid):
        k = 1.4
        V = bump_potential(small_grid, 0.7)
        mesh = sphere_meshes[1]
        delta = DeltaSpec(mesh=mesh, alpha=np.zeros(mesh.n_panels))
        sol_d = DeltaSystem(V, delta, k).solve(plane_wave(EZ))
        sol_v = solve_lippmann_schwinger(V, plane_wave(EZ), k)
        assert np.all(sol_d.density.eta == 0)
        assert np.max(np.abs(sol_d.volume_field.values - sol_v.field.values)) < 1e-8

    def test_linearity_in_the_incident_field(self, sphere_meshes):
        k = 2.0
        mesh = sphere_meshes[2]
        delta = DeltaSpec(mesh=mesh, alpha=np.full(mesh.n_panels, 1.5))
        system = DeltaSystem(None, delta, k)
        d1, d2 = EZ, np.array([1.0, 0.0, 0.0])
        sum_inc = Herglotz(directions=np.array([d1, d2]), weights=np.ones(2),
                           density=np.ones(2))
        eta_sum = system.solve(sum_inc).density.eta
        eta_parts = system.solve(plane_wave(d1)).density.eta + system.solve(plane_wave(d2)).density.eta
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
        assert np.max(np.abs(sol.density.eta - alpha * sol.trace)) < 1e-10

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
        rel = np.linalg.norm(approx - sol.density.eta) / np.linalg.norm(sol.density.eta)
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
        scale = np.max(np.abs(a.density.eta))
        assert np.max(np.abs(a.density.eta - b.density.eta)) < 1e-10 * scale
        assert np.max(np.abs(a.trace - b.trace)) < 1e-10 * np.max(np.abs(a.trace))

    def test_composition_route_surface_only(self, sphere_meshes):
        mesh = sphere_meshes[1]
        delta = DeltaSpec(mesh=mesh, alpha=np.full(mesh.n_panels, 2.0))
        a = DeltaSystem(None, delta, 2.0).solve(plane_wave(EZ))
        b = solve_delta_system_composition(None, delta, plane_wave(EZ), 2.0)
        assert np.max(np.abs(a.density.eta - b.density.eta)) < 1e-12

    def test_near_surface_evaluation_warns(self, sphere_meshes):
        mesh = sphere_meshes[1]
        sol = DeltaSystem(None, DeltaSpec(mesh=mesh, alpha=np.full(mesh.n_panels, 1.0)),
                          1.0).solve(plane_wave(EZ))
        probe = mesh.panel_centroid[0] + 0.05 * mesh.panel_diameter[0] * mesh.panel_normal[0]
        with pytest.warns(UserWarning, match="near-field"):
            eval_total_field(sol, probe)

    def test_singular_system_raises_exceptional_frequency(self):
        A = np.ones((4, 4), dtype=complex)
        with pytest.raises(ExceptionalFrequencyError, match="perturbing k"):
            GuardedLU(A, context="test system")

    def test_alpha_lp_norm_reported(self, sphere_meshes):
        mesh = sphere_meshes[1]
        delta = DeltaSpec(mesh=mesh, alpha=np.full(mesh.n_panels, 2.0))
        expected = (mesh.total_area * 2.0**4) ** 0.25
        assert_allclose(delta.lp_norm(4.0), expected, rtol=1e-12)
