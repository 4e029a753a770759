"""Single-layer operator, coupled delta solve, jump relations."""

import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import integrate

from deltashell import _dense, boundary
from deltashell._dense import ExceptionalFrequencyError, GuardedLU
from deltashell.boundary import (
    _NEAR_RATIO,
    BoundaryDensity,
    DeltaSolution,
    DeltaSpec,
    DeltaSystem,
    _flat_triangle_moments,
    _layer_matrix,
    assemble_single_layer,
    check_jump_relation,
    eval_scattered_field,
    eval_scattered_gradient,
    eval_total_field,
    layer_potential,
    layer_potential_gradient,
    near_surface,
    on_surface,
    static_self_integrals,
)
from deltashell.geometry import SurfaceMesh, make_sphere_mesh, triangle_rule
from deltashell.kernels import Herglotz, eval_incident, helmholtz_kernel, plane_wave
from deltashell.volume import assemble_volume_operator, cell_block

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
        assert_allclose(static_self_integrals(mesh)[0], val * jac / (4 * np.pi), rtol=1e-10)

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
        corners = np.stack(mesh.corners(), axis=1)[qq]
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
        ref = _flat_triangle_moments(x, corners, grad=False)[:, 0] + rem.reshape(n_sub, -1).sum(axis=0)
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
        default = _layer_matrix(points, mesh, 1.7)
        monkeypatch.setattr(_dense, "CHUNK", mesh.n_panels * 3)  # one row per chunk
        assert len(_dense.row_chunks(len(points), mesh.n_panels * 3)) == len(points)
        assert np.array_equal(_layer_matrix(points, mesh, 1.7), default)

    def test_panel_cap(self, sphere_meshes, monkeypatch):
        monkeypatch.setattr(boundary, "MAX_PANELS", 100)
        with pytest.raises(ValueError, match="cap is 100"):
            assemble_single_layer(sphere_meshes[2], 1.0)


TRI = np.array([[0.1, -0.2, 0.0], [1.3, 0.1, 0.05], [0.4, 0.9, -0.1]])
TRI_N = np.cross(TRI[1] - TRI[0], TRI[2] - TRI[0]) / np.linalg.norm(np.cross(TRI[1] - TRI[0], TRI[2] - TRI[0]))
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
        value = _flat_triangle_moments(x[None], TRI[None], grad=False)[0]
        grad = _flat_triangle_moments(x[None], TRI[None], grad=True)[0]
        ref = [self._quad(lambda y: 1 / np.linalg.norm(x - y)), self._quad(lambda y: np.linalg.norm(x - y))]
        assert_allclose(value, ref, rtol=1e-10)
        ref_grad = [[self._quad(lambda y: -(x - y)[i] / np.linalg.norm(x - y) ** 3) for i in range(3)],
                    [self._quad(lambda y: (x - y)[i] / np.linalg.norm(x - y)) for i in range(3)]]
        for g, r in zip(grad, ref_grad):
            assert np.linalg.norm(g - r) <= 1e-10 * np.linalg.norm(r)
        for j in (0, 1):
            fd = _central_gradient(lambda p: _flat_triangle_moments(p, TRI[None], grad=False)[:, j], x[None])
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
        v0, v1, v2 = (v[3] for v in mesh.corners())
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
        v0, v1, v2 = (v[7] for v in mesh.corners())
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

        # panel pairs beyond the near threshold carry the plain 3-point rule
        qpts, w = mesh.quadrature_points()
        ratio = np.linalg.norm(c[:, None] - c[None], axis=-1) / mesh.panel_diameter[None, :]
        qq, pp = np.nonzero(ratio >= _NEAR_RATIO)
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
        lu = GuardedLU(A, context="surface system (composition route)")
        eta = lu.solve(alpha * psi0_panels)
        trace = psi0_panels - S @ eta
        residual = float(np.linalg.norm(A @ eta - alpha * psi0_panels) / max(np.linalg.norm(alpha * psi0_panels), 1e-300))
        return DeltaSolution(
            density=BoundaryDensity(mesh=mesh, eta=eta), incident=inc, k=k,
            residual=residual, trace=trace, potential=V, delta=delta,
            support=np.zeros(0, dtype=int), source_density=np.zeros(0, dtype=complex),
            psi_support=np.zeros(0, dtype=complex),
        )

    grid = V.grid
    support = V.support()
    Vs = V.values[support]
    centers = grid.cell_center[support]

    S = assemble_single_layer(mesh, k)
    SLvol = _layer_matrix(centers, mesh, k)
    Tr = cell_block(mesh.panel_centroid, centers, grid, k)
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
    lu_s = GuardedLU(A, context="trace system (composition route)")
    eta = lu_s.solve(alpha * trace_psi_v)

    psi_total = psi_v - U @ eta
    source = Vs * psi_total
    trace = trace_psi_v - g0_slv @ eta
    residual = float(np.linalg.norm(A @ eta - alpha * trace_psi_v) / max(np.linalg.norm(alpha * trace_psi_v) + 1e-300, 1e-300))
    return DeltaSolution(
        density=BoundaryDensity(mesh=mesh, eta=eta), incident=inc, k=k,
        residual=residual, trace=trace, potential=V, delta=delta,
        support=support, source_density=source, psi_support=psi_total,
    )


class TestDeltaSolve:
    def test_alpha_zero_matches_lippmann_schwinger(self, sphere_meshes, small_grid):
        k = 1.4
        V = bump_potential(small_grid, 0.7)
        mesh = sphere_meshes[1]
        delta = DeltaSpec(mesh=mesh, alpha=np.zeros(mesh.n_panels))
        sol_d = DeltaSystem(V, delta, k).solve(plane_wave(EZ))
        _, _, field_v = reference_lippmann_schwinger(V, plane_wave(EZ), k)
        assert np.all(sol_d.density.eta == 0)
        assert np.max(np.abs(sol_d.volume_field.values - field_v)) < 1e-8

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
        v0, v1, _ = (v[0] for v in mesh.corners())
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
        expected = (mesh.total_area * 2.0**4) ** 0.25
        assert_allclose(delta.lp_norm(4.0), expected, rtol=1e-12)
