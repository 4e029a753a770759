"""Acoustic media, the Liouville-transform data, and the pipeline."""

import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from deltashell import acoustic
from deltashell.acoustic import (
    GaussianBump,
    MediumSpec,
    MediumValidityError,
    RadialCutoff,
    acoustic_farfield,
    acoustic_to_schrodinger,
    eval_density,
    eval_sound_speed,
    media_equal,
    schrodinger_to_acoustic_field,
    surface_density_trace,
)
from deltashell.boundary import DeltaSystem, assemble_single_layer
from deltashell.farfield import direction_grid, farfield_source
from deltashell.geometry import make_volume_grid
from deltashell.kernels import plane_wave
from deltashell.mie import RadialMedium, mie_farfield_values, solve_partial_waves

from conftest import cube_mesh, reference_lippmann_schwinger

EZ = np.array([0.0, 0.0, 1.0])


def shell_medium(mesh, xi=1.0, cutoff=(3.0, 4.0), rho_bumps=(), v_bumps=()):
    return MediumSpec(
        gamma=mesh,
        shell_density=np.full(mesh.n_panels, xi),
        rho_bumps=rho_bumps,
        v_bumps=v_bumps,
        cutoff=RadialCutoff(*cutoff),
    )


def off_quadrature_rings(mesh, x):
    """FD stencils must not straddle a near-quadrature bucket switch."""
    d = np.linalg.norm(x[None, :] - mesh.panel_centroid, axis=1) / mesh.panel_diameter
    return np.all(np.abs(d[:, None] - np.array([0.2, 0.45, 0.9, 1.6, 2.8])) > 0.02)


class TestDensity:
    def test_trivial_medium(self, sphere_meshes):
        m = shell_medium(sphere_meshes[1], xi=0.0)
        x = np.array([[0.2, 0.1, -0.3], [2.5, 0.0, 0.0]])
        rho, grad, lap = eval_density(m, x)
        assert_allclose(rho, 1.0, rtol=1e-14)
        assert np.max(np.abs(grad)) < 1e-14
        assert np.max(np.abs(lap)) < 1e-14

    def test_unit_shell_interior_value(self, sphere_meshes):
        # shell potential of unit density equals 1 inside: rho(0) = 2
        # (flat-panel geometry error is O(h^2): ~0.2% at 1280 panels)
        m = shell_medium(sphere_meshes[3], xi=1.0)
        rho, _, _ = eval_density(m, np.zeros((1, 3)))
        assert abs(rho[0] - 2.0) < 5e-3

    def test_unit_shell_exterior_value(self, sphere_meshes):
        # outside: potential 1/|x|, within the cutoff plateau rho = 1 + 1/2
        m = shell_medium(sphere_meshes[3], xi=1.0)
        rho, _, _ = eval_density(m, np.array([[2.0, 0.0, 0.0]]))
        assert abs(rho[0] - 1.5) < 5e-3

    def test_derivatives_match_finite_differences(self, sphere_meshes, rng):
        m = shell_medium(
            sphere_meshes[2], xi=0.8,
            rho_bumps=(GaussianBump(amplitude=0.3, center=(0.2, 0.0, 0.1), width=0.5),),
        )
        h = 1e-3
        pts = np.array([[0.3, 0.2, 0.1], [0.0, 0.0, 1.6], [2.2, 0.5, 0.0], [3.4, 0.0, 0.2]])
        rho, grad, lap = eval_density(m, pts)
        for axis in range(3):
            e = np.zeros(3)
            e[axis] = h
            rp, _, _ = eval_density(m, pts + e, derivatives=False)
            rm, _, _ = eval_density(m, pts - e, derivatives=False)
            fd = (rp - rm) / (2 * h)
            assert np.max(np.abs(fd - grad[:, axis])) < 2e-3 * (1 + np.max(np.abs(grad)))
        fd_lap = -6.0 * rho
        for axis in range(3):
            e = np.zeros(3)
            e[axis] = h
            rp, _, _ = eval_density(m, pts + e, derivatives=False)
            rm, _, _ = eval_density(m, pts - e, derivatives=False)
            fd_lap += rp + rm
        fd_lap /= h**2
        assert np.max(np.abs(fd_lap - lap)) < 2e-3 * (1 + np.max(np.abs(lap)))

    def test_near_surface_warning(self, sphere_meshes):
        m = shell_medium(sphere_meshes[1], xi=1.0)
        probe = sphere_meshes[1].panel_centroid[0] * (1.0 + 1e-3)
        with pytest.warns(UserWarning, match="near-field"):
            eval_density(m, probe[None, :])

    def test_cutoff_must_cover_gamma(self, sphere_meshes):
        with pytest.raises(ValueError, match="containing Gamma"):
            shell_medium(sphere_meshes[1], xi=1.0, cutoff=(0.5, 2.0))


class TestTransform:
    def test_trivial_medium_gives_zero_data(self, sphere_meshes):
        m = shell_medium(sphere_meshes[1], xi=0.0)
        grid = make_volume_grid((-4.2, 4.2), 8)
        data = acoustic_to_schrodinger(m, 1.0, grid)
        assert np.max(np.abs(data.V.values)) < 1e-13
        assert np.max(np.abs(data.delta.alpha)) == 0.0

    def test_pure_sound_speed_potential(self, sphere_meshes):
        # v = 2 inside the plateau, rho = 1: V = w^2 (1 - 1/4) = 3/4
        m = shell_medium(
            sphere_meshes[1], xi=0.0,
            v_bumps=(GaussianBump(amplitude=1.0, center=(0.0, 0.0, 0.0), width=1e6),),
        )
        grid = make_volume_grid((-4.2, 4.2), 10)
        data = acoustic_to_schrodinger(m, 1.0, grid)
        inside = np.linalg.norm(grid.cell_center, axis=1) < 2.5
        assert_allclose(data.V.values[inside], 0.75, rtol=1e-9)
        assert np.max(np.abs(data.delta.alpha)) == 0.0

    def test_weak_shell_alpha_limit(self, sphere_meshes):
        # gamma0(rho) -> 1 as xi -> 0, so alpha -> xi/2
        mesh = sphere_meshes[2]
        g = 1e-6
        m = shell_medium(mesh, xi=g)
        grid = make_volume_grid((-4.2, 4.2), 8)
        data = acoustic_to_schrodinger(m, 1.0, grid)
        assert np.max(np.abs(data.delta.alpha - g / 2)) < 1e-2 * g / 2

    def test_unit_shell_alpha(self, sphere_meshes):
        # gamma0(rho) = 1 + SL(1)|_Gamma ~ 2 on the unit sphere: alpha ~ 1/4
        mesh = sphere_meshes[2]
        m = shell_medium(mesh, xi=1.0)
        grid = make_volume_grid((-4.2, 4.2), 8)
        data = acoustic_to_schrodinger(m, 1.0, grid)
        assert np.max(np.abs(data.delta.alpha - 0.25)) < 0.01 * 0.25

    def test_two_frequency_potential_structure(self, sphere_meshes):
        m = shell_medium(
            sphere_meshes[1], xi=0.7,
            v_bumps=(GaussianBump(amplitude=0.4, center=(0.1, 0.0, 0.0), width=0.8),),
        )
        grid = make_volume_grid((-4.2, 4.2), 10)
        w1, w2 = 1.0, 2.0
        d1 = acoustic_to_schrodinger(m, w1, grid)
        d2 = acoustic_to_schrodinger(m, w2, grid)
        v = eval_sound_speed(m, grid.cell_center)
        expected = (w2**2 - w1**2) * (1.0 - 1.0 / v**2)
        diff = d2.V.values - d1.V.values
        assert np.max(np.abs(diff - expected)) < 1e-12 * max(1.0, np.max(np.abs(expected)))

    def test_alpha_is_omega_independent_bitwise(self, sphere_meshes):
        m = shell_medium(sphere_meshes[1], xi=0.9)
        grid = make_volume_grid((-4.2, 4.2), 8)
        d1 = acoustic_to_schrodinger(m, 1.0, grid)
        d2 = acoustic_to_schrodinger(m, 2.0, grid)
        assert np.array_equal(d1.delta.alpha, d2.delta.alpha)

    def test_surface_trace_matches_static_layer_matrix(self, sphere_meshes, rng):
        # reference: the trace as 1 + bumps + S0 xi with the assembled static layer matrix
        mesh = sphere_meshes[2]
        bump = GaussianBump(amplitude=0.3, center=(0.2, 0.0, 0.1), width=0.5)
        m = MediumSpec(gamma=mesh, shell_density=rng.uniform(0.5, 1.5, mesh.n_panels),
                       rho_bumps=(bump,), cutoff=RadialCutoff(1.4, 2.0))
        S0 = assemble_single_layer(mesh, 0.0)
        bumps, _, _ = bump.fields(mesh.panel_centroid)
        expected = 1.0 + bumps + (S0 @ m.shell_density.astype(complex)).real
        got = surface_density_trace(m)
        assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(np.abs(expected))

    def test_only_near_gamma_warning_is_silenced(self, sphere_meshes, monkeypatch):
        real = acoustic.eval_density

        def noisy(m, x, derivatives=True):
            if derivatives:  # the grid sampling, not the trace on Gamma
                warnings.warn("density derivatives requested within a quarter panel diameter "
                              "of Gamma; near-field accuracy is reduced")
                warnings.warn("overflow in a density term", RuntimeWarning)
            return real(m, x, derivatives)

        monkeypatch.setattr(acoustic, "eval_density", noisy)
        m = shell_medium(sphere_meshes[1], xi=0.9, cutoff=(1.4, 2.0))
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            acoustic_to_schrodinger(m, 1.0, make_volume_grid((-2.6, 2.6), 6))
        messages = [str(w.message) for w in record]
        assert "overflow in a density term" in messages
        assert not any("density derivatives requested" in msg for msg in messages)

    def test_grid_must_cover_support(self, sphere_meshes):
        m = shell_medium(sphere_meshes[1], xi=1.0)
        with pytest.raises(ValueError, match="cover"):
            acoustic_to_schrodinger(m, 1.0, make_volume_grid((-2.0, 2.0), 8))

    def test_cell_centres_on_gamma_rejected(self):
        # cube faces at +-0.8 on a grid of spacing 0.4: 98 cell centres lie on Gamma
        m = MediumSpec(gamma=cube_mesh(1.6), shell_density=1.0, cutoff=RadialCutoff(1.5, 2.0))
        with pytest.raises(ValueError, match="98 grid cell centres lie on Gamma"):
            acoustic_to_schrodinger(m, 1.0, make_volume_grid((-2.2, 2.2), 11))

    def test_negative_density_rejected(self, sphere_meshes):
        m = shell_medium(
            sphere_meshes[1], xi=0.0,
            rho_bumps=(GaussianBump(amplitude=-2.0, center=(0.0, 0.0, 0.0), width=0.8),),
        )
        grid = make_volume_grid((-4.2, 4.2), 10)
        with pytest.raises(MediumValidityError, match="density"):
            acoustic_to_schrodinger(m, 1.0, grid)

    def test_chain_rule_identity(self, sphere_meshes, rng):
        # V_phi * phi equals the one-sided laplacian of phi = rho^{-1/2}
        mesh = sphere_meshes[2]
        m = shell_medium(
            mesh, xi=0.8,
            rho_bumps=(GaussianBump(amplitude=0.3, center=(0.0, 0.2, 0.0), width=0.6),),
        )
        h = 1e-3

        pts = []
        while len(pts) < 20:
            x = rng.uniform(-2.0, 2.0, size=3)
            r = np.linalg.norm(x)
            if abs(r - 1.0) > 0.15 and r < 2.4 and off_quadrature_rings(mesh, x):
                pts.append(x)
        pts = np.array(pts)

        def phi(x):
            rho, _, _ = eval_density(m, x, derivatives=False)
            return 1.0 / np.sqrt(rho)

        rho, grad, lap = eval_density(m, pts)
        grad2 = np.einsum("ij,ij->i", grad, grad)
        v_phi = -0.5 * lap / rho + 0.75 * grad2 / rho**2

        fd = -6.0 * phi(pts)
        for axis in range(3):
            e = np.zeros(3)
            e[axis] = h
            fd += phi(pts + e) + phi(pts - e)
        fd /= h**2
        target = v_phi * phi(pts)
        assert np.max(np.abs(fd - target)) < 1e-3 * (1.0 + np.max(np.abs(target)))


class TestLiouvilleAlgebra:
    def test_transform_identity_with_manufactured_field(self, sphere_meshes, rng):
        # w^2 u + v^2 rho div(rho^-1 grad u) == sqrt(rho) v^2 (lap psi - V psi + w^2 psi)
        # for ANY smooth psi, with u = sqrt(rho) psi; checked by finite differences
        mesh = sphere_meshes[2]
        m = shell_medium(
            mesh, xi=0.8,
            rho_bumps=(GaussianBump(amplitude=0.25, center=(0.0, 0.0, 0.3), width=0.6),),
            v_bumps=(GaussianBump(amplitude=0.5, center=(0.2, 0.0, 0.0), width=0.9),),
        )
        omega, h = 1.3, 1e-3

        def psi_fn(x):
            return np.exp(1j * 0.9 * x @ EZ) * np.exp(-0.3 * np.einsum("ij,ij->i", x, x))

        def u_fn(x):
            rho, _, _ = eval_density(m, x, derivatives=False)
            return np.sqrt(rho) * psi_fn(x)

        pts = []
        while len(pts) < 10:
            x = rng.uniform(-2.0, 2.0, size=3)
            r = np.linalg.norm(x)
            if abs(r - 1.0) > 0.2 and r < 2.2 and off_quadrature_rings(mesh, x):
                pts.append(x)
        pts = np.array(pts)

        rho, grad_rho, _ = eval_density(m, pts)
        v = eval_sound_speed(m, pts)

        # LHS: w^2 u + v^2 rho div(rho^-1 grad u), div term = lap u - grad(log rho).grad u
        lap_u = -6.0 * u_fn(pts)
        grad_u = np.zeros((len(pts), 3), dtype=complex)
        for axis in range(3):
            e = np.zeros(3)
            e[axis] = h
            up, um = u_fn(pts + e), u_fn(pts - e)
            lap_u += up + um
            grad_u[:, axis] = (up - um) / (2 * h)
        lap_u /= h**2
        lhs = omega**2 * u_fn(pts) + v**2 * (lap_u - np.einsum("ij,ij->i", grad_rho / rho[:, None], grad_u))

        # RHS: sqrt(rho) v^2 (lap psi - V psi + w^2 psi), V from the medium transform
        grid = make_volume_grid((-4.2, 4.2), 8)
        rho_pts, grad_pts, lap_pts = eval_density(m, pts)
        grad2 = np.einsum("ij,ij->i", grad_pts, grad_pts)
        V = -0.5 * lap_pts / rho_pts + 0.75 * grad2 / rho_pts**2 + omega**2 * (1 - 1 / v**2)
        lap_psi = -6.0 * psi_fn(pts)
        for axis in range(3):
            e = np.zeros(3)
            e[axis] = h
            lap_psi += psi_fn(pts + e) + psi_fn(pts - e)
        lap_psi /= h**2
        rhs = np.sqrt(rho) * v**2 * (lap_psi - V * psi_fn(pts) + omega**2 * psi_fn(pts))

        scale = np.max(np.abs(lhs)) + np.max(np.abs(rhs)) + 1.0
        assert np.max(np.abs(lhs - rhs)) < 1e-3 * scale

    def test_field_map_values(self):
        assert_allclose(schrodinger_to_acoustic_field(1.0 + 0j, 4.0), 2.0 + 0j)
        x = np.array([1.0 + 1j, 2.0])
        assert_allclose(schrodinger_to_acoustic_field(x, 1.0), x)
        with pytest.raises(MediumValidityError):
            schrodinger_to_acoustic_field(x, -1.0)

    def test_solver_field_is_helmholtz_outside_support(self, sphere_meshes):
        # where rho = v = 1 the representation solves (lap + w^2) exactly
        m = shell_medium(sphere_meshes[1], xi=0.6, cutoff=(1.5, 2.2))
        grid = make_volume_grid((-2.4, 2.4), 10)
        omega, h = 1.2, 1e-3
        data = acoustic_to_schrodinger(m, omega, grid)
        from deltashell.boundary import eval_total_field

        sol = DeltaSystem(data.V, data.delta, omega).solve(plane_wave(EZ))
        pts = np.array([[2.9, 0.0, 0.0], [0.0, -3.0, 0.4]])
        lap = -6.0 * eval_total_field(sol, pts, near_warning=False)
        for axis in range(3):
            e = np.zeros(3)
            e[axis] = h
            lap += eval_total_field(sol, pts + e, near_warning=False)
            lap += eval_total_field(sol, pts - e, near_warning=False)
        lap /= h**2
        resid = lap + omega**2 * eval_total_field(sol, pts, near_warning=False)
        assert np.max(np.abs(resid)) < 1e-5


class TestPipeline:
    def test_smooth_medium_matches_volume_only_path(self, sphere_meshes):
        # shell density 0: the delta pipeline collapses to Lippmann-Schwinger
        m = shell_medium(
            sphere_meshes[1], xi=0.0, cutoff=(1.5, 2.2),
            v_bumps=(GaussianBump(amplitude=0.6, center=(0.0, 0.0, 0.0), width=0.7),),
        )
        grid = make_volume_grid((-2.4, 2.4), 12)
        omega = 1.5
        data = acoustic_to_schrodinger(m, omega, grid)
        assert data.delta.is_zero

        sol_d = DeltaSystem(data.V, data.delta, omega).solve(plane_wave(EZ))
        support, source, field_v = reference_lippmann_schwinger(data.V, plane_wave(EZ), omega)
        assert np.max(np.abs(sol_d.volume_field.values - field_v)) < 1e-8

        obs = direction_grid(6, 12).normals
        ff_d = farfield_source(sol_d, obs)
        src = source * grid.cell_volume
        centers = grid.cell_center[support]
        ff_v = -(np.exp(-1j * omega * (obs @ centers.T)) @ src) / (4 * np.pi)
        assert np.linalg.norm(ff_d - ff_v) / np.linalg.norm(ff_v) < 1e-3

    def test_radial_shell_medium_vs_oracle(self, sphere_meshes):
        # radial medium: rho = 1 + chi * SL(xi); oracle gets the shell-ized V(r)
        mesh = sphere_meshes[2]
        xi = 0.8
        m = shell_medium(mesh, xi=xi, cutoff=(1.6, 2.4))
        grid = make_volume_grid((-2.6, 2.6), 16)
        omega = 1.5
        obs_grid = direction_grid(8, 16)
        [ff] = acoustic_farfield(m, [omega], EZ[None, :], obs_grid, grid)

        # shell-ize V_phi(r) on [0, 2.4]: alpha = xi / (2 rho(1)), rho(1) = 1 + xi
        radii = np.linspace(1.0, 2.4, 60)
        shells = [(1.0, 0.0)]
        cut = RadialCutoff(1.6, 2.4)
        # the first midpoint, r = 1.012, lies within a quarter panel diameter of Gamma
        with pytest.warns(UserWarning, match="density derivatives requested"):
            for r0, r1 in zip(radii[:-1], radii[1:]):
                rmid = 0.5 * (r0 + r1)
                x = np.array([[rmid, 0.0, 0.0]])
                rho, grad, lap = eval_density(m, x)
                v_mid = -0.5 * lap[0] / rho[0] + 0.75 * (grad[0] @ grad[0]) / rho[0] ** 2
                shells.append((r1, v_mid))
        alpha = xi / (2.0 * (1.0 + xi))
        oracle = solve_partial_waves(RadialMedium(a=1.0, alpha=alpha, shells=tuple(shells)), omega)
        ref = mie_farfield_values(oracle, EZ, obs_grid.normals)
        num = np.sqrt(obs_grid.weights @ np.abs(ff.values[0] - ref) ** 2)
        den = np.sqrt(obs_grid.weights @ np.abs(ref) ** 2)
        assert num / den < 0.08

    def test_multi_frequency_call_matches_per_frequency_solves(self, sphere_meshes, monkeypatch):
        deltas = []

        class RecordingSystem(DeltaSystem):
            def __init__(self, V, delta, k):
                deltas.append(delta)
                super().__init__(V, delta, k)

        monkeypatch.setattr(acoustic, "DeltaSystem", RecordingSystem)
        m = shell_medium(
            sphere_meshes[1], xi=0.9, cutoff=(1.4, 2.0),
            v_bumps=(GaussianBump(amplitude=0.3, center=(0.1, 0.0, 0.0), width=0.6),),
        )
        grid = make_volume_grid((-2.6, 2.6), 8)
        obs_grid = direction_grid(4, 8)
        incidence = np.array([EZ, [1.0, 0.0, 0.0]])
        omegas = (1.0, 2.0)
        patterns = acoustic_farfield(m, omegas, incidence, obs_grid, grid)

        assert len(deltas) == 2 and deltas[0] is deltas[1]
        for omega, ff in zip(omegas, patterns):
            data = acoustic_to_schrodinger(m, omega, grid)
            system = DeltaSystem(data.V, data.delta, omega)
            ref = np.stack([farfield_source(system.solve(plane_wave(d)), obs_grid.normals)
                            for d in incidence])
            assert ff.k == omega
            assert np.max(np.abs(ff.values - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_medium_sampled_once_for_two_frequencies(self, sphere_meshes, monkeypatch):
        density_points, trace_calls = [], []
        real_density, real_trace = acoustic.eval_density, acoustic.surface_density_trace

        def counted_density(m, x, derivatives=True):
            density_points.append(len(x))
            return real_density(m, x, derivatives)

        def counted_trace(m):
            trace_calls.append(m)
            return real_trace(m)

        monkeypatch.setattr(acoustic, "eval_density", counted_density)
        monkeypatch.setattr(acoustic, "surface_density_trace", counted_trace)
        mesh = sphere_meshes[1]
        m = shell_medium(mesh, xi=0.9, cutoff=(1.4, 2.0))
        grid = make_volume_grid((-2.6, 2.6), 6)
        acoustic_farfield(m, (1.0, 2.0), EZ[None, :], direction_grid(3, 6), grid)
        # one sampling of the grid cells, one of Gamma (inside surface_density_trace)
        assert sorted(density_points) == sorted([grid.n_cells, mesh.n_panels])
        assert len(trace_calls) == 1

    def test_media_equality(self, sphere_meshes):
        a = shell_medium(sphere_meshes[1], xi=1.0)
        b = shell_medium(sphere_meshes[1], xi=1.0)
        c = shell_medium(sphere_meshes[1], xi=1.5)
        assert media_equal(a, b)
        assert not media_equal(a, c)
