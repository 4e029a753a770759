"""Far-field extraction routes, amplitude scaling, CSV persistence."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from deltashell.boundary import DeltaSpec, DeltaSystem
from deltashell.farfield import (
    AMPLITUDE_SCALE,
    FarFieldPattern,
    direction_grid,
    farfield_kirchhoff,
    farfield_source,
    load_farfield_csv,
    save_farfield_csv,
    scattering_amplitude,
)
from deltashell.harness import lattice_directions
from deltashell.kernels import Herglotz, plane_wave
from deltashell.mie import RadialMedium, mie_farfield_values, solve_partial_waves

from conftest import bump_potential, mixed_incidents

EZ = np.array([0.0, 0.0, 1.0])


@pytest.fixture(scope="module")
def sphere_solution(sphere_meshes):
    mesh = sphere_meshes[2]
    delta = DeltaSpec(mesh=mesh, alpha=np.full(mesh.n_panels, 2.0))
    return DeltaSystem(None, delta, 2.0).solve(plane_wave(EZ))


@pytest.fixture(scope="module")
def combined_solution(sphere_meshes, small_grid):
    mesh = sphere_meshes[2]
    V = bump_potential(small_grid, 0.6)
    delta = DeltaSpec(mesh=mesh, alpha=np.full(mesh.n_panels, 1.0))
    return DeltaSystem(V, delta, 2.0).solve(plane_wave(EZ))


class TestRoutes:
    def test_zero_scatterer_kirchhoff(self, sphere_meshes, small_grid):
        mesh = sphere_meshes[1]
        delta = DeltaSpec(mesh=mesh, alpha=np.zeros(mesh.n_panels))
        V = bump_potential(small_grid, 0.0)
        sol = DeltaSystem(V, delta, 2.0).solve(plane_wave(EZ))
        obs = lattice_directions()
        assert np.max(np.abs(farfield_source(sol, obs))) == 0.0
        assert np.max(np.abs(farfield_kirchhoff(sol, 2.5, obs))) < 1e-10

    def test_two_routes_agree(self, combined_solution):
        obs = direction_grid(6, 12).normals
        src = farfield_source(combined_solution, obs)
        kir = farfield_kirchhoff(combined_solution, 2.0, obs)
        assert np.linalg.norm(kir - src) / np.linalg.norm(src) < 1e-3

    def test_batched_rows_match_single_solutions(self, small_system):
        sols = small_system.solve_many(mixed_incidents())
        obs = direction_grid(6, 12).normals
        table = farfield_source(sols, obs)
        assert table.shape == (len(sols), len(obs))
        for row, sol in zip(table, sols):
            single = farfield_source(sol, obs)
            assert single.shape == (len(obs),)
            assert np.max(np.abs(row - single)) <= 1e-13 * np.max(np.abs(single))

    def test_batch_rejects_solutions_of_different_systems(self, sphere_solution, combined_solution):
        with pytest.raises(ValueError, match="one system"):
            farfield_source([sphere_solution, combined_solution], lattice_directions())

    def test_radius_independence(self, combined_solution):
        obs = direction_grid(6, 12).normals
        k2 = farfield_kirchhoff(combined_solution, 2.0, obs)
        k3 = farfield_kirchhoff(combined_solution, 3.0, obs)
        assert np.linalg.norm(k2 - k3) / np.linalg.norm(k2) < 1e-4

    def test_radius_must_enclose_scatterer(self, sphere_solution):
        with pytest.raises(ValueError, match="enclose"):
            farfield_kirchhoff(sphere_solution, 0.9, lattice_directions())

    def test_matches_oracle(self, sphere_solution):
        g = direction_grid(8, 16)
        bem = farfield_source(sphere_solution, g.normals)
        oracle = solve_partial_waves(RadialMedium(a=1.0, alpha=2.0), 2.0)
        ref = mie_farfield_values(oracle, EZ, g.normals)
        num = np.sqrt(g.weights @ np.abs(bem - ref) ** 2)
        den = np.sqrt(g.weights @ np.abs(ref) ** 2)
        assert num / den < 0.03  # 320 panels

    def test_born_surface_integral(self, sphere_meshes):
        # alpha = eps: psi_inf/eps -> -(1/4pi) int_Gamma e^{-ik x.y} e^{ik xi.y}
        k, eps = 2.0, 1e-5
        mesh = sphere_meshes[2]
        delta = DeltaSpec(mesh=mesh, alpha=np.full(mesh.n_panels, eps))
        sol = DeltaSystem(None, delta, k).solve(plane_wave(EZ))
        obs = lattice_directions()
        ff = farfield_source(sol, obs) / eps
        qpts, w = mesh.quadrature_points()
        psi0 = np.exp(1j * k * mesh.panel_centroid @ EZ)
        born_disc = np.empty(len(obs), dtype=complex)
        born_full = np.empty(len(obs), dtype=complex)
        for i, x_hat in enumerate(obs):
            out_phase = np.exp(-1j * k * qpts @ x_hat)
            # discretization's own sampling: incident factor at centroids
            born_disc[i] = -np.einsum("qg,g,q->", out_phase, w, psi0 * mesh.panel_area) / (4 * np.pi)
            born_full[i] = -np.einsum("qg,g,q->", out_phase * np.exp(1j * k * qpts @ EZ),
                                      w, mesh.panel_area + 0j) / (4 * np.pi)
        # the eps -> 0 limit of the discrete far field is the discrete Born term
        assert np.linalg.norm(ff - born_disc) / np.linalg.norm(born_disc) < 1e-4
        # which itself agrees with the fully sampled surface quadrature to O(h^2)
        assert np.linalg.norm(ff - born_full) / np.linalg.norm(born_full) < 0.01


class TestHerglotzLinearity:
    def test_far_field_superposition(self, sphere_meshes):
        # far field of H_k f equals the f-weighted sum of plane-wave far fields
        k = 1.5
        mesh = sphere_meshes[1]
        delta = DeltaSpec(mesh=mesh, alpha=np.full(mesh.n_panels, 1.5))
        system = DeltaSystem(None, delta, k)
        dirs = lattice_directions()
        weights = np.full(len(dirs), 4 * np.pi / len(dirs))
        density = np.cos(dirs @ EZ) + 0.5j

        obs = direction_grid(4, 8).normals
        herglotz = Herglotz(directions=dirs, weights=weights, density=density)
        ff_h = farfield_source(system.solve(herglotz), obs)

        ff_sum = np.zeros(len(obs), dtype=complex)
        for d, w, f in zip(dirs, weights, density):
            ff_sum += w * f * farfield_source(system.solve(plane_wave(d)), obs)
        assert np.max(np.abs(ff_h - ff_sum)) < 1e-8 * np.max(np.abs(ff_sum))


class TestAmplitude:
    def test_scaling(self, sphere_solution):
        obs = lattice_directions()
        vals = farfield_source(sphere_solution, obs)
        ff = FarFieldPattern(k=2.0, values=vals[None, :], observations=obs,
                             obs_weights=np.full(len(obs), 4 * np.pi / len(obs)),
                             incidence=EZ[None, :])
        s = scattering_amplitude(ff)
        assert_allclose(np.abs(s.values), AMPLITUDE_SCALE * np.abs(ff.values), rtol=1e-15)
        # acoustic link: u_inf = (2 pi)^{-3/2} s recovers psi_inf
        assert_allclose(s.values / AMPLITUDE_SCALE, ff.values, rtol=1e-15)

    def test_zero_maps_to_zero(self):
        obs = lattice_directions()
        ff = FarFieldPattern(k=1.0, values=np.zeros((1, len(obs))), observations=obs,
                             obs_weights=np.ones(len(obs)), incidence=EZ[None, :])
        assert np.all(scattering_amplitude(ff).values == 0)

    def test_incidence_needs_one_direction_per_row(self):
        obs = lattice_directions()
        for incidence in (np.array([EZ, EZ]), EZ, np.zeros((1, 2))):
            with pytest.raises(ValueError, match="one direction per value row"):
                FarFieldPattern(k=1.0, values=np.zeros((1, len(obs))), observations=obs,
                                obs_weights=np.ones(len(obs)), incidence=incidence)


class TestCsv:
    def test_plane_roundtrip_and_determinism(self, tmp_path, sphere_solution):
        g = direction_grid(4, 8)
        vals = np.stack([farfield_source(sphere_solution, g.normals)])
        ff = FarFieldPattern(k=2.0, values=vals, observations=g.normals,
                             obs_weights=g.weights, incidence=EZ[None, :])
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        save_farfield_csv(ff, p1)
        save_farfield_csv(ff, p2)
        assert p1.read_bytes() == p2.read_bytes()
        back = load_farfield_csv(p1)
        assert np.max(np.abs(back.values - ff.values)) < 1e-14
        assert np.max(np.abs(back.observations - ff.observations)) < 1e-12
        assert back.meta["conventions"]["kernel"] == "exp(+ik r)/(4 pi r)"

    def test_only_plane_incidence_loads(self, tmp_path):
        obs = lattice_directions()
        ff = FarFieldPattern(k=1.3, values=(np.arange(len(obs)) + 1j)[None, :], observations=obs,
                             obs_weights=np.ones(len(obs)), incidence=EZ[None, :])
        path = tmp_path / "kind.csv"
        save_farfield_csv(ff, path)
        text = path.read_text()
        assert '"incidence_kind": "plane"' in text
        path.write_text(text.replace('"incidence_kind": "plane"', '"incidence_kind": "cgo"'))
        with pytest.raises(ValueError, match="'cgo' is not 'plane'"):
            load_farfield_csv(path)

    def test_grid_mismatch_detected(self, tmp_path):
        obs = lattice_directions()
        ff1 = FarFieldPattern(k=1.0, values=np.ones((1, len(obs))), observations=obs,
                              obs_weights=np.ones(len(obs)), incidence=EZ[None, :])
        obs2 = direction_grid(4, 8).normals
        ff2 = FarFieldPattern(k=1.0, values=np.ones((1, len(obs2))), observations=obs2,
                              obs_weights=np.ones(len(obs2)), incidence=EZ[None, :])
        with pytest.raises(ValueError, match="different"):
            ff1.rel_l2_distance(ff2)
