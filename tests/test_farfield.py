"""Far-field extraction routes, amplitude scaling, CSV persistence."""

import json
import logging
import re

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

from conftest import bump_potential, mixed_incidents, quadrature_points

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

    def test_empty_batch_is_rejected(self):
        # an empty batch has no system to take the sources from
        with pytest.raises(ValueError, match="batch of solutions is empty"):
            farfield_source([], lattice_directions())

    def test_source_route_is_the_direct_sum_over_the_sources(self, small_system):
        # psi_inf = -(1/4 pi) sum_j e^{-ik x.c_j} (A_j - k^2 x.M_j x / 2) q_j over the cells of V's
        # support (A the cell volume, M = 0) and the panels of Sigma (area, and the second moment
        # A/12 sum_i (v_i - c)(v_i - c)^T from the corners)
        sol, k = small_system.solve(plane_wave(EZ)), small_system.k
        mesh, V, sigma = sol.mesh, sol.potential, sol.delta.support()
        nc = len(sol.support)
        c = np.concatenate([V.grid.cell_center[sol.support] if nc else np.zeros((0, 3)), mesh.panel_centroid[sigma]])
        A = np.concatenate([np.full(nc, V.grid.cell_volume if nc else 0.0), mesh.panel_area[sigma]])
        rel = mesh.panel_corners[sigma] - mesh.panel_centroid[sigma, None]
        M = np.concatenate([np.zeros((nc, 3, 3)), np.einsum("p,pij,pik->pjk", mesh.panel_area[sigma] / 12.0, rel, rel)])
        q = np.concatenate([sol.source_density, sol.eta[sigma]])
        obs = direction_grid(6, 12).normals
        weight = A - 0.5 * k**2 * np.einsum("oa,jab,ob->oj", obs, M, obs)
        direct = -(np.exp(-1j * k * obs @ c.T) * weight) @ q / (4.0 * np.pi)
        assert np.max(np.abs(farfield_source(sol, obs) - direct)) <= 1e-14 * np.max(np.abs(direct))

    def test_source_route_logs_one_stage_record(self, small_system, caplog):
        # one DEBUG record per call, in the shape of the solve record: solutions, directions,
        # sources (the support cells, then Sigma), then the seconds as the record's last arg
        sols = small_system.solve_many(mixed_incidents())
        obs = direction_grid(6, 12).normals
        caplog.set_level(logging.DEBUG, logger="deltashell")
        farfield_source(sols, obs)
        (record,) = [r for r in caplog.records if r.name == "deltashell"]
        assert record.levelno == logging.DEBUG and isinstance(record.args[-1], float)
        assert re.fullmatch(rf"delta-shell far field: {len(sols)} solutions, {len(obs)} directions, "
                            rf"{len(small_system.weights)} sources, \d+\.\d{{3}} s", record.getMessage())

    @pytest.mark.parametrize("R", [2.0, 3.0])
    def test_routes_are_exact_for_the_shell(self, sphere_solution, R):
        # every panel is far from the sphere |y| = R and radiates as a monopole plus a quadrupole,
        # an exact radiating field whose far field is the source route's: the gap is rounding
        obs = direction_grid(6, 12).normals
        src = farfield_source(sphere_solution, obs)
        kir = farfield_kirchhoff(sphere_solution, R, obs)
        assert np.linalg.norm(kir - src) / np.linalg.norm(src) <= 1e-12

    def test_radius_independence(self, combined_solution):
        obs = direction_grid(6, 12).normals
        k2 = farfield_kirchhoff(combined_solution, 2.0, obs)
        k3 = farfield_kirchhoff(combined_solution, 3.0, obs)
        assert np.linalg.norm(k2 - k3) / np.linalg.norm(k2) < 1e-4

    def test_radius_must_enclose_scatterer(self, sphere_solution):
        # a nan radius passed every comparison and returned nan far fields
        for R in (0.9, np.nan, np.inf):
            with pytest.raises(ValueError, match="does not enclose"):
                farfield_kirchhoff(sphere_solution, R, lattice_directions())

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
        qpts, w = quadrature_points(mesh)
        c = mesh.panel_centroid
        psi0 = np.exp(1j * k * c @ EZ)
        # each panel's second moment; the 3-point rule integrates quadratics exactly
        M = np.einsum("q,g,qgi,qgj->qij", mesh.panel_area, w, qpts - c[:, None], qpts - c[:, None])
        born_disc = np.empty(len(obs), dtype=complex)
        born_full = np.empty(len(obs), dtype=complex)
        for i, x_hat in enumerate(obs):
            # discretization's own sampling: incident factor at centroids, each panel a monopole
            # plus a quadrupole at its centroid
            weight = mesh.panel_area - 0.5 * k**2 * np.einsum("i,qij,j->q", x_hat, M, x_hat)
            born_disc[i] = -np.sum(np.exp(-1j * k * c @ x_hat) * weight * psi0) / (4 * np.pi)
            born_full[i] = -np.einsum("qg,g,q->", np.exp(-1j * k * qpts @ x_hat) * np.exp(1j * k * qpts @ EZ),
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


TABLE = """\
k,inc_theta,inc_phi,obs_theta,obs_phi,re,im
0.10000000000000001,0,0,1.5707963267948966,0,-0,4.9406564584124654e-324
0.10000000000000001,0,0,1.5707963267948966,6.2831853061795861,1e+308,-1e+308
0.10000000000000001,0,0,0.64350110879328426,1.5707963267948966,0.33333333333333331,0
0.10000000000000001,3.1415926535897931,0,1.5707963267948966,0,0.10000000000000001,0.20000000000000001
0.10000000000000001,3.1415926535897931,0,1.5707963267948966,6.2831853061795861,-2.5,-0
0.10000000000000001,3.1415926535897931,0,0.64350110879328426,1.5707963267948966,-1.5000000000000201e-310,7
"""


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

    def test_table_text(self, tmp_path):
        # signed zeros, a subnormal, 1e308, incidence at theta = 0 and pi, and phi just
        # below 2 pi; the literal table is what the writer has always produced for them
        values = np.array([[complex(-0.0, 5e-324), complex(1e308, -1e308), complex(1 / 3, 0.0)],
                           [complex(0.1, 0.2), complex(-2.5, -0.0), complex(-1.5e-310, 7.0)]])
        ff = FarFieldPattern(k=0.1, values=values,
                             observations=[[1.0, 0.0, 0.0], [1.0, -1e-9, 0.0], [0.0, 0.6, 0.8]],
                             obs_weights=[1.0, 2.0, 3.0], incidence=[[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
        path = tmp_path / "pinned.csv"
        save_farfield_csv(ff, path, {"omega": 2})
        meta, table = path.read_text().split("\n", 1)
        assert table == TABLE
        meta = json.loads(meta[len("# META "):])
        assert meta["omega"] == 2 and meta["k"] == 0.1 and meta["obs_weights"] == [1.0, 2.0, 3.0]
        assert (meta["n_incidence"], meta["n_observation"]) == (2, 3)

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

    @pytest.mark.parametrize("field, other", [("incidence", np.array([[1.0, 0.0, 0.0]])),
                                              ("obs_weights", np.array([1.0, 1.0, 2.0])),
                                              ("obs_weights", np.ones(4))])
    def test_incidence_and_weight_mismatch_detected(self, field, other):
        # equal values on equal observations: only the incidences or the weights tell the tables apart
        table = dict(k=1.0, values=np.ones((1, 3)), observations=lattice_directions()[:3],
                     obs_weights=np.ones(3), incidence=EZ[None, :])
        ff1, ff2 = FarFieldPattern(**table), FarFieldPattern(**dict(table, **{field: other}))
        for distance in (ff1.rel_l2_distance, ff1.max_rel_distance):
            with pytest.raises(ValueError, match="different"):
                distance(ff2)
