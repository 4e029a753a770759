"""Meshes, sphere quadrature, volume grids, OFF round trips."""

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import sph_harm_y

from deltashell.geometry import (
    MeshFormatError,
    SurfaceMesh,
    load_mesh,
    make_sphere_grid,
    make_sphere_mesh,
    make_volume_grid,
    save_mesh,
)

from conftest import cube_mesh

SPHERE_AREA = 4.0 * np.pi


def icosahedron_area(radius):
    # 20 equilateral faces, edge a = 4 R / sqrt(10 + 2 sqrt 5)
    a = 4.0 * radius / np.sqrt(10.0 + 2.0 * np.sqrt(5.0))
    return 20.0 * (np.sqrt(3.0) / 4.0) * a**2


class TestIcosphere:
    def test_level_zero_is_the_icosahedron(self, sphere_meshes):
        m = sphere_meshes[0]
        assert m.n_panels == 20
        assert len(m.vertices) == 12
        # exact inscribed-icosahedron area; its deficit vs 4 pi is 23.8%
        assert_allclose(m.total_area, icosahedron_area(1.0), rtol=1e-12)
        assert abs(m.total_area - SPHERE_AREA) / SPHERE_AREA < 0.25

    def test_refined_area_converges(self, sphere_meshes):
        m = sphere_meshes[3]
        assert m.n_panels == 1280
        assert abs(m.total_area - SPHERE_AREA) / SPHERE_AREA < 0.005

    def test_area_scales_with_radius_squared(self):
        m1 = make_sphere_mesh(1.0, 2)
        m2 = make_sphere_mesh(2.0, 2)
        assert_allclose(m2.total_area, 4.0 * m1.total_area, rtol=1e-12)

    def test_refinement_monotonicity(self):
        errs = [
            abs(make_sphere_mesh(1.0, s).total_area - SPHERE_AREA)
            for s in range(5)
        ]
        assert all(e1 > e2 for e1, e2 in zip(errs, errs[1:]))

    def test_closedness_divergence_theorem(self, sphere_meshes):
        m = sphere_meshes[2]
        total = (m.panel_area[:, None] * m.panel_normal).sum(axis=0)
        assert np.linalg.norm(total) < 1e-10 * m.total_area

    def test_normals_unit_and_outward(self, sphere_meshes):
        m = sphere_meshes[2]
        assert np.max(np.abs(np.linalg.norm(m.panel_normal, axis=1) - 1.0)) < 1e-12
        assert np.all(np.einsum("ij,ij->i", m.panel_normal, m.panel_centroid) > 0)

    def test_each_edge_shared_twice(self, sphere_meshes):
        assert sphere_meshes[1].open_edge_count() == 0

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            make_sphere_mesh(-1.0, 1)
        with pytest.raises(ValueError):
            make_sphere_mesh(1.0, -1)


class TestOffFiles:
    def test_cube_roundtrip_area(self, tmp_path):
        path = tmp_path / "cube.off"
        save_mesh(cube_mesh(2.0), path)
        m = load_mesh(path)
        assert m.n_panels == 12
        assert_allclose(m.total_area, 24.0, rtol=1e-12)
        assert m.open_edge_count() == 0

    def test_non_triangular_face_reports_line(self, tmp_path):
        path = tmp_path / "quad.off"
        path.write_text(
            "OFF\n"
            "4 1 0\n"
            "0 0 0\n"
            "1 0 0\n"
            "1 1 0\n"
            "0 1 0\n"
            "4 0 1 2 3\n"
        )
        with pytest.raises(MeshFormatError, match="non-triangular face at line 7"):
            load_mesh(path)

    def test_icosahedron_counts(self, tmp_path, sphere_meshes):
        path = tmp_path / "ico.off"
        save_mesh(sphere_meshes[0], path)
        m = load_mesh(path)
        assert m.n_panels == 20
        assert len(m.vertices) == 12
        mult = m.edge_multiplicity()
        assert len(mult) == 30
        assert all(len(v) == 2 for v in mult.values())

    def test_open_mesh_raises_with_count(self, tmp_path, sphere_meshes):
        m = sphere_meshes[0]
        path = tmp_path / "open.off"
        save_mesh(SurfaceMesh.from_arrays(m.vertices, m.triangles[:-1]), path)
        with pytest.raises(MeshFormatError, match="not closed \\(3 open edges\\)"):
            load_mesh(path)

    def test_inconsistent_winding_fails(self, tmp_path, sphere_meshes):
        m = sphere_meshes[0]
        tris = m.triangles.copy()
        tris[0] = tris[0][::-1]
        path = tmp_path / "flip.off"
        save_mesh(SurfaceMesh.from_arrays(m.vertices, tris), path)
        with pytest.raises(MeshFormatError, match="inconsistent winding"):
            load_mesh(path)

    def test_inward_winding_fails(self, tmp_path, sphere_meshes):
        m = sphere_meshes[1]
        path = tmp_path / "inward.off"
        save_mesh(SurfaceMesh.from_arrays(m.vertices, m.triangles[:, ::-1]), path)
        with pytest.raises(MeshFormatError, match="inward winding"):
            load_mesh(path)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "bad.off"
        path.write_text("NOT_OFF\n")
        with pytest.raises(MeshFormatError, match="OFF header"):
            load_mesh(path)


class TestSphereGrid:
    def test_weights_sum_to_area(self):
        g = make_sphere_grid(1.0, 16, 32)
        assert abs(g.weights.sum() - SPHERE_AREA) < 1e-12
        g2 = make_sphere_grid(2.5, 8, 12)
        assert abs(g2.weights.sum() - SPHERE_AREA * 2.5**2) < 1e-10

    def test_odd_integrand_vanishes(self):
        g = make_sphere_grid(1.0, 16, 32)
        assert abs(g.weights @ g.nodes[:, 2]) < 1e-12

    def test_plane_wave_average(self):
        # int_{S^2} e^{ik y.d} dsigma = 4 pi sin(k)/k at |d| = k = 1
        g = make_sphere_grid(1.0, 16, 32)
        val = g.weights @ np.exp(1j * g.nodes @ np.array([0.0, 0.0, 1.0]))
        assert abs(val - SPHERE_AREA * np.sin(1.0)) < 1e-12

    @pytest.mark.parametrize("ell,emm", [(1, 0), (2, 1), (5, -3), (9, 4)])
    def test_spherical_harmonics_integrate_to_zero(self, ell, emm):
        g = make_sphere_grid(1.0, 10, 24)
        theta = np.arccos(np.clip(g.normals[:, 2], -1, 1))
        phi = np.arctan2(g.normals[:, 1], g.normals[:, 0])
        vals = sph_harm_y(ell, emm, theta, phi)
        assert abs(g.weights @ vals) < 1e-10

    def test_antipode_index(self):
        g = make_sphere_grid(1.0, 6, 8)
        anti = g.antipode_index()
        assert np.max(np.abs(g.nodes[anti] + g.nodes)) < 1e-12

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            make_sphere_grid(1.0, 1, 8)
        with pytest.raises(ValueError):
            make_sphere_grid(1.0, 4, 3)


class TestVolumeGrid:
    def test_unit_cube(self):
        g = make_volume_grid((-0.5, 0.5), 2)
        assert g.n_cells == 8
        assert_allclose(g.cell_volume, 0.125, rtol=1e-15)

    def test_cell_volume_formula(self):
        g = make_volume_grid((-2.0, 2.0), 16)
        assert_allclose(g.cell_volume, (4.0 / 16.0) ** 3, rtol=1e-15)

    def test_cells_tile_the_box(self):
        g = make_volume_grid((-2.0, 2.0), 16)
        assert abs(g.n_cells * g.cell_volume - 4.0**3) < 1e-12 * 4.0**3

    def test_validation(self):
        with pytest.raises(ValueError):
            make_volume_grid((-1.0, 1.0), 1)
        with pytest.raises(ValueError):
            make_volume_grid((1.0, -1.0), 4)
