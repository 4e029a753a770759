"""Meshes, sphere quadrature, volume grids, OFF round trips."""

import dataclasses
import hashlib
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import sph_harm_y

from deltashell.acoustic import GaussianBump, MediumSpec, RadialCutoff
from deltashell.boundary import DeltaSpec
from deltashell.geometry import (
    MeshFormatError,
    SurfaceMesh,
    _edges,
    load_mesh,
    make_sphere_grid,
    make_sphere_mesh,
    make_volume_grid,
    save_mesh,
)
from deltashell.volume import PotentialSample

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
        assert_allclose(m.panel_area.sum(), icosahedron_area(1.0), rtol=1e-12)
        assert abs(m.panel_area.sum() - SPHERE_AREA) / SPHERE_AREA < 0.25

    def test_refined_area_converges(self, sphere_meshes):
        m = sphere_meshes[3]
        assert m.n_panels == 1280
        assert abs(m.panel_area.sum() - SPHERE_AREA) / SPHERE_AREA < 0.005

    def test_area_scales_with_radius_squared(self):
        m1 = make_sphere_mesh(1.0, 2)
        m2 = make_sphere_mesh(2.0, 2)
        assert_allclose(m2.panel_area.sum(), 4.0 * m1.panel_area.sum(), rtol=1e-12)

    def test_refinement_monotonicity(self):
        errs = [
            abs(make_sphere_mesh(1.0, s).panel_area.sum() - SPHERE_AREA)
            for s in range(5)
        ]
        assert all(e1 > e2 for e1, e2 in zip(errs, errs[1:]))

    def test_closedness_divergence_theorem(self, sphere_meshes):
        m = sphere_meshes[2]
        total = (m.panel_area[:, None] * m.panel_normal).sum(axis=0)
        assert np.linalg.norm(total) < 1e-10 * m.panel_area.sum()

    def test_normals_unit_and_outward(self, sphere_meshes):
        m = sphere_meshes[2]
        assert np.max(np.abs(np.linalg.norm(m.panel_normal, axis=1) - 1.0)) < 1e-12
        assert np.all(np.einsum("ij,ij->i", m.panel_normal, m.panel_centroid) > 0)

    def test_each_edge_shared_twice(self, sphere_meshes):
        assert sphere_meshes[1].open_edge_count() == 0

    # sha256 of the vertices' and the triangles' bytes of the icosphere of radius 1: the
    # refinement's vertex numbering and every rounding of its midpoints are part of each
    # kernel, so a change here moves every output that uses an icosphere
    ICOSPHERE_SHA256 = {
        0: ("25c2ce4291cc17ab13b6dc4303a96f09245fc2e636869cc7bd20cc1cae129df8",
            "3db7a1822c9b623934e2e4740412c5fbeb065c97b1d30344bad8fa21007c31dc"),
        1: ("06c7f0252260d8fc7aee150c52687730f6e6b5155419da81ee280e48c7b5a6a0",
            "e0cdbcb335bade58be14276c1a7faf8c7b2b9d10522ca0de92c2bd6db7443d1e"),
        2: ("7de701b5e82e6ee7720d5b5c3cbaba8ceec2aa1e2f7901e80eea82c2254f27c0",
            "b749ec47113ac6dd2fa5788272bee48303d83020354a7b3516876ae6685c404a"),
        3: ("e30eeaa5b2391204db18ad30d68443f2573f17187b99a8a2149acb61dc3f8d88",
            "52ba19c5cda73d335f2e29108333509a800acd29026ae2e6c65c32ec3dd5394b"),
        4: ("0ad2d3b64249546dacbf5ec693366050a9b2b396f11f7b1786beda06a3a1b218",
            "1d19353ebb1a280dd705a884e8db6ef144348417dd5324e62326249995dddb35"),
    }

    @pytest.mark.parametrize("level", sorted(ICOSPHERE_SHA256))
    def test_arrays_are_pinned(self, level):
        m = make_sphere_mesh(1.0, level)
        assert m.vertices.dtype == np.float64 and m.triangles.dtype == np.int64
        digests = tuple(hashlib.sha256(a.tobytes()).hexdigest() for a in (m.vertices, m.triangles))
        assert digests == self.ICOSPHERE_SHA256[level]

    def test_from_arrays_freezes_copies(self, sphere_meshes):
        # the mesh's arrays are read-only copies; the caller's stay writeable and its own
        v, t = sphere_meshes[1].vertices.copy(), sphere_meshes[1].triangles.copy()
        m = SurfaceMesh.from_arrays(v, t)
        assert v.flags.writeable and t.flags.writeable
        assert not (m.vertices.flags.writeable or m.triangles.flags.writeable)
        assert not (np.shares_memory(m.vertices, v) or np.shares_memory(m.triangles, t))
        v[0], t[0] = 0.0, t[1]
        assert np.array_equal(m.vertices, sphere_meshes[1].vertices)
        assert np.array_equal(m.triangles, sphere_meshes[1].triangles)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            make_sphere_mesh(-1.0, 1)
        with pytest.raises(ValueError):
            make_sphere_mesh(1.0, -1)


class TestPerPanel:
    def test_number_or_one_value_per_panel(self, sphere_meshes):
        m = sphere_meshes[0]
        assert np.array_equal(m.per_panel(1.5, "alpha"), np.full(20, 1.5))
        assert np.array_equal(m.per_panel(np.arange(20), "alpha"), np.arange(20.0))

    @pytest.mark.parametrize("values, message", [
        (np.ones(19), "xi holds 19 values; the mesh has 20 panels"),
        (np.ones((20, 1)), "xi holds 20 values; the mesh has 20 panels"),
        (np.nan, "xi has non-finite values"),
        ([1.0] * 19 + [-np.inf], "xi has non-finite values"),
    ])
    def test_rejects_naming_the_field(self, sphere_meshes, values, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            sphere_meshes[0].per_panel(values, "xi")


def _sphere(radius=1.0):
    return make_sphere_mesh(radius, 1)


def _grid(hi=1.0, n=4):
    return make_volume_grid(((-1.0, -1.0, -1.0), (1.0, 1.0, hi)), n)


def _potential(grid=None, amplitude=1.0):
    grid = _grid() if grid is None else grid
    return PotentialSample(grid=grid, values=np.where(grid.boundary_mask(), 0.0, amplitude))


def _medium(gamma=None, xi=1.0, rho=0.1, v=0.2, r_outer=3.0):
    return MediumSpec(gamma=_sphere() if gamma is None else gamma, shell_density=xi,
                      rho_bumps=(GaussianBump(rho, (0.0, 0.0, 0.0), 0.4),),
                      v_bumps=(GaussianBump(v, (0.0, 0.0, 0.3), 0.5),), cutoff=RadialCutoff(2.0, r_outer))


# each type: a builder, and builders that change one compared field each
VALUE_TYPES = {
    "SurfaceMesh": (_sphere, [
        lambda: _sphere(1.1),                                                        # vertices
        lambda: SurfaceMesh.from_arrays(_sphere().vertices, _sphere().triangles[:, [0, 2, 1]]),  # triangles
    ]),
    "VolumeGrid": (_grid, [
        lambda: make_volume_grid(((-1.5, -1.0, -1.0), (1.0, 1.0, 1.0)), 4),         # lo
        lambda: _grid(hi=1.5),                                                       # hi
        lambda: _grid(n=5),                                                          # n
    ]),
    "PotentialSample": (_potential, [
        lambda: _potential(_grid(hi=1.5)),                                           # grid
        lambda: _potential(amplitude=2.0),                                           # values
    ]),
    "DeltaSpec": (lambda: DeltaSpec(mesh=_sphere(), alpha=1.0), [
        lambda: DeltaSpec(mesh=_sphere(1.1), alpha=1.0),                             # mesh
        lambda: DeltaSpec(mesh=_sphere(), alpha=2.0),                                # alpha
    ]),
    "MediumSpec": (_medium, [
        lambda: _medium(gamma=_sphere(1.1)),                                         # gamma
        lambda: _medium(xi=1.5),                                                     # shell_density
        lambda: _medium(rho=0.3),                                                    # rho_bumps
        lambda: _medium(v=0.3),                                                      # v_bumps
        lambda: _medium(r_outer=3.5),                                                # cutoff
    ]),
}


class TestValueEquality:
    @pytest.mark.parametrize("name", sorted(VALUE_TYPES))
    def test_built_twice_is_equal_and_one_field_differs(self, name):
        build, others = VALUE_TYPES[name]
        a, b = build(), build()
        assert type(a).__name__ == name and a is not b
        assert a == b and not a != b
        for other in others:
            c = other()
            assert a != c and not a == c, c
        assert a != name                                          # another type is never equal

    def test_equal_meshes_hash_equal(self):
        m = make_sphere_mesh(1.0, 0)
        v = m.vertices.copy()
        v[v == 0.0] = -0.0
        signed = SurfaceMesh.from_arrays(v, m.triangles)
        assert signed.vertices.tobytes() != m.vertices.tobytes()   # the icosahedron has 0.0 coordinates
        for other in (signed, make_sphere_mesh(1.0, 0)):
            assert other == m and hash(other) == hash(m)
            assert {m: "gamma"}[other] == "gamma"

    def test_derived_arrays_are_not_compared(self):
        # panel arrays follow from vertices and triangles; a grid from lo, hi and n
        m, g = _sphere(), _grid()
        assert m == dataclasses.replace(m, panel_area=2.0 * m.panel_area)
        assert g == dataclasses.replace(g, cell_volume=0.0)


class TestOffFiles:
    def test_cube_roundtrip_area(self, tmp_path):
        path = tmp_path / "cube.off"
        save_mesh(cube_mesh(2.0), path)
        m = load_mesh(path)
        assert m.n_panels == 12
        assert_allclose(m.panel_area.sum(), 24.0, rtol=1e-12)
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
        edges, _, uses, balance = _edges(m.triangles)
        assert len(edges) == 30
        assert np.all(uses == 2) and np.all(balance == 0)

    def test_open_mesh_raises_with_count(self, tmp_path, sphere_meshes):
        m = sphere_meshes[0]
        path = tmp_path / "open.off"
        save_mesh(SurfaceMesh.from_arrays(m.vertices, m.triangles[:-1]), path)
        with pytest.raises(MeshFormatError, match="not closed \\(3 open edges\\)"):
            load_mesh(path)

    def test_edge_shared_by_three_faces_is_not_closed(self, tmp_path):
        # a tetrahedron and a fin (1, 4, 2) on its edge (1, 2): that edge is used three
        # times and the fin's two free edges once each
        verts = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]]
        m = SurfaceMesh.from_arrays(verts, [[0, 2, 1], [0, 1, 3], [0, 3, 2], [1, 2, 3], [1, 4, 2]])
        edges, _, uses, _ = _edges(m.triangles)
        assert uses[np.flatnonzero((edges == [1, 2]).all(axis=1))].tolist() == [3]
        assert np.count_nonzero(uses != 2) == m.open_edge_count() == 3
        path = tmp_path / "fin.off"
        save_mesh(m, path)
        with pytest.raises(MeshFormatError, match="not closed \\(3 open edges\\)"):
            load_mesh(path)

    def test_inconsistent_winding_fails(self, tmp_path, sphere_meshes):
        m = sphere_meshes[0]
        tris = m.triangles.copy()
        tris[0] = tris[0][::-1]
        path = tmp_path / "flip.off"
        save_mesh(SurfaceMesh.from_arrays(m.vertices, tris), path)
        # all three edges of the flipped face (5, 11, 0) now run as their neighbours'
        # do; the first one in face order is named
        with pytest.raises(MeshFormatError, match="inconsistent winding: edge \\(5, 11\\) traversed twice"):
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
        for bbox in ((np.nan, 1.6), (-1.6, np.inf), ((-1.0, -1.0, -np.inf), (1.0, 1.0, 1.0))):
            with pytest.raises(ValueError, match="finite"):
                make_volume_grid(bbox, 4)
