"""Surface and volume discretization.

Provides the three grids everything else is built on:

* ``SurfaceMesh``   -- closed triangulated surface (flat panels) with
  per-panel centroids, areas, outward normals and the panel quadrature rule.
* ``SphereGrid``    -- tensor Gauss-Legendre x uniform-phi quadrature on a
  sphere of radius R, used for flux/Wronskian integrals.
* ``VolumeGrid``    -- uniform Cartesian cell grid over an axis-aligned box,
  used to sample compactly supported potentials.

Panels are flat triangles; curvature enters only through refinement.
Meshes are immutable after construction and safe to share between workers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SurfaceMesh",
    "SphereGrid",
    "VolumeGrid",
    "MeshFormatError",
    "triangle_rule",
    "make_sphere_mesh",
    "load_mesh",
    "save_mesh",
    "make_sphere_grid",
    "make_volume_grid",
]


class MeshFormatError(ValueError):
    """Raised when an OFF file cannot be parsed into a valid triangle mesh."""


# ---------------------------------------------------------------------------
# Panel quadrature rule: the degree-2 symmetric 3-point Gauss rule
# (barycentric points, weights summing to 1)
# ---------------------------------------------------------------------------

_GAUSS3_BARY = np.array(
    [
        [2.0 / 3.0, 1.0 / 6.0, 1.0 / 6.0],
        [1.0 / 6.0, 2.0 / 3.0, 1.0 / 6.0],
        [1.0 / 6.0, 1.0 / 6.0, 2.0 / 3.0],
    ]
)
_GAUSS3_WEIGHTS = np.array([1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0])


def triangle_rule(v0: np.ndarray, v1: np.ndarray, v2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Panel-rule points (m, 3, 3) and weights (3,) of the triangles with corners v0, v1, v2."""
    bary = _GAUSS3_BARY
    pts = (
        bary[None, :, 0, None] * v0[:, None, :]
        + bary[None, :, 1, None] * v1[:, None, :]
        + bary[None, :, 2, None] * v2[:, None, :]
    )
    return pts, _GAUSS3_WEIGHTS


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


# ---------------------------------------------------------------------------
# Surface mesh
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SurfaceMesh:
    """Closed, outward-oriented triangle mesh.

    Attributes
    ----------
    vertices : (nv, 3) float array
    triangles : (nt, 3) int array, CCW seen from outside
    panel_centroid : (nt, 3)
    panel_area : (nt,), all positive
    panel_normal : (nt, 3), unit outward normals
    panel_diameter : (nt,), longest edge per panel
    """

    vertices: np.ndarray
    triangles: np.ndarray
    panel_centroid: np.ndarray = field(repr=False, default=None)
    panel_area: np.ndarray = field(repr=False, default=None)
    panel_normal: np.ndarray = field(repr=False, default=None)
    panel_diameter: np.ndarray = field(repr=False, default=None)

    @classmethod
    def from_arrays(cls, vertices, triangles) -> "SurfaceMesh":
        vertices = np.asarray(vertices, dtype=float)
        triangles = np.asarray(triangles, dtype=np.int64)
        if vertices.ndim != 2 or vertices.shape[1] != 3:
            raise ValueError("vertices must have shape (nv, 3)")
        if triangles.ndim != 2 or triangles.shape[1] != 3:
            raise ValueError("triangles must have shape (nt, 3)")
        v0 = vertices[triangles[:, 0]]
        v1 = vertices[triangles[:, 1]]
        v2 = vertices[triangles[:, 2]]
        cross = np.cross(v1 - v0, v2 - v0)
        two_area = np.linalg.norm(cross, axis=1)
        if np.any(two_area <= 0):
            raise ValueError("degenerate panel with zero area")
        normals = cross / two_area[:, None]
        edges = np.stack(
            [
                np.linalg.norm(v1 - v0, axis=1),
                np.linalg.norm(v2 - v1, axis=1),
                np.linalg.norm(v0 - v2, axis=1),
            ]
        )
        mesh = cls(
            vertices=_freeze(vertices),
            triangles=_freeze(triangles),
            panel_centroid=_freeze((v0 + v1 + v2) / 3.0),
            panel_area=_freeze(two_area / 2.0),
            panel_normal=_freeze(normals),
            panel_diameter=_freeze(edges.max(axis=0)),
        )
        return mesh

    @property
    def n_panels(self) -> int:
        return len(self.triangles)

    @property
    def total_area(self) -> float:
        return float(self.panel_area.sum())

    @property
    def bounding_radius(self) -> float:
        """Largest vertex distance from the origin."""
        return float(np.max(np.linalg.norm(self.vertices, axis=1), initial=0.0))

    def corners(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vertex coordinate triples per panel, each (nt, 3)."""
        t = self.triangles
        return self.vertices[t[:, 0]], self.vertices[t[:, 1]], self.vertices[t[:, 2]]

    def quadrature_points(self) -> tuple[np.ndarray, np.ndarray]:
        """Physical quadrature points (nt, 3, 3) and weights (3,) of the panel rule.

        Weights sum to 1; multiply by panel_area for surface integration.
        """
        return triangle_rule(*self.corners())

    def edge_multiplicity(self) -> dict[tuple[int, int], list[int]]:
        """Map undirected edge -> list of +1/-1 orientations encountered."""
        seen: dict[tuple[int, int], list[int]] = {}
        for a, b, c in self.triangles:
            for i, j in ((a, b), (b, c), (c, a)):
                key = (min(i, j), max(i, j))
                seen.setdefault(key, []).append(1 if i < j else -1)
        return seen

    def open_edge_count(self) -> int:
        return sum(1 for v in self.edge_multiplicity().values() if len(v) != 2)

    def check_orientation(self) -> None:
        """Raise on inconsistent winding (an edge traversed twice the same way),
        and on inward winding of a closed mesh (signed volume <= 0)."""
        edges = self.edge_multiplicity()
        for (i, j), orients in edges.items():
            if len(orients) == 2 and orients[0] == orients[1]:
                raise MeshFormatError(
                    f"inconsistent winding: edge ({i}, {j}) traversed twice "
                    "in the same direction"
                )
        if all(len(v) == 2 for v in edges.values()):
            v0, v1, v2 = self.corners()
            volume = np.einsum("ij,ij->", v0, np.cross(v1, v2)) / 6.0
            if volume <= 0:
                raise MeshFormatError(
                    f"inward winding: the closed mesh has signed volume {volume:.3g} <= 0; "
                    "faces must be counter-clockwise seen from outside"
                )


def make_sphere_mesh(radius: float, subdivisions: int) -> SurfaceMesh:
    """Icosphere: regular icosahedron refined by edge midpoint subdivision.

    Each subdivision quadruples the panel count (20 * 4**subdivisions panels);
    new vertices are projected back onto the sphere.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    if subdivisions < 0:
        raise ValueError("subdivisions must be >= 0")

    phi = (1.0 + np.sqrt(5.0)) / 2.0
    verts = np.array(
        [
            [-1, phi, 0], [1, phi, 0], [-1, -phi, 0], [1, -phi, 0],
            [0, -1, phi], [0, 1, phi], [0, -1, -phi], [0, 1, -phi],
            [phi, 0, -1], [phi, 0, 1], [-phi, 0, -1], [-phi, 0, 1],
        ],
        dtype=float,
    )
    verts /= np.linalg.norm(verts, axis=1)[:, None]
    faces = np.array(
        [
            [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
            [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
            [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
            [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
        ],
        dtype=np.int64,
    )

    verts_list = [tuple(v) for v in verts]
    for _ in range(subdivisions):
        cache: dict[tuple[int, int], int] = {}

        def midpoint(i: int, j: int) -> int:
            key = (min(i, j), max(i, j))
            if key in cache:
                return cache[key]
            m = np.array(verts_list[i]) + np.array(verts_list[j])
            m /= np.linalg.norm(m)
            verts_list.append(tuple(m))
            cache[key] = len(verts_list) - 1
            return cache[key]

        new_faces = []
        for a, b, c in faces:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            new_faces += [[a, ab, ca], [b, bc, ab], [c, ca, bc], [ab, bc, ca]]
        faces = np.array(new_faces, dtype=np.int64)

    verts = np.array(verts_list) * radius
    return SurfaceMesh.from_arrays(verts, faces)


def load_mesh(path) -> SurfaceMesh:
    """Read a triangle mesh from an OFF file.

    Orientation is taken from the file winding (CCW seen from outside).
    Raises ``MeshFormatError`` with a line number on parse errors and on
    non-triangular faces, on inconsistent or inward winding, and with the
    open-edge count on a mesh that is not closed (the formulation needs a
    closed Gamma).
    """
    with open(path, "r") as fh:
        raw = fh.readlines()

    # strip comments / blank lines while keeping original line numbers
    lines = [
        (i + 1, ln.split("#", 1)[0].strip())
        for i, ln in enumerate(raw)
        if ln.split("#", 1)[0].strip()
    ]
    if not lines or lines[0][1] != "OFF":
        lineno = lines[0][0] if lines else 1
        raise MeshFormatError(f"{path}: missing OFF header at line {lineno}")

    try:
        counts_line, counts = lines[1]
        nv, nf = [int(tok) for tok in counts.split()[:2]]
    except (IndexError, ValueError):
        raise MeshFormatError(f"{path}: malformed counts at line {lines[1][0] if len(lines) > 1 else 2}")

    if len(lines) < 2 + nv + nf:
        raise MeshFormatError(f"{path}: expected {nv} vertices and {nf} faces, file truncated")

    verts = np.empty((nv, 3))
    for row, (lineno, text) in enumerate(lines[2 : 2 + nv]):
        toks = text.split()
        if len(toks) != 3:
            raise MeshFormatError(f"{path}: malformed vertex at line {lineno}")
        try:
            verts[row] = [float(t) for t in toks]
        except ValueError:
            raise MeshFormatError(f"{path}: malformed vertex at line {lineno}")

    tris = np.empty((nf, 3), dtype=np.int64)
    for row, (lineno, text) in enumerate(lines[2 + nv : 2 + nv + nf]):
        toks = text.split()
        try:
            arity = int(toks[0])
        except (IndexError, ValueError):
            raise MeshFormatError(f"{path}: malformed face at line {lineno}")
        if arity != 3:
            raise MeshFormatError(f"{path}: non-triangular face at line {lineno}")
        if len(toks) < 4:
            raise MeshFormatError(f"{path}: malformed face at line {lineno}")
        idx = [int(t) for t in toks[1:4]]
        if any(i < 0 or i >= nv for i in idx):
            raise MeshFormatError(f"{path}: vertex index out of range at line {lineno}")
        tris[row] = idx

    mesh = SurfaceMesh.from_arrays(verts, tris)
    mesh.check_orientation()
    n_open = mesh.open_edge_count()
    if n_open:
        raise MeshFormatError(f"{path}: mesh is not closed ({n_open} open edges)")
    return mesh


def save_mesh(mesh: SurfaceMesh, path) -> None:
    """Write a mesh back to OFF (debugging aid)."""
    with open(path, "w") as fh:
        fh.write("OFF\n")
        fh.write(f"{len(mesh.vertices)} {len(mesh.triangles)} 0\n")
        for v in mesh.vertices:
            fh.write(f"{v[0]:.17g} {v[1]:.17g} {v[2]:.17g}\n")
        for t in mesh.triangles:
            fh.write(f"3 {t[0]} {t[1]} {t[2]}\n")


# ---------------------------------------------------------------------------
# Sphere quadrature grid
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SphereGrid:
    """Quadrature nodes on the sphere |x| = R.

    Gauss-Legendre in cos(theta) tensored with a uniform rule in phi;
    exact for spherical harmonics up to degree n_theta - 1 (and well beyond
    in practice). ``weights`` sum to the sphere area 4 pi R^2.
    """

    radius: float
    nodes: np.ndarray       # (m, 3)
    weights: np.ndarray     # (m,)
    normals: np.ndarray     # (m, 3) unit radial
    n_theta: int
    n_phi: int

    @property
    def n_nodes(self) -> int:
        return len(self.weights)

    def antipode_index(self) -> np.ndarray:
        """Index map sending each node to (the index of) its antipode.

        Requires n_phi even; the node set is then closed under x -> -x.
        """
        if self.n_phi % 2:
            raise ValueError("antipode map needs an even n_phi")
        it, ip = np.meshgrid(
            np.arange(self.n_theta), np.arange(self.n_phi), indexing="ij"
        )
        anti = (self.n_theta - 1 - it) * self.n_phi + (ip + self.n_phi // 2) % self.n_phi
        return anti.ravel()


def make_sphere_grid(R: float, n_theta: int, n_phi: int) -> SphereGrid:
    if R <= 0:
        raise ValueError("R must be positive")
    if n_theta < 2 or n_phi < 4:
        raise ValueError("need n_theta >= 2 and n_phi >= 4")
    mu, w_mu = np.polynomial.legendre.leggauss(n_theta)   # nodes in cos(theta)
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    w_phi = 2.0 * np.pi / n_phi

    sin_t = np.sqrt(1.0 - mu**2)
    x = sin_t[:, None] * np.cos(phi)[None, :]
    y = sin_t[:, None] * np.sin(phi)[None, :]
    z = np.broadcast_to(mu[:, None], x.shape)
    normals = np.stack([x, y, z], axis=-1).reshape(-1, 3)
    weights = (w_mu[:, None] * w_phi * R**2).repeat(n_phi).reshape(n_theta, n_phi).ravel()
    return SphereGrid(
        radius=float(R),
        nodes=_freeze(normals * R),
        weights=_freeze(weights),
        normals=_freeze(normals),
        n_theta=n_theta,
        n_phi=n_phi,
    )


# ---------------------------------------------------------------------------
# Cartesian volume grid
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VolumeGrid:
    """Uniform n x n x n cell grid tiling an axis-aligned box exactly."""

    lo: np.ndarray          # (3,)
    hi: np.ndarray          # (3,)
    n: int
    cell_center: np.ndarray  # (n**3, 3), C order in (ix, iy, iz)
    cell_volume: float
    spacing: np.ndarray      # (3,)

    @property
    def n_cells(self) -> int:
        return self.n**3

    def boundary_mask(self) -> np.ndarray:
        """True for cells touching the box boundary."""
        idx = np.arange(self.n)
        edge = (idx == 0) | (idx == self.n - 1)
        ix, iy, iz = np.meshgrid(edge, edge, edge, indexing="ij")
        return (ix | iy | iz).ravel()


def make_volume_grid(bbox, n: int) -> VolumeGrid:
    """Build a grid of n^3 cells over ``bbox``.

    ``bbox`` is either (lo_scalar, hi_scalar) for a cube or a pair of
    3-vectors (lo, hi).
    """
    if n < 2:
        raise ValueError("need n >= 2 cells per axis")
    lo, hi = bbox
    lo = np.broadcast_to(np.asarray(lo, dtype=float), (3,)).copy()
    hi = np.broadcast_to(np.asarray(hi, dtype=float), (3,)).copy()
    if np.any(hi <= lo):
        raise ValueError("degenerate bounding box")
    spacing = (hi - lo) / n
    axes = [lo[d] + spacing[d] * (np.arange(n) + 0.5) for d in range(3)]
    X, Y, Z = np.meshgrid(*axes, indexing="ij")
    centers = np.stack([X, Y, Z], axis=-1).reshape(-1, 3)
    return VolumeGrid(
        lo=_freeze(lo),
        hi=_freeze(hi),
        n=int(n),
        cell_center=_freeze(centers),
        cell_volume=float(np.prod(spacing)),
        spacing=_freeze(spacing),
    )
