"""Surface and volume discretization.

Provides the three grids everything else is built on:

* ``SurfaceMesh``   -- closed triangulated surface (flat panels) with
  per-panel centroids, areas, outward normals and second-moment factors.
* ``SphereGrid``    -- tensor Gauss-Legendre x uniform-phi quadrature on a
  sphere of radius R, used for flux/Wronskian integrals.
* ``VolumeGrid``    -- uniform Cartesian cell grid over an axis-aligned box,
  used to sample compactly supported potentials.

Panels are flat triangles; curvature enters only through refinement.
Meshes are immutable after construction and safe to share between workers,
and compare by value (``_equal``): a Gamma built twice is the same Gamma.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

__all__ = [
    "SurfaceMesh",
    "SphereGrid",
    "VolumeGrid",
    "MeshFormatError",
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
# (barycentric points, equal weights)
# ---------------------------------------------------------------------------

_GAUSS3_BARY = np.array(
    [
        [2.0 / 3.0, 1.0 / 6.0, 1.0 / 6.0],
        [1.0 / 6.0, 2.0 / 3.0, 1.0 / 6.0],
        [1.0 / 6.0, 1.0 / 6.0, 2.0 / 3.0],
    ]
)
# the rule on the four midpoint subtriangles (12 points, equal weights): a corner one is the
# panel halved towards its vertex, the middle one the panel halved and reflected in the centroid
_SUB_BARY = np.concatenate([(np.eye(3)[:, None] + _GAUSS3_BARY) / 2, (1 - _GAUSS3_BARY[None]) / 2]).reshape(-1, 3)


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


def _equal(a, b) -> bool:
    """``__eq__`` of the frozen data types: the same type and every compared field equal, arrays elementwise."""
    if type(a) is not type(b):
        return NotImplemented
    return a is b or all(np.array_equal(x, y) if isinstance(x, np.ndarray) or isinstance(y, np.ndarray) else x == y
                         for x, y in ((getattr(a, f.name), getattr(b, f.name)) for f in fields(a) if f.compare))


# ---------------------------------------------------------------------------
# Surface mesh
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
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
    panel_corners : (nt, 3, 3), the vertex coordinates of each panel
    panel_factor : (nt, 2, 3), the rank-2 factor P of the second moment about the centroid c,
        int_T (y - c)(y - c)^T dsigma = P^T P
    panel_edge, panel_edge_normal, panel_edge_length : edge i's (v_i -> v_{i+1}) unit vector, outward in-plane normal, length
    panel_subrule_points : (nt, 12, 3), the points of the rule on the four midpoint subtriangles
    """

    vertices: np.ndarray
    triangles: np.ndarray
    panel_centroid: np.ndarray = field(repr=False, default=None, compare=False)
    panel_area: np.ndarray = field(repr=False, default=None, compare=False)
    panel_normal: np.ndarray = field(repr=False, default=None, compare=False)
    panel_diameter: np.ndarray = field(repr=False, default=None, compare=False)
    panel_corners: np.ndarray = field(repr=False, default=None, compare=False)
    panel_factor: np.ndarray = field(repr=False, default=None, compare=False)
    panel_edge: np.ndarray = field(repr=False, default=None, compare=False)
    panel_edge_normal: np.ndarray = field(repr=False, default=None, compare=False)
    panel_edge_length: np.ndarray = field(repr=False, default=None, compare=False)
    panel_subrule_points: np.ndarray = field(repr=False, default=None, compare=False)
    __eq__ = _equal                                       # equal vertices and triangles; the panel arrays follow

    def __hash__(self) -> int:
        return hash(self.triangles.tobytes())             # integers alone: 0.0 and -0.0 hash alike

    @classmethod
    def from_arrays(cls, vertices, triangles) -> "SurfaceMesh":
        vertices = np.array(vertices, dtype=float)           # copies: the mesh freezes its own arrays
        triangles = np.array(triangles, dtype=np.int64)
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
        edges = np.stack([v1 - v0, v2 - v1, v0 - v2], axis=1)
        lengths = np.linalg.norm(edges, axis=2)
        units = edges / lengths[..., None]
        corners = np.stack([v0, v1, v2], axis=1)
        centroid = (v0 + v1 + v2) / 3.0
        rel = corners - centroid[:, None]                    # int_T (y - c)(y - c)^T = A/12 sum_i (v_i - c)(v_i - c)^T
        # with rel_2 = -rel_0 - rel_1 that is P^T P, P = sqrt(A/24) (2 rel_0 + rel_1, sqrt(3) rel_1)
        factor = np.sqrt(two_area / 48.0)[:, None, None] * np.einsum("ai,pij->paj", [[2, 1, 0], [0, 3**0.5, 0]], rel)
        return cls(
            vertices=_freeze(vertices),
            triangles=_freeze(triangles),
            panel_centroid=_freeze(centroid),
            panel_area=_freeze(two_area / 2.0),
            panel_normal=_freeze(normals),
            panel_diameter=_freeze(lengths.max(axis=1)),
            panel_corners=_freeze(corners),
            panel_factor=_freeze(factor),
            panel_edge=_freeze(units),
            panel_edge_normal=_freeze(np.cross(units, normals[:, None, :])),
            panel_edge_length=_freeze(lengths),
            panel_subrule_points=_freeze(np.einsum("sj,pjk->psk", _SUB_BARY, corners)),
        )

    @property
    def n_panels(self) -> int:
        return len(self.triangles)

    @property
    def bounding_radius(self) -> float:
        """Largest vertex distance from the origin."""
        return float(np.max(np.linalg.norm(self.vertices, axis=1), initial=0.0))

    def per_panel(self, values, name: str) -> np.ndarray:
        """``values`` as one finite float per panel, a number standing for every panel;
        ValueError naming ``name`` otherwise."""
        vals = np.asarray(values, dtype=float)
        if vals.shape == ():
            vals = np.full(self.n_panels, float(vals))
        if vals.shape != (self.n_panels,):
            raise ValueError(f"{name} holds {vals.size} values; the mesh has {self.n_panels} panels")
        if not np.all(np.isfinite(vals)):
            raise ValueError(f"{name} has non-finite values")
        return vals

    def open_edge_count(self) -> int:
        return int(np.count_nonzero(_edges(self.triangles)[2] != 2))

    def check_orientation(self) -> None:
        """Raise on inconsistent winding (an edge traversed twice the same way),
        and on inward winding of a closed mesh (signed volume <= 0)."""
        edges, _, uses, balance = _edges(self.triangles)
        same_way = np.flatnonzero((uses == 2) & (np.abs(balance) == 2))
        if len(same_way):
            i, j = edges[same_way[0]]
            raise MeshFormatError(
                f"inconsistent winding: edge ({i}, {j}) traversed twice "
                "in the same direction"
            )
        if np.all(uses == 2):
            v0, v1, v2 = np.moveaxis(self.panel_corners, 1, 0)
            volume = np.einsum("ij,ij->", v0, np.cross(v1, v2)) / 6.0
            if volume <= 0:
                raise MeshFormatError(
                    f"inward winding: the closed mesh has signed volume {volume:.3g} <= 0; "
                    "faces must be counter-clockwise seen from outside"
                )


def _edges(triangles: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One pass over the directed edges (a, b), (b, c), (c, a) of each face (a, b, c).

    Returns the undirected edges (i, j), i < j, numbered by first use in face
    order, (m, 2); the number of each directed edge, (nt, 3); and each
    undirected edge's use count and direction balance (+1 per i -> j, -1 per j -> i).
    """
    tail, head = triangles.ravel(), triangles[:, [1, 2, 0]].ravel()
    lo, hi = np.minimum(tail, head), np.maximum(tail, head)
    _, first, index = np.unique(lo * (int(hi.max(initial=0)) + 1) + hi, return_index=True, return_inverse=True)
    order = np.argsort(first)
    index = np.argsort(order)[index]
    return (np.stack([lo, hi], axis=1)[first[order]], index.reshape(-1, 3),
            np.bincount(index, minlength=len(order)), np.bincount(index, np.sign(head - tail), len(order)))


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

    for _ in range(subdivisions):
        # one midpoint per undirected edge, numbered by first use in face order (ab, bc, ca);
        # each normalised by its own dot product, bit for bit as np.linalg.norm of a 3-vector
        edges, mid, _, _ = _edges(faces)
        (a, b, c), (ab, bc, ca) = faces.T, (len(verts) + mid).T
        m = verts[edges[:, 0]] + verts[edges[:, 1]]
        verts = np.concatenate([verts, m / np.sqrt(m[:, None, :] @ m[:, :, None])[:, 0]])
        faces = np.stack([a, ab, ca, b, bc, ab, c, ca, bc, ab, bc, ca], axis=1).reshape(-1, 3)

    return SurfaceMesh.from_arrays(verts * radius, faces)


def load_mesh(path, max_faces: int | None = None) -> SurfaceMesh:
    """Read a triangle mesh from an OFF file.

    Orientation is taken from the file winding (CCW seen from outside).
    Raises ``MeshFormatError`` with a line number on parse errors, on a counts
    line with more than ``max_faces`` faces (read before any face), and on
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
    if max_faces is not None and nf > max_faces:
        raise MeshFormatError(f"{path}: {nf} faces at line {counts_line}, cap is {max_faces}")

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

@dataclass(frozen=True, eq=False)
class VolumeGrid:
    """Uniform n x n x n cell grid tiling an axis-aligned box exactly; equal grids have equal lo, hi and n."""

    lo: np.ndarray          # (3,)
    hi: np.ndarray          # (3,)
    n: int
    cell_center: np.ndarray = field(compare=False)  # (n**3, 3), C order in (ix, iy, iz)
    cell_volume: float = field(compare=False)
    spacing: np.ndarray = field(compare=False)      # (3,)
    __eq__ = _equal

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
    if not np.all((hi > lo) & np.isfinite(hi - lo)):            # a NaN or an infinite bound fails too
        raise ValueError(f"bounding box must be finite with lo < hi, got {lo}..{hi}")
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
