"""Triangle meshes and the open-edge audit used for crack metrics.

The paper's central visual evidence (Figures 1, 9-11) is about *cracks* and
*gaps* in extracted iso-surfaces. A crack manifests as mesh boundary edges
(edges referenced by exactly one triangle) in the interior of the domain;
:meth:`TriangleMesh.boundary_edges` exposes them, and
:mod:`repro.viz.cracks` turns them into quantitative metrics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import VisualizationError

__all__ = ["TriangleMesh"]


def _length(x: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Euclidean length of vectors given as three columns. The squares are
    summed left to right, the order ``np.linalg.norm(axis=1)`` adds a row's
    squares in, so the result has its bytes."""
    return np.sqrt((x * x + y * y) + z * z)


def _indices(faces) -> np.ndarray:
    """``faces`` as int64; a value that is not an integer is refused, not
    truncated."""
    f = np.asarray(faces)
    if f.dtype.kind in "biu":
        return f.astype(np.int64, copy=False)
    try:
        values = f.astype(np.float64)
    except (TypeError, ValueError):
        values = np.array([np.nan])
    if not (np.isfinite(values) & (np.trunc(values) == values)).all():
        raise VisualizationError("face indices must be integers")
    return values.astype(np.int64)


@dataclass
class TriangleMesh:
    """Indexed triangle mesh.

    Attributes
    ----------
    vertices:
        ``(n, 3)`` float64 positions.
    faces:
        ``(m, 3)`` int64 vertex indices.
    """

    vertices: np.ndarray
    faces: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.vertices, dtype=np.float64)
        f = _indices(self.faces)
        if v.ndim != 2 or v.shape[1] != 3:
            raise VisualizationError(f"vertices must be (n, 3), got {v.shape}")
        if f.ndim != 2 or f.shape[1] != 3:
            raise VisualizationError(f"faces must be (m, 3), got {f.shape}")
        if f.size and (f.min() < 0 or f.max() >= len(v)):
            raise VisualizationError("face indices out of range")
        self.vertices = v
        self.faces = f

    # ------------------------------------------------------------------
    @classmethod
    def empty(cls) -> "TriangleMesh":
        """Mesh with no geometry."""
        return cls(np.empty((0, 3)), np.empty((0, 3), dtype=np.int64))

    @property
    def n_vertices(self) -> int:
        """Vertex count."""
        return len(self.vertices)

    @property
    def n_faces(self) -> int:
        """Triangle count."""
        return len(self.faces)

    def is_empty(self) -> bool:
        """Whether the mesh has no triangles."""
        return self.n_faces == 0

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def _edge_counts(self) -> tuple[np.ndarray, np.ndarray]:
        """Unique undirected edges and their incidence counts."""
        if self.is_empty():
            return np.empty((0, 2), dtype=np.int64), np.empty(0, dtype=np.int64)
        e = np.concatenate([self.faces[:, [0, 1]], self.faces[:, [1, 2]], self.faces[:, [2, 0]]])
        e.sort(axis=1)
        edges, counts = np.unique(e, axis=0, return_counts=True)
        return edges, counts

    def boundary_edges(self) -> np.ndarray:
        """Edges used by exactly one triangle, shape ``(k, 2)``.

        A closed (watertight) surface has none; cracks and surface
        terminations appear here.
        """
        edges, counts = self._edge_counts()
        return edges[counts == 1]

    def is_closed(self) -> bool:
        """Whether every edge is shared by exactly two triangles."""
        edges, counts = self._edge_counts()
        return bool(edges.size) and bool((counts == 2).all())

    def euler_characteristic(self) -> int:
        """V - E + F (2 for a closed genus-0 surface)."""
        edges, _ = self._edge_counts()
        used = np.unique(self.faces) if self.faces.size else np.empty(0, dtype=np.int64)
        return int(used.size - len(edges) + self.n_faces)

    def edge_lengths(self, edges: np.ndarray | None = None) -> np.ndarray:
        """Lengths of ``edges`` (default: all unique edges)."""
        if edges is None:
            edges, _ = self._edge_counts()
        if len(edges) == 0:
            return np.empty(0)
        d = self.vertices[edges[:, 0]] - self.vertices[edges[:, 1]]
        return np.linalg.norm(d, axis=1)

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------
    def _normal_columns(self, corners: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(b - a) x (c - a)`` over the ``(3, m)`` corner rows, one
        coordinate column at a time."""
        x, y, z = np.ascontiguousarray(self.vertices.T)
        a, b, c = corners
        ax, ay, az = x[a], y[a], z[a]
        ux, uy, uz = x[b] - ax, y[b] - ay, z[b] - az
        vx, vy, vz = x[c] - ax, y[c] - ay, z[c] - az
        return uy * vz - uz * vy, uz * vx - ux * vz, ux * vy - uy * vx

    def face_normals(self, normalize: bool = True) -> np.ndarray:
        """Per-face normals (right-hand rule): ``(b - a) x (c - a)`` over the
        corners, one coordinate column at a time."""
        n = self._normal_columns(np.ascontiguousarray(self.faces.T))
        if normalize:
            norm = _length(*n)
            norm[norm == 0.0] = 1.0
            n = [c / norm for c in n]
        return np.stack(n, axis=1)

    def area(self) -> float:
        """Total surface area."""
        if self.is_empty():
            return 0.0
        lengths = _length(*self._normal_columns(np.ascontiguousarray(self.faces.T)))
        return float(0.5 * lengths.sum())

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """(min, max) corner of the vertex bounding box."""
        if self.n_vertices == 0:
            raise VisualizationError("empty mesh has no bounds")
        return self.vertices.min(axis=0), self.vertices.max(axis=0)

    def translated(self, offset: np.ndarray) -> "TriangleMesh":
        """Mesh shifted by ``offset``."""
        return TriangleMesh(self.vertices + np.asarray(offset, dtype=np.float64), self.faces.copy())

    def scaled(self, factor: float | np.ndarray) -> "TriangleMesh":
        """Mesh scaled about the origin."""
        return TriangleMesh(self.vertices * np.asarray(factor, dtype=np.float64), self.faces.copy())

    # ------------------------------------------------------------------
    # Cleanup / combination
    # ------------------------------------------------------------------
    def dropped_degenerate(self, min_area: float = 0.0) -> "TriangleMesh":
        """Remove zero/near-zero-area triangles and repeated indices."""
        if self.is_empty():
            return self
        corners = np.ascontiguousarray(self.faces.T)
        a, b, c = corners
        distinct = (a != b) & (b != c) & (a != c)
        areas = 0.5 * _length(*self._normal_columns(corners))
        keep = distinct & (areas > min_area)
        return TriangleMesh(self.vertices, self.faces[keep])

    def welded(self, decimals: int = 9) -> "TriangleMesh":
        """Merge vertices that coincide after rounding to ``decimals``."""
        if self.n_vertices == 0:
            return self
        key = np.round(self.vertices, decimals)
        uniq, inverse = np.unique(key, axis=0, return_inverse=True)
        return TriangleMesh(uniq, inverse[self.faces]).dropped_degenerate()

    @staticmethod
    def merge(meshes: list["TriangleMesh"]) -> "TriangleMesh":
        """Concatenate meshes (no welding across parts)."""
        parts = [m for m in meshes if not m.is_empty()]
        if not parts:
            return TriangleMesh.empty()
        verts = []
        faces = []
        offset = 0
        for m in parts:
            verts.append(m.vertices)
            faces.append(m.faces + offset)
            offset += m.n_vertices
        return TriangleMesh(np.concatenate(verts), np.concatenate(faces))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TriangleMesh({self.n_vertices} vertices, {self.n_faces} faces)"
