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
        f = np.asarray(self.faces, dtype=np.int64)
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
    def face_normals(self, normalize: bool = True) -> np.ndarray:
        """Per-face normals (right-hand rule): ``(b - a) x (c - a)`` over the
        corners, one coordinate column at a time."""
        x, y, z = np.ascontiguousarray(self.vertices.T)
        a, b, c = np.ascontiguousarray(self.faces.T)
        ax, ay, az = x[a], y[a], z[a]
        ux, uy, uz = x[b] - ax, y[b] - ay, z[b] - az
        vx, vy, vz = x[c] - ax, y[c] - ay, z[c] - az
        n = np.stack([uy * vz - uz * vy, uz * vx - ux * vz, ux * vy - uy * vx], axis=1)
        if normalize:
            norm = np.linalg.norm(n, axis=1, keepdims=True)
            norm[norm == 0.0] = 1.0
            n = n / norm
        return n

    def area(self) -> float:
        """Total surface area."""
        if self.is_empty():
            return 0.0
        return float(0.5 * np.linalg.norm(self.face_normals(normalize=False), axis=1).sum())

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
        f = self.faces
        distinct = (f[:, 0] != f[:, 1]) & (f[:, 1] != f[:, 2]) & (f[:, 0] != f[:, 2])
        areas = 0.5 * np.linalg.norm(self.face_normals(normalize=False), axis=1)
        keep = distinct & (areas > min_area)
        return TriangleMesh(self.vertices, f[keep])

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
