"""Quantitative crack / gap metrics for AMR iso-surfaces.

The paper demonstrates cracks and gaps visually (Figures 1, 9-11); this
module turns them into numbers so the benchmark harness can assert the
qualitative claims:

* **open-edge audit** — mesh boundary edges that do not lie on the domain
  boundary indicate surface terminations inside the volume: cracks
  (re-sampling) or gap rims (dual-cell).
* **interface gap distance** — for two adjacent levels' surfaces, the
  distance from each interior open-edge midpoint of one surface to the
  nearest sample of the other. Large for dual-cell gaps, small but nonzero
  for re-sampling cracks, near zero when the redundant-data fix makes the
  surfaces overlap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from repro.amr.hierarchy import AMRHierarchy
from repro.errors import MetricError
from repro.viz.mesh import TriangleMesh
from repro.viz.pipelines import IsoSurfaceResult

__all__ = ["CrackReport", "interior_boundary_edges", "interface_gap", "crack_report"]


def _domain_bounds(hierarchy: AMRHierarchy) -> tuple[np.ndarray, np.ndarray]:
    dx0 = np.asarray(hierarchy[0].dx)
    lo = np.asarray(hierarchy.domain.lo, dtype=np.float64) * dx0
    hi = (np.asarray(hierarchy.domain.hi, dtype=np.float64) + 1.0) * dx0
    return lo, hi


def interior_boundary_edges(
    mesh: TriangleMesh, domain_lo: np.ndarray, domain_hi: np.ndarray, tol: float
) -> np.ndarray:
    """Boundary edges whose midpoint is farther than ``tol`` from every
    domain face (i.e. terminations *inside* the volume)."""
    edges = mesh.boundary_edges()
    if len(edges) == 0:
        return edges
    mid = 0.5 * (mesh.vertices[edges[:, 0]] + mesh.vertices[edges[:, 1]])
    near_face = np.zeros(len(edges), dtype=bool)
    for axis in range(3):
        near_face |= np.abs(mid[:, axis] - domain_lo[axis]) <= tol
        near_face |= np.abs(mid[:, axis] - domain_hi[axis]) <= tol
    return edges[~near_face]


def _surface_samples(mesh: TriangleMesh) -> np.ndarray:
    """Vertices plus triangle centroids — a cheap dense surface sampling."""
    if mesh.is_empty():
        return np.empty((0, 3))
    cent = mesh.vertices[mesh.faces].mean(axis=1)
    return np.concatenate([mesh.vertices, cent])


def interface_gap(
    mesh_a: TriangleMesh,
    mesh_b: TriangleMesh,
    domain_lo: np.ndarray,
    domain_hi: np.ndarray,
    tol: float,
) -> tuple[float, float]:
    """(mean, max) distance from ``mesh_a``'s interior open edges to
    ``mesh_b``'s surface samples. Returns ``(0.0, 0.0)`` when either side
    has nothing to measure."""
    edges = interior_boundary_edges(mesh_a, domain_lo, domain_hi, tol)
    samples = _surface_samples(mesh_b)
    if len(edges) == 0 or len(samples) == 0:
        return 0.0, 0.0
    mid = 0.5 * (mesh_a.vertices[edges[:, 0]] + mesh_a.vertices[edges[:, 1]])
    dist, _ = cKDTree(samples).query(mid)
    return float(dist.mean()), float(dist.max())


@dataclass(frozen=True)
class CrackReport:
    """Crack/gap summary of one pipeline run on one hierarchy."""

    method: str
    open_edge_count: int
    open_edge_length: float
    mean_gap: float
    max_gap: float


def crack_report(result: IsoSurfaceResult, hierarchy: AMRHierarchy) -> CrackReport:
    """Audit a pipeline result for cracks/gaps at level interfaces.

    Open edges are collected per level mesh (interior only); gap distances
    are measured from each finer level's open edges to the next coarser
    level's surface — the inter-level seam the paper's figures inspect.
    """
    if len(result.level_meshes) != hierarchy.n_levels:
        raise MetricError("result/hierarchy level count mismatch")
    lo, hi = _domain_bounds(hierarchy)
    tol = 1.01 * float(max(hierarchy[0].dx))
    count = 0
    length = 0.0
    gaps_mean: list[float] = []
    gaps_max: list[float] = []
    for lev_idx, mesh in enumerate(result.level_meshes):
        edges = interior_boundary_edges(mesh, lo, hi, tol)
        count += len(edges)
        length += float(mesh.edge_lengths(edges).sum()) if len(edges) else 0.0
        if lev_idx >= 1:
            mean_d, max_d = interface_gap(mesh, result.level_meshes[lev_idx - 1], lo, hi, tol)
            if max_d > 0.0:
                gaps_mean.append(mean_d)
                gaps_max.append(max_d)
    return CrackReport(
        method=result.method,
        open_edge_count=count,
        open_edge_length=length,
        mean_gap=float(np.mean(gaps_mean)) if gaps_mean else 0.0,
        max_gap=float(np.max(gaps_max)) if gaps_max else 0.0,
    )
