"""Vectorized 3-D marching cubes (paper §2.3) with NaN masking.

Operates on vertex-centered scalar grids. Cells whose eight corner values
include NaN are skipped — this is how per-level AMR extraction restricts
the surface to a level's valid region (and precisely how the dangling-node
cracks of Figure 5/6 arise at level interfaces).

Triangles come out of one gather from a padded ``(256, MAX_TRIS, 3)``
table, in a fixed order: configurations ascending, cells row-major within
each. Vertices are deduplicated via global edge indexing (one vertex per
intersected grid edge), so the mesh is watertight wherever the data is:
closed iso-surfaces come out with zero boundary edges. A dense map over
every edge slot of the grid numbers the used edges in ascending id, so no
sort is needed.
"""

from __future__ import annotations

import numpy as np

from repro.errors import VisualizationError
from repro.viz import mc_tables as tables
from repro.viz.mesh import TriangleMesh

__all__ = ["marching_cubes"]

#: Triangles per configuration, and their local edges padded to the longest.
_N_TRIS = np.array([len(tris) for tris in tables.TRI_TABLE])
_TRIS = np.array([tris + [(0, 0, 0)] * (tables.MAX_TRIS_PER_CELL - len(tris))
                  for tris in tables.TRI_TABLE], dtype=np.int64)


def _interp_t(v0: np.ndarray, v1: np.ndarray, iso: float) -> np.ndarray:
    """Linear interpolation parameter of the iso-crossing on an edge."""
    denom = v1 - v0
    # Guard exact equality; the edge is only used when signs differ, so
    # denom == 0 cannot actually select a crossing, but avoid the warning.
    safe = np.where(denom == 0.0, 1.0, denom)
    t = (iso - v0) / safe
    return np.clip(t, 0.0, 1.0)


def marching_cubes(
    field: np.ndarray,
    iso: float,
    spacing: tuple[float, float, float] | float = 1.0,
    origin: tuple[float, float, float] = (0.0, 0.0, 0.0),
    cell_mask: np.ndarray | None = None,
) -> TriangleMesh:
    """Extract the ``field == iso`` surface from a vertex-centered grid.

    Parameters
    ----------
    field:
        3-D array of grid-vertex values; NaN marks invalid vertices.
    iso:
        Iso value.
    spacing:
        Grid-vertex spacing (scalar or per-axis).
    origin:
        Physical position of vertex ``(0, 0, 0)``.
    cell_mask:
        Optional boolean array of shape ``field.shape - 1``; ``False``
        cells are skipped in addition to NaN-adjacent ones.

    Returns
    -------
    TriangleMesh
        Triangles with consistent orientation (normals toward decreasing
        field values... increasing outside).

    Raises
    ------
    VisualizationError
        For a field that is not 3-D with at least 2 vertices per axis, an
        ``iso`` that is not finite, a ``spacing`` that is not finite and
        > 0 on every axis, or a ``cell_mask`` of the wrong shape.
    """
    arr = np.asarray(field, dtype=np.float64)
    if arr.ndim != 3:
        raise VisualizationError(f"field must be 3-D, got {arr.ndim}-D")
    if any(s < 2 for s in arr.shape):
        raise VisualizationError(f"field shape {arr.shape} too small for marching cubes")
    if not np.isfinite(iso):
        raise VisualizationError(f"iso must be finite, got {iso!r}")
    if np.isscalar(spacing):
        dx = np.array([float(spacing)] * 3)
    else:
        dx = np.asarray(spacing, dtype=np.float64)
        if dx.shape != (3,):
            raise VisualizationError("spacing must be scalar or length 3")
    if not (np.isfinite(dx) & (dx > 0.0)).all():
        raise VisualizationError(f"spacing must be finite and > 0, got {spacing!r}")
    org = np.asarray(origin, dtype=np.float64)
    nx, ny, nz = arr.shape
    cx, cy, cz = nx - 1, ny - 1, nz - 1

    valid_vert = np.isfinite(arr)
    inside = np.where(valid_vert, arr > iso, False)

    # Cube configuration per cell: sum of corner bits. Corner c contributes
    # bit c when vertex (i+di, j+dj, k+dk) is inside.
    config = np.zeros((cx, cy, cz), dtype=np.uint16)
    cell_valid = np.ones((cx, cy, cz), dtype=bool)
    for c, (di, dj, dk) in enumerate(tables.CORNER_OFFSETS):
        sl = (slice(di, cx + di), slice(dj, cy + dj), slice(dk, cz + dk))
        config |= inside[sl].astype(np.uint16) << c
        cell_valid &= valid_vert[sl]
    if cell_mask is not None:
        mask = np.asarray(cell_mask, dtype=bool)
        if mask.shape != (cx, cy, cz):
            raise VisualizationError(
                f"cell_mask shape {mask.shape} != cell grid {(cx, cy, cz)}"
            )
        cell_valid &= mask
    active = cell_valid & (config != 0) & (config != 255)
    if not active.any():
        return TriangleMesh.empty()

    # Edge (axis a) from grid vertex (i, j, k) has the global id
    # ((i * ny + j) * nz + k) * 3 + a: its cell's base plus a local offset.
    di, dj, dk, edge_axis = tables.EDGE_ORIGIN_AXIS.T
    tri_offsets = (((di * ny + dj) * nz + dk) * 3 + edge_axis)[_TRIS]
    (ci, cj, ck), cell_cfg = np.nonzero(active), config[active]
    order = np.argsort(cell_cfg, kind="stable")  # configurations ascending
    cfg = cell_cfg[order]
    cell_base = ((ci[order] * ny + cj[order]) * nz + ck[order]) * 3
    emitted = np.arange(tables.MAX_TRIS_PER_CELL) < _N_TRIS[cfg, None]
    all_tris = (cell_base[:, None, None] + tri_offsets[cfg])[emitted]

    # One vertex per referenced global edge, numbered in ascending id.
    used = np.zeros(arr.size * 3, dtype=bool)
    used[all_tris] = True
    used_edges = np.flatnonzero(used)
    vertex_of = np.empty(used.size, dtype=np.int64)
    vertex_of[used_edges] = np.arange(used_edges.size)
    axis = used_edges % 3
    rest = used_edges // 3
    k0 = rest % nz
    rest //= nz
    j0 = rest % ny
    i0 = rest // ny
    v0 = arr[i0, j0, k0]
    i1 = i0 + (axis == 0)
    j1 = j0 + (axis == 1)
    k1 = k0 + (axis == 2)
    v1 = arr[i1, j1, k1]
    t = _interp_t(v0, v1, iso)
    base = np.stack([i0, j0, k0], axis=1).astype(np.float64)
    step = np.zeros((used_edges.size, 3))
    step[np.arange(used_edges.size), axis] = t
    verts = org + (base + step) * dx
    return TriangleMesh(verts, vertex_of[all_tris]).dropped_degenerate()
