"""Dual-cell grids (paper §2.4, Figure 7).

The dual-cell method skips re-sampling entirely: it builds a grid whose
*vertices are the cell centers* and whose vertex values are the original
cell values. Marching cubes on this dual grid uses unmodified data (no
interpolation smoothing), avoids dangling nodes — and is therefore immune
to the crack problem — but the dual grid of each AMR level is half a cell
smaller on every side, producing the inter-level *gaps* of Figure 1b /
Figure 8 that the stitching / redundant-coarse-data fixes address.
"""

from __future__ import annotations

import numpy as np

from repro.viz.marching_cubes import lattice, marching_cubes
from repro.viz.mesh import TriangleMesh

__all__ = ["dual_isosurface"]


def dual_isosurface(
    cells: np.ndarray,
    iso: float,
    spacing: tuple[float, float, float] | float = 1.0,
    origin: tuple[float, float, float] = (0.0, 0.0, 0.0),
) -> TriangleMesh:
    """Iso-surface of cell-centered data via the dual grid.

    Parameters
    ----------
    cells:
        3-D cell-centered values; NaN marks cells outside the level.
    iso:
        Iso value.
    spacing:
        Cell spacing.
    origin:
        Physical position of the *lower corner* of cell ``(0, 0, 0)``; the
        dual vertex for that cell sits half a cell inward.

    Notes
    -----
    Implemented by treating the cell array as a vertex-centered grid whose
    lattice is shifted to the cell centers — dual-cell extraction *is*
    marching cubes on that lattice.
    """
    dx, org = lattice(spacing, origin)
    org = org + 0.5 * dx
    return marching_cubes(cells, iso, spacing=tuple(dx), origin=tuple(org))
