"""Gap handling between AMR levels for the dual-cell method (Figure 8).

Two fixes from the paper (§2.4):

* **Redundant coarse data / "switching cells"** — patch-based AMR retains
  coarse values underneath refined regions; extending the coarse dual grid
  one (or more) redundant-cell rings into the fine region makes the coarse
  surface overlap the fine one, closing the visual gap (Figure 8, top).
  :func:`redundant_ring_mask` computes the extended coarse-cell mask; the
  pipelines feed it to dual extraction. Works in any dimension.
* **Stitching cells** (Weber et al. 2001) — build explicit cells bridging
  the fine dual boundary to the coarse dual boundary (Figure 8, bottom).
  Implemented here for 2-D contours (:func:`stitch_contours_2d`), which is
  what the paper's didactic figures show; in 3-D the repository uses the
  redundant-data fix (see DESIGN.md substitution table).
"""

from __future__ import annotations

import numpy as np

from repro.errors import VisualizationError

__all__ = ["redundant_ring_mask", "stitch_contours_2d"]


def dilate_tags(tags: np.ndarray, n: int = 1) -> np.ndarray:
    """Grow a boolean mask by ``n`` cells per face (``n`` sweeps of
    axis-aligned dilation; nothing wraps around an edge). ``n`` must be an
    integer >= 0."""
    if isinstance(n, (bool, np.bool_)) or not isinstance(n, (int, np.integer)) or n < 0:
        raise VisualizationError(f"rings must be an integer >= 0, got {n!r}")
    out = np.asarray(tags, dtype=bool).copy()
    for _ in range(n):
        grown = out.copy()
        for axis in range(out.ndim):
            lo = [slice(None)] * out.ndim
            hi = [slice(None)] * out.ndim
            lo[axis] = slice(1, None)
            hi[axis] = slice(None, -1)
            grown[tuple(hi)] |= out[tuple(lo)]
            grown[tuple(lo)] |= out[tuple(hi)]
        out = grown
    return out


def redundant_ring_mask(exposed: np.ndarray, covered: np.ndarray, rings: int = 1) -> np.ndarray:
    """Coarse-cell mask including ``rings`` of redundant covered cells.

    Parameters
    ----------
    exposed:
        Boolean mask of coarse cells *not* overlaid by fine data.
    covered:
        Boolean mask of coarse cells overlaid by fine data (the redundant
        region whose values patch-based AMR still stores).
    rings:
        How many cells deep to extend into the covered region (an integer
        >= 0); one ring is enough to overlap the fine dual grid for ratio-2
        refinement.
    """
    if exposed.shape != covered.shape:
        raise VisualizationError("exposed/covered mask shapes differ")
    grown = dilate_tags(exposed, rings)
    return exposed | (grown & covered)


def stitch_contours_2d(
    fine_ends: np.ndarray,
    coarse_ends: np.ndarray,
    max_span: float,
) -> np.ndarray:
    """Greedy stitch segments joining open contour endpoints across a gap.

    Parameters
    ----------
    fine_ends:
        ``(n, 2)`` open endpoints of the fine level's dual contour.
    coarse_ends:
        ``(m, 2)`` open endpoints of the coarse level's dual contour.
    max_span:
        Largest endpoint distance to bridge (typically one coarse cell).

    Returns
    -------
    numpy.ndarray
        ``(k, 2, 2)`` stitch segments, each fine endpoint connected to its
        nearest unused coarse endpoint within ``max_span``.
    """
    fine = np.asarray(fine_ends, dtype=np.float64).reshape(-1, 2)
    coarse = np.asarray(coarse_ends, dtype=np.float64).reshape(-1, 2)
    if fine.size == 0 or coarse.size == 0:
        return np.empty((0, 2, 2))
    used = np.zeros(len(coarse), dtype=bool)
    segments = []
    # Greedy nearest matching, closest pairs first.
    d = np.linalg.norm(fine[:, None, :] - coarse[None, :, :], axis=2)
    order = np.dstack(np.unravel_index(np.argsort(d, axis=None), d.shape))[0]
    fine_used = np.zeros(len(fine), dtype=bool)
    for fi, cj in order:
        if fine_used[fi] or used[cj]:
            continue
        if d[fi, cj] > max_span:
            break
        segments.append([fine[fi], coarse[cj]])
        fine_used[fi] = True
        used[cj] = True
    if not segments:
        return np.empty((0, 2, 2))
    return np.asarray(segments)
