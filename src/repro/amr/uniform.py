"""Compositing an AMR hierarchy onto a uniform grid.

This is the standard post-analysis transform of Figure 3 (right): coarse
levels are up-sampled to the finest resolution and overwritten by finer data
wherever it exists, discarding the redundant coarse values. It is also the
front half of the paper's *re-sampling* visualization path when one wants a
single uniform volume.
"""

from __future__ import annotations

import numpy as np

from repro.amr.hierarchy import AMRHierarchy
from repro.errors import HierarchyError

__all__ = ["upsample_nearest", "flatten_to_uniform"]


def upsample_nearest(arr: np.ndarray, ratio: tuple[int, ...]) -> np.ndarray:
    """Piecewise-constant (injection) up-sampling by integer ``ratio``.

    Each coarse cell becomes a ``ratio`` block of identical fine cells —
    exactly how AMReX's ``pc_interp`` fills fine cells from coarse ones.
    """
    if len(ratio) != arr.ndim:
        raise HierarchyError(f"ratio {ratio} does not match array rank {arr.ndim}")
    out = arr
    for axis, r in enumerate(ratio):
        if r > 1:
            out = np.repeat(out, r, axis=axis)
    return out


def flatten_to_uniform(hierarchy: AMRHierarchy, field: str) -> np.ndarray:
    """Composite ``field`` onto the finest-level uniform grid, coarse levels
    up-sampled by piecewise-constant injection (:func:`upsample_nearest`).

    Parameters
    ----------
    hierarchy:
        Source AMR dataset.
    field:
        Field name present on every level.

    Returns
    -------
    numpy.ndarray
        Array of shape ``hierarchy.grid_shape(finest)`` where each cell holds
        the finest available data (finer levels overwrite coarser ones).
    """
    finest = hierarchy.n_levels - 1
    out_dom = hierarchy.domain_at(finest)
    out = np.full(out_dom.shape, np.nan, dtype=np.float64)
    for lev_idx, lev in enumerate(hierarchy):
        # Ratio from this level up to the finest level.
        ratio = tuple(
            f // c
            for f, c in zip(hierarchy.cumulative_ratio(finest), hierarchy.cumulative_ratio(lev_idx))
        )
        for patch in lev.patches(field):
            fine_box = patch.box.refine(ratio)
            data = upsample_nearest(patch.data, ratio)
            ov = fine_box.intersection(out_dom)
            if ov is None:
                continue
            src = ov.slices(fine_box.lo)
            out[ov.slices(out_dom.lo)] = data[src]
    if np.isnan(out).any():
        raise HierarchyError("uniform composite has holes; level 0 must tile the domain")
    return out
