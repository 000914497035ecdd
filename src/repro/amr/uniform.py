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

__all__ = ["upsample_nearest", "upsample_linear", "flatten_to_uniform"]


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


# kept: flatten_to_uniform(method="linear") reaches it: the paper's re-sampling alternative
def upsample_linear(arr: np.ndarray, ratio: tuple[int, ...]) -> np.ndarray:
    """Cell-centered multilinear up-sampling by integer ``ratio``.

    Fine cell centers land at fractional positions between coarse centers;
    values are obtained by separable linear interpolation with clamped
    (edge-replicated) boundaries. Shape grows exactly by ``ratio`` per axis.
    """
    if len(ratio) != arr.ndim:
        raise HierarchyError(f"ratio {ratio} does not match array rank {arr.ndim}")
    out = np.asarray(arr, dtype=np.float64)
    for axis, r in enumerate(ratio):
        if r == 1:
            continue
        n = out.shape[axis]
        # Fine-cell center j maps to coarse coordinate (j + 0.5)/r - 0.5.
        pos = (np.arange(n * r, dtype=np.float64) + 0.5) / r - 0.5
        lo = np.clip(np.floor(pos).astype(np.int64), 0, n - 1)
        hi = np.clip(lo + 1, 0, n - 1)
        w = np.clip(pos - lo, 0.0, 1.0)
        a = np.take(out, lo, axis=axis)
        b = np.take(out, hi, axis=axis)
        shape = [1] * out.ndim
        shape[axis] = n * r
        w = w.reshape(shape)
        out = a * (1.0 - w) + b * w
    return out


def flatten_to_uniform(
    hierarchy: AMRHierarchy,
    field: str,
    method: str = "nearest",
) -> np.ndarray:
    """Composite ``field`` onto the finest-level uniform grid.

    Parameters
    ----------
    hierarchy:
        Source AMR dataset.
    field:
        Field name present on every level.
    method:
        ``"nearest"`` (piecewise-constant injection) or ``"linear"``.

    Returns
    -------
    numpy.ndarray
        Array of shape ``hierarchy.grid_shape(finest)`` where each cell holds
        the finest available data (finer levels overwrite coarser ones).
    """
    if method not in ("nearest", "linear"):
        raise HierarchyError(f"unknown upsampling method {method!r}")
    up = upsample_nearest if method == "nearest" else upsample_linear
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
            data = up(patch.data, ratio)
            ov = fine_box.intersection(out_dom)
            if ov is None:
                continue
            src = ov.slices(fine_box.lo)
            out[ov.slices(out_dom.lo)] = data[src]
    if np.isnan(out).any():
        raise HierarchyError("uniform composite has holes; level 0 must tile the domain")
    return out
