"""Integer Lorenzo transform (dual-quant formulation).

The classic SZ Lorenzo predictor estimates each value from its already
*reconstructed* lower neighbors, which forces a sequential scan. The cuSZ
"dual-quant" reformulation snaps data to the quantization lattice first
(:func:`repro.compression.quantizer.prequantize`) and then applies the
Lorenzo *transform* to the resulting integers. Because the n-D Lorenzo
operator factors into a first difference along each axis,

``L = prod_d (1 - S_d^{-1})``,

the transform and its inverse (a cumulative sum per axis) are exact in
int64 and fully vectorized, while the overall pipeline keeps the
``|x - x'| <= eb`` guarantee from pre-quantization alone.
"""

from __future__ import annotations

import numpy as np

from repro.errors import CompressionError

__all__ = ["lorenzo_forward", "lorenzo_inverse"]


def lorenzo_forward(
    q: np.ndarray, axes: tuple[int, ...] | None = None, overwrite: bool = False
) -> np.ndarray:
    """Apply the n-D Lorenzo transform to an integer array.

    Equivalent to replacing each value by its Lorenzo prediction residual
    (with zero padding outside the array). Exact for int64 input.

    Parameters
    ----------
    q:
        Integer array.
    axes:
        Axes to transform (default: all). Batched use passes the spatial
        axes only, leaving a leading batch axis untouched.
    overwrite:
        Transform an int64 input in place instead of copying it first —
        for callers (the codec hot paths) whose ``q`` is a throwaway
        prequantization buffer.
    """
    arr = np.asarray(q)
    if arr.dtype.kind not in "iu":
        raise CompressionError(f"Lorenzo transform expects integers, got {arr.dtype}")
    if overwrite and arr.dtype == np.int64:
        out = arr
    else:
        out = arr.astype(np.int64, copy=True)
    for axis in axes if axes is not None else range(out.ndim):
        # First difference along `axis` with an implicit leading zero.
        view = np.moveaxis(out, axis, 0)
        view[1:] -= view[:-1].copy()
    return out


def lorenzo_inverse(
    d: np.ndarray, axes: tuple[int, ...] | None = None, overwrite: bool = False
) -> np.ndarray:
    """Invert :func:`lorenzo_forward` (cumulative sum per axis; ``axes``
    and ``overwrite`` as there).

    Along an axis short against the rest of the array — a block edge in a
    stack of blocks — the sum runs as ``n - 1`` slice adds across the whole
    stack, not as :func:`numpy.cumsum`, whose inner loop would be that
    short axis. Integer sums are exact, so both give the same array.
    """
    arr = np.asarray(d)
    if arr.dtype.kind not in "iu":
        raise CompressionError(f"Lorenzo inverse expects integers, got {arr.dtype}")
    out = arr if overwrite and arr.dtype == np.int64 else arr.astype(np.int64, copy=True)
    axis_list = list(axes) if axes is not None else list(range(out.ndim))
    for axis in reversed(axis_list):
        n = out.shape[axis]
        if n**3 < out.size:
            view = np.moveaxis(out, axis, 0)
            for i in range(1, n):
                view[i] += view[i - 1]
        else:
            np.cumsum(out, axis=axis, out=out)
    return out
