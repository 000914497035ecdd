"""Per-block linear-regression predictor (the "R" of SZ-L/R).

SZ's high-ratio mode (Liang et al., IEEE Big Data 2018) partitions data into
small blocks and fits an affine model ``f(i,j,k) = b0 + b1*i + b2*j + b3*k``
per block. The design matrix is identical for every (full) block, so the
least-squares solve collapses to a single precomputed pseudo-inverse applied
to all blocks at once — one matmul for the whole array.

Coefficients are themselves quantized (they travel in the stream); the
residual quantizer downstream guarantees the error bound regardless of the
coefficient precision, which only influences ratio.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.errors import CompressionError

__all__ = [
    "blockify",
    "unblockify",
    "fit_blocks",
    "quantize_coefficients",
    "dequantize_coefficients",
    "predict_blocks",
]


def blockify(arr: np.ndarray, bs: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """Split ``arr`` into ``bs``-cubes after edge padding.

    Returns ``(blocks, padded_shape)`` where ``blocks`` has shape
    ``(n_blocks, bs**ndim)`` in C-order block raster order. Edge padding
    replicates border values so every block is full — padding cells are
    dropped again by :func:`unblockify`.
    """
    if bs < 2:
        raise CompressionError(f"block size must be >= 2, got {bs}")
    pad = [(0, (-s) % bs) for s in arr.shape]
    padded = np.pad(arr, pad, mode="edge") if any(p[1] for p in pad) else arr
    nb = tuple(s // bs for s in padded.shape)
    ndim = arr.ndim
    # reshape to (nb0, bs, nb1, bs, ...) then move block axes to front.
    shape = []
    for n in nb:
        shape.extend((n, bs))
    view = padded.reshape(tuple(shape))
    order = list(range(0, 2 * ndim, 2)) + list(range(1, 2 * ndim, 2))
    blocks = view.transpose(order).reshape(-1, bs**ndim)
    return np.ascontiguousarray(blocks), padded.shape


def unblockify(blocks: np.ndarray, bs: int, padded_shape: tuple[int, ...], shape: tuple[int, ...]) -> np.ndarray:
    """Inverse of :func:`blockify`, cropping padding back to ``shape``."""
    ndim = len(shape)
    nb = tuple(s // bs for s in padded_shape)
    view = blocks.reshape(nb + (bs,) * ndim)
    order: list[int] = []
    for d in range(ndim):
        order.extend((d, ndim + d))
    arr = view.transpose(order).reshape(padded_shape)
    return arr[tuple(slice(0, s) for s in shape)].copy()


@lru_cache(maxsize=8)
def _design(bs: int, ndim: int) -> tuple[np.ndarray, np.ndarray]:
    """(X, pinv(X)) for the per-block affine fit; cached per (bs, ndim)."""
    axes = [np.arange(bs, dtype=np.float64)] * ndim
    coords = np.meshgrid(*axes, indexing="ij")
    cols = [np.ones(bs**ndim)] + [c.ravel() for c in coords]
    x = np.stack(cols, axis=1)  # (bs**ndim, 1+ndim)
    pinv = np.linalg.pinv(x)  # (1+ndim, bs**ndim)
    return x, pinv


def fit_blocks(blocks: np.ndarray, bs: int, ndim: int) -> np.ndarray:
    """Least-squares affine coefficients per block, shape ``(n, 1 + ndim)``."""
    _, pinv = _design(bs, ndim)
    return blocks @ pinv.T


def coefficient_pitches(eb, bs: int, ndim: int) -> np.ndarray:
    """Quantization pitch per coefficient.

    The intercept moves the whole block, so it gets pitch ``eb/2``; each
    slope is scaled by up to ``bs`` cells, so slopes get ``eb/(2*bs)`` —
    keeping coefficient rounding well inside the residual quantizer's
    correction range (mirrors the reference SZ choice). ``eb`` is a scalar
    bound or a per-block array of shape ``(n,)`` (a run's block matrix),
    giving pitches of shape ``(1 + ndim,)`` or ``(n, 1 + ndim)``.

    The pitch is computed by *division* (``eb / (2*bs)``), exactly as the
    historical scalar code did: a reciprocal multiply differs by 1 ulp for
    non-power-of-two block sizes (5, 6), which would silently change the
    dequantized coefficients of every previously written stream.
    """
    divisors = np.full(1 + ndim, 2.0 * bs)
    divisors[0] = 2.0
    eb_arr = np.asarray(eb, dtype=np.float64)
    return eb_arr[..., None] / divisors


def quantize_coefficients(coefs: np.ndarray, eb, bs: int, ndim: int) -> np.ndarray:
    """Snap coefficients to their pitch lattice; returns int64 codes."""
    pitches = coefficient_pitches(eb, bs, ndim)
    return np.rint(coefs / pitches).astype(np.int64)


def dequantize_coefficients(codes: np.ndarray, eb, bs: int, ndim: int) -> np.ndarray:
    """Inverse of :func:`quantize_coefficients`."""
    pitches = coefficient_pitches(eb, bs, ndim)
    return codes.astype(np.float64) * pitches


def predict_blocks(coefs: np.ndarray, bs: int, ndim: int) -> np.ndarray:
    """Evaluate the affine model: ``(n, 1+ndim) -> (n, bs**ndim)``."""
    x, _ = _design(bs, ndim)
    return coefs @ x.T
