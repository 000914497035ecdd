"""Error-bounded linear-scale quantization (the SZ quantizer).

Prediction-based compressors quantize the residual ``value - prediction``
onto a uniform lattice of pitch ``2 * eb``; reconstructing as
``prediction + 2 * eb * code`` guarantees ``|value - recon| <= eb``
regardless of how good the prediction was — in float64 too: a half-way tie
that rounds just outside is stepped back inside. This module implements that
quantizer plus the *pre-quantization* ("dual-quant") variant used by the
vectorized Lorenzo path, where the data itself is snapped to the lattice
first and all later arithmetic is exact integer math.
"""

from __future__ import annotations

import numpy as np

from repro.errors import CompressionError

__all__ = [
    "quantize_residuals",
    "reconstruct_from_codes",
    "prequantize",
]

#: Quantization codes are stored as int64; bound where float rounding is exact.
_MAX_SAFE_CODE = 2**52


def _check_eb(eb) -> None:
    """Every quantizer entry point takes a scalar bound or a broadcastable
    array of per-row bounds (a run of patches quantizes all its members
    in one call, each under its own resolved absolute bound)."""
    if np.any(np.asarray(eb) <= 0):
        raise CompressionError(f"error bound must be > 0, got {eb}")


def _onto_bound(codes: np.ndarray, values, base, step, eb) -> np.ndarray:
    """``codes`` (float, rounded) with each code whose float64
    reconstruction ``base + step * code`` (``step * code`` when ``base`` is
    ``None``, computed as the inverse computes it) misses ``values`` by more
    than ``eb`` stepped by one toward its value, where that lands inside.

    ``rint`` picks the nearest lattice point of the *computed* ratio; when
    the residual sits half-way between two points, the tie plus the
    reconstruction's own rounding can land just outside the bound (174.0
    against a prediction of 1e-5 at eb 1e-5 missed by 3e-15). Where neither
    neighbour is inside in float64, the miss is below the rounding of the
    reconstruction itself and ``rint``'s code is kept: refusing it would
    refuse ordinary data (a residual of exactly three half-steps, which SZ-L/R
    computes for every block, Lorenzo-coded ones included).
    """
    err = step * codes
    if base is not None:
        err += base
    np.subtract(values, err, out=err)
    miss = np.abs(err, out=err) > eb
    if not miss.any():
        return codes
    def at(a):
        return np.broadcast_to(a, codes.shape)[miss]

    value, width, kept = at(values), at(step), codes[miss]
    recon = width * kept if base is None else at(base) + width * kept
    stepped = kept + np.sign(value - recon)
    recon = width * stepped if base is None else at(base) + width * stepped
    codes[miss] = np.where(np.abs(value - recon) <= at(eb), stepped, kept)
    return codes


def quantize_residuals(values: np.ndarray, predictions: np.ndarray, eb) -> np.ndarray:
    """Quantize ``values - predictions`` with pitch ``2 * eb``.

    ``eb`` is a positive scalar or an array broadcastable against
    ``values`` (per-block bounds in the batched path). Returns int64 codes
    such that :func:`reconstruct_from_codes` differs from ``values`` by at
    most ``eb`` element-wise, in float64, wherever a lattice point's
    reconstruction can (:func:`_onto_bound`).
    """
    _check_eb(eb)
    step = 2.0 * np.asarray(eb)
    codes = np.rint((values - predictions) / step)
    if codes.size and max(-codes.min(), codes.max()) > _MAX_SAFE_CODE:
        raise CompressionError(
            "residual / error-bound ratio too large for exact integer codes; "
            "increase the error bound"
        )
    return _onto_bound(codes, values, predictions, step, eb).astype(np.int64)


def reconstruct_from_codes(predictions: np.ndarray, codes: np.ndarray, eb) -> np.ndarray:
    """Inverse of :func:`quantize_residuals`."""
    _check_eb(eb)
    return predictions + (2.0 * np.asarray(eb)) * codes.astype(np.float64)


def prequantize(data: np.ndarray, eb) -> np.ndarray:
    """Snap ``data`` to the lattice ``2 * eb * k`` (dual-quant first stage).

    ``eb`` is a positive scalar or broadcastable array of bounds. The
    returned int64 array ``q`` satisfies ``|data - 2 * eb * q| <= eb`` in
    float64 wherever a lattice point's reconstruction can
    (:func:`_onto_bound`).
    All subsequent prediction/transform arithmetic on ``q`` is exact, which
    is what makes the vectorized Lorenzo codec bit-exact invertible.
    """
    _check_eb(eb)
    data = np.asarray(data, dtype=np.float64)
    step = 2.0 * np.asarray(eb)
    q = data / step
    np.rint(q, out=q)
    if q.size and max(-q.min(), q.max()) > _MAX_SAFE_CODE:
        raise CompressionError(
            "value / error-bound ratio too large for exact integer codes; "
            "increase the error bound"
        )
    return _onto_bound(q, data, None, step, eb).astype(np.int64)

