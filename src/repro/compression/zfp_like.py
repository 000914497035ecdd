"""Transform-based baseline codec (ZFP-inspired).

The paper names ZFP as the transform-based alternative to SZ (§1, §2.1).
This codec follows the same architectural recipe at reduced complexity:

1. pre-quantize to integers on the error-bound lattice (bounds the error
   exactly, like the Lorenzo dual-quant path);
2. split into 4^d blocks;
3. decorrelate each block with a hierarchical integer S-transform (a
   Haar-style lifting: exact, invertible ``(a, b) -> ((a + b) >> 1, a - b)``
   butterflies along each axis) — playing the role of ZFP's orthogonal
   block transform;
4. entropy-code the coefficients.

It is used as the extra baseline in the rate-distortion ablations; absolute
ratios differ from real ZFP but the transform-codec behaviour (smooth
blocks compress superbly, discontinuities ring) is preserved.
"""

from __future__ import annotations

import numpy as np

from repro.compression.base import (
    Compressor,
    StreamReader,
    StreamWriter,
    encode_codes,
)
from repro.compression.lossless import pack_ints, unpack_ints
from repro.compression.quantizer import dequantize, prequantize
from repro.compression import regression as reg
from repro.errors import CompressionError

__all__ = ["ZFPLike", "s_transform_forward", "s_transform_inverse"]


def _butterfly_forward(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact integer average/difference pair: ``s = (a+b) >> 1, d = a - b``."""
    d = a - b
    s = b + (d >> 1)  # == floor((a + b) / 2), overflow-safe
    return s, d


def _butterfly_inverse(s: np.ndarray, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    b = s - (d >> 1)
    a = d + b
    return a, b


def s_transform_forward(blocks: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    """Two-scale integer S-transform along each axis of 4-wide blocks.

    ``blocks`` has 4 entries along every axis in ``axes``. After the
    transform, index 0 carries the block average and indices 1..3 carry
    detail coefficients.
    """
    out = blocks.astype(np.int64, copy=True)
    for axis in axes:
        if out.shape[axis] != 4:
            raise CompressionError(f"S-transform expects length 4 along axis {axis}")
        mv = np.moveaxis(out, axis, 0)
        s0, d0 = _butterfly_forward(mv[0].copy(), mv[1].copy())
        s1, d1 = _butterfly_forward(mv[2].copy(), mv[3].copy())
        s, d = _butterfly_forward(s0, s1)
        mv[0], mv[1], mv[2], mv[3] = s, d, d0, d1
    return out


def s_transform_inverse(coefs: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    """Exact inverse of :func:`s_transform_forward`."""
    out = coefs.astype(np.int64, copy=True)
    for axis in reversed(axes):
        mv = np.moveaxis(out, axis, 0)
        s, d = mv[0].copy(), mv[1].copy()
        d0, d1 = mv[2].copy(), mv[3].copy()
        s0, s1 = _butterfly_inverse(s, d)
        a0, b0 = _butterfly_inverse(s0, d0)
        a1, b1 = _butterfly_inverse(s1, d1)
        mv[0], mv[1], mv[2], mv[3] = a0, b0, a1, b1
    return out


class ZFPLike(Compressor):
    """Fixed-accuracy transform codec over 4^d blocks; its coefficients go
    through the Huffman stage of :func:`~repro.compression.base.encode_codes`."""

    name = "zfp-like"
    _block_edge = 4

    def compress(self, data: np.ndarray, error_bound: float, mode: str = "abs") -> bytes:
        orig_dtype = np.asarray(data).dtype
        arr = self._validate_input(data)
        eb = self.resolve_error_bound(arr, error_bound, mode)
        ndim = arr.ndim
        q = prequantize(arr, eb)
        blocks, padded_shape = reg.blockify(q, 4)
        cube = blocks.reshape((-1,) + (4,) * ndim)
        coefs = s_transform_forward(cube, tuple(range(1, ndim + 1)))
        flat = coefs.reshape(blocks.shape[0], 4**ndim)
        dc = flat[:, 0].copy()
        rest = flat.copy()
        rest[:, 0] = 0
        code_blob, entropy_used = encode_codes(rest.ravel(), "huffman")
        writer = StreamWriter(
            self.name,
            arr.shape,
            orig_dtype,
            {
                "eb": eb,
                "padded_shape": list(padded_shape),
                "entropy": entropy_used,
                "k_streams": "auto",
            },
        )
        writer.add_section("dc", pack_ints(dc))
        writer.add_section("codes", code_blob)
        return writer.tobytes()

    def _reconstruct(self, reader: StreamReader, codes: np.ndarray) -> np.ndarray:
        eb = float(reader.params["eb"])
        shape = reader.shape
        padded_shape = tuple(reader.params["padded_shape"])
        ndim = len(shape)
        dc = unpack_ints(reader.section("dc"), self._cells(reader))
        flat = codes.reshape(dc.size, 4**ndim).copy()
        flat[:, 0] = dc
        cube = flat.reshape((-1,) + (4,) * ndim)
        q = s_transform_inverse(cube, tuple(range(1, ndim + 1)))
        blocks = q.reshape(dc.size, 4**ndim)
        arr = reg.unblockify(dequantize(blocks, eb), 4, padded_shape, shape)
        return arr.astype(reader.dtype, copy=False)
