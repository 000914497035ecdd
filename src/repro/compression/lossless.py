"""Lossless byte-stream backend (final stage of SZ-style codecs).

SZ follows its Huffman stage with a general-purpose lossless compressor
(zstd in the reference implementation). Offline we use the standard
library's DEFLATE (zlib) and LZMA, behind a tiny named-backend API so the
entropy-stage ablation bench can swap them.
"""

from __future__ import annotations

import lzma
import struct
import zlib

import numpy as np

from repro.errors import CompressionError, DecompressionError

__all__ = ["compress_bytes", "decompress_bytes", "pack_ints", "unpack_ints", "BACKENDS"]

#: Supported lossless backends.
BACKENDS = ("deflate", "lzma", "none")

_BACKEND_IDS = {name: i for i, name in enumerate(BACKENDS)}
_ID_BACKENDS = {i: name for name, i in _BACKEND_IDS.items()}


def compress_bytes(raw: bytes, backend: str = "deflate", level: int = 6) -> bytes:
    """Losslessly compress ``raw``; output is self-describing (1-byte tag)."""
    if backend not in _BACKEND_IDS:
        raise CompressionError(f"unknown lossless backend {backend!r} (have {BACKENDS})")
    if backend == "deflate":
        body = zlib.compress(raw, level)
    elif backend == "lzma":
        body = lzma.compress(raw, preset=min(level, 9))
    else:
        body = raw
    return struct.pack("<B", _BACKEND_IDS[backend]) + body


def decompress_bytes(blob: bytes) -> bytes:
    """Inverse of :func:`compress_bytes`."""
    if len(blob) < 1:
        raise DecompressionError("empty lossless blob")
    backend = _ID_BACKENDS.get(blob[0])
    body = blob[1:]
    try:
        if backend == "deflate":
            return zlib.decompress(body)
        if backend == "lzma":
            return lzma.decompress(body)
        if backend == "none":
            return body
    except (zlib.error, lzma.LZMAError) as exc:
        raise DecompressionError(f"lossless stage failed: {exc}") from exc
    raise DecompressionError(f"unknown lossless backend id {blob[0]}")


def pack_ints(values: np.ndarray, backend: str = "deflate", level: int = 6) -> bytes:
    """Serialize an integer array (dtype narrowed to the smallest that fits)
    and losslessly compress it at ``level``.

    Arrays already stored in the narrowest fitting dtype are serialized
    without the narrowing copy (``astype(..., copy=False)`` is a no-op
    there), so repeated packing of already-narrow sections is allocation
    free up to the byte serialization itself.
    """
    arr = np.ascontiguousarray(values)
    if arr.dtype.kind not in "iu":
        raise CompressionError(f"pack_ints expects integers, got {arr.dtype}")
    if arr.size:
        lo = int(arr.min())
        hi = int(arr.max())
        for dtype in (np.int8, np.int16, np.int32, np.int64):
            info = np.iinfo(dtype)
            if info.min <= lo and hi <= info.max:
                arr = arr.astype(dtype, copy=False)
                break
    header = struct.pack("<2sQ", arr.dtype.str[-2:].encode(), arr.size)
    return header + compress_bytes(arr.tobytes(), backend, level)


def unpack_ints(blob: bytes) -> np.ndarray:
    """Inverse of :func:`pack_ints` (always returns int64). The header is
    not believed: only an integer dtype code, and exactly the recorded count."""
    if len(blob) < 10:
        raise DecompressionError("truncated integer blob")
    code, size = struct.unpack_from("<2sQ", blob, 0)
    if code[:1] not in b"iu" or code[1:] not in b"1248":
        raise DecompressionError(f"integer blob has non-integer dtype code {code!r}")
    dtype = np.dtype(code.decode())
    raw = decompress_bytes(blob[10:])
    if len(raw) != size * dtype.itemsize:
        raise DecompressionError(
            f"integer blob records {size} {dtype} element(s) but holds {len(raw)} bytes"
        )
    return np.frombuffer(raw, dtype=dtype).astype(np.int64)
