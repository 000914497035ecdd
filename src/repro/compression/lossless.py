"""Lossless byte-stream backend (final stage of SZ-style codecs).

SZ follows its Huffman stage with a general-purpose lossless compressor
(zstd in the reference implementation). Offline we use the standard
library's DEFLATE (zlib), behind a tiny named-backend API so the
entropy-stage ablation bench can swap it for storing a section raw.
Inflating is **bounded**: a reader knows the most a section can hold, and
:func:`decompress_bytes` stops one byte past that (a bomb is refused, not built).
"""

from __future__ import annotations

import struct
import sys
import zlib

import numpy as np

from repro.errors import CompressionError, DecompressionError

__all__ = ["compress_bytes", "decompress_bytes", "pack_ints", "unpack_ints", "BACKENDS"]

#: Supported lossless backends.
BACKENDS = ("deflate", "none")

#: The 1-byte tag in front of every section (tag 1 was ``lzma``, which
#: nothing ever wrote: it answers as an unknown backend).
_BACKEND_IDS = {"deflate": 0, "none": 2}


def compress_bytes(raw: bytes, backend: str = "deflate", level: int = 6) -> bytes:
    """Losslessly compress ``raw``; output is self-describing (1-byte tag)."""
    if backend not in _BACKEND_IDS:
        raise CompressionError(f"unknown lossless backend {backend!r} (have {BACKENDS})")
    body = zlib.compress(raw, level) if backend == "deflate" else raw
    return struct.pack("<B", _BACKEND_IDS[backend]) + body


def decompress_bytes(blob: bytes, limit: int) -> bytes:
    """Inverse of :func:`compress_bytes` for a section that holds at most
    ``limit`` bytes: inflating stops at ``limit + 1``, and a section that
    holds more is a :class:`~repro.errors.DecompressionError`."""
    if len(blob) < 1:
        raise DecompressionError("empty lossless blob")
    body = blob[1:]
    if blob[0] == _BACKEND_IDS["deflate"]:
        inflater = zlib.decompressobj()
        try:
            # max_length must be a positive ssize_t: 0 would mean "no bound"
            body = inflater.decompress(body, max(0, min(limit, sys.maxsize - 1)) + 1)
        except zlib.error as exc:
            raise DecompressionError(f"lossless stage failed: {exc}") from exc
        if len(body) <= limit and not inflater.eof:
            raise DecompressionError("lossless stage failed: incomplete or truncated stream")
    elif blob[0] != _BACKEND_IDS["none"]:
        raise DecompressionError(f"unknown lossless backend id {blob[0]}")
    if len(body) > limit:
        raise DecompressionError(f"lossless section holds more than its stream's {limit} bytes")
    return body


def pack_ints(values: np.ndarray, level: int = 6) -> bytes:
    """Serialize an integer array (dtype narrowed to the smallest that fits)
    and DEFLATE it at ``level``.

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
    return header + compress_bytes(arr.tobytes(), "deflate", level)


def unpack_ints(blob: bytes, limit: int) -> np.ndarray:
    """Inverse of :func:`pack_ints` (always returns int64). The header is
    not believed: only an integer dtype code, exactly the recorded count
    (which bounds the inflate), and no count above ``limit`` elements."""
    if len(blob) < 10:
        raise DecompressionError("truncated integer blob")
    code, size = struct.unpack_from("<2sQ", blob, 0)
    if code[:1] not in b"iu" or code[1:] not in b"1248":
        raise DecompressionError(f"integer blob has non-integer dtype code {code!r}")
    dtype = np.dtype(code.decode())
    if size > limit:
        raise DecompressionError(f"integer blob records {size} element(s), stream allows {limit}")
    try:
        raw = decompress_bytes(blob[10:], size * dtype.itemsize)
    except DecompressionError as exc:
        raise DecompressionError(f"integer blob of {size} {dtype} element(s): {exc}") from exc
    if len(raw) != size * dtype.itemsize:
        raise DecompressionError(
            f"integer blob records {size} {dtype} element(s) but holds {len(raw)} bytes"
        )
    return np.frombuffer(raw, dtype=dtype).astype(np.int64)
