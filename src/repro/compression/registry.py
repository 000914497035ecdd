"""Codec registry: name-based construction and stream routing."""

from __future__ import annotations

from typing import Callable

from repro.compression.base import STREAM_MAGIC, Compressor, StreamReader
from repro.compression.sz_interp import SZInterp
from repro.compression.sz_lr import SZLR
from repro.errors import CompressionError

import numpy as np

__all__ = [
    "available_codecs",
    "make_codec",
    "decompress_any",
]

_FACTORIES: dict[str, Callable[..., Compressor]] = {
    SZLR.name: SZLR,
    SZInterp.name: SZInterp,
}


def available_codecs() -> tuple[str, ...]:
    """Registered codec names."""
    return tuple(sorted(_FACTORIES))


def make_codec(name: str, **kwargs) -> Compressor:
    """Instantiate a codec by registry name."""
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise CompressionError(
            f"unknown codec {name!r}; available: {available_codecs()}"
        ) from None
    return factory(**kwargs)


def decompress_any(blob: bytes) -> np.ndarray:
    """Decompress a stream from any registered codec (routed by header)."""
    magic = bytes(blob[:4])
    if magic != STREAM_MAGIC:
        raise CompressionError(
            f"unknown stream magic {magic!r}; expected a {STREAM_MAGIC!r} codec "
            "stream (hierarchy containers start with b'RPH2' — use "
            "repro.compression.amr_codec to read those)"
        )
    codec_name = StreamReader(blob).codec
    return make_codec(codec_name).decompress(blob)
