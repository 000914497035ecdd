"""Codec registry: name-based construction and stream routing."""

from __future__ import annotations

import inspect
from typing import Callable

from repro.compression.base import STREAM_MAGIC, Compressor, StreamReader
from repro.compression.sz_interp import SZInterp
from repro.compression.sz_lr import SZLR
from repro.compression.zfp_like import ZFPLike
from repro.errors import CompressionError

import numpy as np

__all__ = [
    "available_codecs",
    "codec_accepts",
    "codec_supports_batch",
    "make_codec",
    "register_codec",
    "decompress_any",
]

_FACTORIES: dict[str, Callable[..., Compressor]] = {
    SZLR.name: SZLR,
    SZInterp.name: SZInterp,
    ZFPLike.name: ZFPLike,
}


def available_codecs() -> tuple[str, ...]:
    """Registered codec names."""
    return tuple(sorted(_FACTORIES))


# kept: operator need: plug a custom codec into every writer and reader by name
def register_codec(name: str, factory: Callable[..., Compressor]) -> None:
    """Register a custom codec factory under ``name``."""
    if name in _FACTORIES:
        raise CompressionError(f"codec {name!r} already registered")
    _FACTORIES[name] = factory


def codec_accepts(name: str, param: str) -> bool:
    """Whether codec ``name``'s factory takes keyword ``param``.

    Lets generic call sites (e.g. ``resolve_patch_codec`` threading
    ``k_streams``) forward optional tuning parameters without breaking
    custom factories registered through :func:`register_codec` whose
    constructors never grew them. Unsignaturable factories (builtins,
    C callables) conservatively report ``False``.
    """
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise CompressionError(
            f"unknown codec {name!r}; available: {available_codecs()}"
        ) from None
    try:
        sig = inspect.signature(factory)
    except (TypeError, ValueError):
        return False
    return any(
        p.name == param or p.kind is inspect.Parameter.VAR_KEYWORD
        for p in sig.parameters.values()
    )


# kept: operator need: whether a codec takes batch="level" without building one
def codec_supports_batch(name: str) -> bool:
    """Whether codec ``name`` implements the level-batched fused path
    (``compress_batch`` + shared-codebook decode).

    Checked on the factory when it is a :class:`Compressor` subclass;
    custom factories registered as plain callables conservatively report
    ``False`` (their instances may still be passed to
    ``compress_hierarchy`` directly, which checks the instance).
    """
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise CompressionError(
            f"unknown codec {name!r}; available: {available_codecs()}"
        ) from None
    if isinstance(factory, type) and issubclass(factory, Compressor):
        return bool(getattr(factory, "supports_batch", False))
    return False


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
