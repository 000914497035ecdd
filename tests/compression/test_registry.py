"""Tests for the codec registry and stream routing."""

from __future__ import annotations

import numpy as np
import pytest

from repro.compression import (
    SZLR,
    available_codecs,
    decompress_any,
    make_codec,
)
from repro.errors import CompressionError


class TestRegistry:
    def test_builtins_present(self):
        names = available_codecs()
        assert {"sz-lr", "sz-interp"} <= set(names)

    def test_make_codec(self):
        c = make_codec("sz-lr", block_size=4)
        assert isinstance(c, SZLR)
        assert c.block_size == 4

    def test_unknown_rejected(self):
        with pytest.raises(CompressionError):
            make_codec("sz-9000")

    def test_decompress_any_routes(self, smooth_field):
        for name in ("sz-lr", "sz-interp"):
            blob = make_codec(name).compress(smooth_field, 1e-3)
            recon = decompress_any(blob)
            assert np.abs(recon - smooth_field).max() <= 1e-3 * (1 + 1e-12)

    def test_decompress_any_rejects_unknown_magic(self):
        with pytest.raises(CompressionError, match=r"b'XYZ\\x01'"):
            decompress_any(b"XYZ\x01" + b"\x00" * 32)

    def test_decompress_any_rejects_hierarchy_container(self, sphere_hierarchy):
        # A whole-hierarchy container is not a codec stream; the error must
        # name the magic and point at the right reader.
        from repro.compression import compress_hierarchy

        raw = compress_hierarchy(sphere_hierarchy, "sz-lr", 1e-2).tobytes()
        with pytest.raises(CompressionError, match="RPH2"):
            decompress_any(raw)

    def test_decompress_any_rejects_empty(self):
        with pytest.raises(CompressionError, match="magic"):
            decompress_any(b"")
