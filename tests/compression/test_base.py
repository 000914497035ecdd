"""Tests for the stream container and Compressor helpers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.compression.base import Compressor, CompressionStats, StreamReader, StreamWriter
from repro.errors import CompressionError, FormatError


class TestStreamContainer:
    def test_roundtrip(self):
        w = StreamWriter("test", (4, 5), np.dtype(np.float64), {"eb": 0.5})
        w.add_section("alpha", b"12345")
        w.add_section("beta", b"")
        blob = w.tobytes()
        r = StreamReader(blob)
        assert r.codec == "test"
        assert r.shape == (4, 5)
        assert r.dtype == np.float64
        assert r.params == {"eb": 0.5}
        assert r.section("alpha") == b"12345"
        assert r.section("beta") == b""

    def test_missing_section(self):
        w = StreamWriter("t", (1,), np.dtype(np.float64), {})
        r = StreamReader(w.tobytes())
        with pytest.raises(FormatError):
            r.section("nope")

    def test_bad_magic(self):
        with pytest.raises(FormatError):
            StreamReader(b"NOPE" + b"\x00" * 20)

    def test_truncated_section(self):
        w = StreamWriter("t", (1,), np.dtype(np.float64), {})
        w.add_section("s", b"abcdef")
        blob = w.tobytes()
        with pytest.raises(FormatError):
            StreamReader(blob[:-3])

    def test_tiny_blob(self):
        with pytest.raises(FormatError):
            StreamReader(b"RP")


class TestResolveErrorBound:
    def test_abs_passthrough(self):
        assert Compressor.resolve_error_bound(np.zeros(3), 0.5, "abs") == 0.5

    def test_rel_scales_with_range(self):
        data = np.array([0.0, 10.0])
        assert Compressor.resolve_error_bound(data, 0.01, "rel") == pytest.approx(0.1)

    def test_rel_constant_data(self):
        assert Compressor.resolve_error_bound(np.full(4, 2.0), 0.01, "rel") == 0.01

    def test_bad_mode(self):
        with pytest.raises(CompressionError):
            Compressor.resolve_error_bound(np.zeros(2), 0.1, "psnr")

    def test_nonpositive_bound(self):
        with pytest.raises(CompressionError):
            Compressor.resolve_error_bound(np.zeros(2), -0.1, "abs")


class TestStats:
    def test_ratio(self):
        s = CompressionStats("c", 8000, 1000, 1e-3, {})
        assert s.ratio == 8.0

    def test_zero_compressed_rejected(self):
        with pytest.raises(CompressionError):
            _ = CompressionStats("c", 100, 0, 1e-3, {}).ratio
