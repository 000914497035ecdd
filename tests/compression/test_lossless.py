"""Tests for the lossless byte backend."""

from __future__ import annotations

import struct

import numpy as np
import pytest

from repro.compression.lossless import (
    BACKENDS,
    compress_bytes,
    decompress_bytes,
    pack_ints,
    unpack_ints,
)
from repro.errors import CompressionError, DecompressionError


class TestBytes:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_roundtrip(self, backend):
        raw = b"the quick brown fox " * 100
        assert decompress_bytes(compress_bytes(raw, backend)) == raw

    def test_empty_payload(self):
        assert decompress_bytes(compress_bytes(b"")) == b""

    def test_deflate_compresses(self):
        raw = b"a" * 10_000
        assert len(compress_bytes(raw, "deflate")) < 200

    def test_unknown_backend_rejected(self):
        with pytest.raises(CompressionError):
            compress_bytes(b"x", "zstd")

    def test_corrupt_stream_rejected(self):
        blob = compress_bytes(b"hello world" * 10, "deflate")
        with pytest.raises(DecompressionError):
            decompress_bytes(blob[:1] + b"\xff" + blob[5:])

    def test_unknown_tag_rejected(self):
        with pytest.raises(DecompressionError):
            decompress_bytes(b"\x9fdata")

    def test_empty_blob_rejected(self):
        with pytest.raises(DecompressionError):
            decompress_bytes(b"")


class TestPackInts:
    def test_roundtrip_int64(self, rng):
        arr = rng.integers(-(2**40), 2**40, size=1000)
        assert np.array_equal(unpack_ints(pack_ints(arr)), arr)

    def test_narrowing_small_values(self, rng):
        arr = rng.integers(-100, 100, size=10_000)
        blob = pack_ints(arr)
        # int8 narrowing: payload well under the int64 raw size.
        assert len(blob) < arr.size  # compressed int8 stream
        assert np.array_equal(unpack_ints(blob), arr)

    def test_empty_array(self):
        out = unpack_ints(pack_ints(np.empty(0, dtype=np.int64)))
        assert out.size == 0

    def test_output_always_int64(self):
        out = unpack_ints(pack_ints(np.array([1, 2, 3], dtype=np.int8)))
        assert out.dtype == np.int64

    def test_float_rejected(self):
        with pytest.raises(CompressionError):
            pack_ints(np.array([1.5]))

    def test_truncated_rejected(self):
        with pytest.raises(DecompressionError):
            unpack_ints(b"\x00\x01")

    def test_boundary_values(self):
        arr = np.array([np.iinfo(np.int64).min, np.iinfo(np.int64).max, 0])
        assert np.array_equal(unpack_ints(pack_ints(arr)), arr)

    def test_already_narrow_dtype_kept(self, rng):
        """An input already stored in the narrowest fitting dtype packs to
        the same bytes (the astype is now a no-op, not a copy)."""
        arr8 = rng.integers(-100, 100, size=4096).astype(np.int8)
        assert pack_ints(arr8) == pack_ints(arr8.astype(np.int64))
        assert np.array_equal(unpack_ints(pack_ints(arr8)), arr8)

    def test_level_reachable_and_roundtrips(self, rng):
        """The backend level threads through; any level decodes (the blob
        self-describes its backend, not its level)."""
        arr = rng.integers(-5, 5, size=50_000)
        fast = pack_ints(arr, "deflate", 1)
        slow = pack_ints(arr, "deflate", 9)
        assert np.array_equal(unpack_ints(fast), arr)
        assert np.array_equal(unpack_ints(slow), arr)
        assert len(slow) <= len(fast)


class TestUnpackIntsBelievesNoHeader:
    """A forged ``<2sQ`` header (dtype code, element count) over a valid
    payload: every case is a typed refusal — a count smaller than the
    payload used to come back as a silently truncated array, the others
    as bare ``ValueError`` / ``TypeError`` / ``UnicodeDecodeError``."""

    PAYLOAD = compress_bytes(np.arange(100, dtype=np.int64).tobytes())

    @staticmethod
    def _forge(code: bytes, count: int) -> bytes:
        return struct.pack("<2sQ", code, count) + TestUnpackIntsBelievesNoHeader.PAYLOAD

    def test_honest_header_roundtrips(self):
        out = unpack_ints(self._forge(b"i8", 100))
        assert np.array_equal(out, np.arange(100))

    @pytest.mark.parametrize("code,count", [
        (b"i8", 1 << 40),  # sized no allocation
        (b"f8", 100),  # a float dtype code
        (b"zz", 100),  # no dtype at all
        (b"i3", 100),  # no such width
        (b"\xff\xfe", 100),  # not even ASCII
        (b"i8", 3),  # fewer than the payload holds: was a truncated array
        (b"i4", 100),  # a width the payload does not divide into
    ], ids=["huge-count", "float", "garbage", "bad-width", "non-ascii",
            "short-count", "wrong-width"])
    def test_forged_header_is_a_typed_refusal(self, code, count):
        with pytest.raises(DecompressionError, match="integer blob"):
            unpack_ints(self._forge(code, count))
