"""Tests for the lossless byte backend."""

from __future__ import annotations

import struct
import tracemalloc
import zlib

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
        assert decompress_bytes(compress_bytes(raw, backend), len(raw)) == raw

    def test_empty_payload(self):
        assert decompress_bytes(compress_bytes(b""), 0) == b""

    def test_deflate_compresses(self):
        raw = b"a" * 10_000
        assert len(compress_bytes(raw, "deflate")) < 200

    def test_unknown_backend_rejected(self):
        with pytest.raises(CompressionError):
            compress_bytes(b"x", "zstd")

    def test_corrupt_stream_rejected(self):
        blob = compress_bytes(b"hello world" * 10, "deflate")
        with pytest.raises(DecompressionError):
            decompress_bytes(blob[:1] + b"\xff" + blob[5:], 110)

    def test_unknown_tag_rejected(self):
        with pytest.raises(DecompressionError):
            decompress_bytes(b"\x9fdata", 4)

    def test_empty_blob_rejected(self):
        with pytest.raises(DecompressionError):
            decompress_bytes(b"", 0)


    def test_backend_tags_are_stable(self):
        """Tags are on disk: ``deflate`` stays 0 and ``none`` stays 2; tag 1
        (``lzma``, which nothing ever wrote) is an unknown backend."""
        assert compress_bytes(b"x", "deflate")[0] == 0
        assert compress_bytes(b"x", "none")[:1] == b"\x02"
        with pytest.raises(DecompressionError, match="unknown lossless backend id 1"):
            decompress_bytes(b"\x01" + compress_bytes(b"x")[1:], 1)
        with pytest.raises(CompressionError, match="unknown lossless backend"):
            compress_bytes(b"x", "lzma")


@pytest.fixture(scope="module")
def bomb(n_bytes: int = 1 << 28) -> bytes:
    """A deflate section of ~260 KB that inflates to 268 MB of zeros,
    built without ever holding them."""
    deflater = zlib.compressobj(9)
    chunk = bytes(1 << 20)
    body = b"".join(deflater.compress(chunk) for _ in range(n_bytes >> 20)) + deflater.flush()
    assert len(body) < 300_000
    return b"\x00" + body


def _peak_of(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBoundedInflate:
    """What a section may inflate to is known before it is inflated; a
    ~260 KB section holding 268 MB is refused after ``limit + 1`` bytes."""

    def test_limit_is_exact(self):
        blob = compress_bytes(b"a" * 1000)
        assert decompress_bytes(blob, 1000) == b"a" * 1000
        for backend in BACKENDS:
            with pytest.raises(DecompressionError, match="more than"):
                decompress_bytes(compress_bytes(b"a" * 1000, backend), 999)
        with pytest.raises(DecompressionError):
            decompress_bytes(blob, -1)
        with pytest.raises(DecompressionError, match="truncated"):
            decompress_bytes(blob[:-4], 1000)

    def test_bomb_is_refused_without_being_built(self, bomb):
        def attempt():
            with pytest.raises(DecompressionError, match="more than"):
                decompress_bytes(bomb, 4096)

        assert _peak_of(attempt) < 1 << 20

    def test_unpack_ints_bounds_by_its_count_and_the_callers(self, bomb):
        forged = struct.pack("<2sQ", b"i1", 64) + bomb

        def attempt():
            with pytest.raises(DecompressionError, match="integer blob"):
                unpack_ints(forged, 64)
            with pytest.raises(DecompressionError, match="stream allows 512"):
                unpack_ints(struct.pack("<2sQ", b"i1", 1 << 28) + bomb, 512)

        assert _peak_of(attempt) < 1 << 20

    @pytest.mark.parametrize("section", ["modes", "dc", "coefs", "codes"])
    def test_codec_stream_carrying_a_bomb(self, section, bomb):
        """Any section of an SZ-L/R stream swapped for the bomb: the patch's
        cell count from the stream header is all it may inflate to."""
        from repro.compression.base import StreamReader, StreamWriter
        from repro.compression.sz_lr import SZLR

        data = np.random.default_rng(0).normal(size=(8, 8, 8)).cumsum(axis=1)
        reader = StreamReader(SZLR(block_size=4).compress(data, 1e-3))
        writer = StreamWriter(reader.codec, reader.shape, reader.dtype, reader.params)
        for name in ("modes", "dc", "coefs", "codes"):
            blob = reader.section(name)
            if name == section:
                head = struct.pack("<2sQ", b"i1", 1 << 28) if name in ("dc", "coefs") else b""
                blob = head + bomb
            writer.add_section(name, blob)
        forged = writer.tobytes()

        def attempt():
            with pytest.raises(DecompressionError):
                SZLR().decompress(forged)

        assert _peak_of(attempt) < 8 << 20

    @pytest.mark.parametrize("forgery", [
        {"padded_shape": [1 << 28]},
        {"padded_shape": [1 << 10] * 3},
        {"padded_shape": [8, 8, 12]},  # padded, but not by this block size
        {"padded_shape": 1 << 28},
        {"padded_shape": None},
        {"block_size": 0},
        {"block_size": "4"},
        {"block_size": ""},
        {"block_size": {}},
        {"block_size": 4.0},
    ], ids=repr)
    def test_bomb_beside_a_forged_padding(self, forgery, bomb):
        """The inflate bound is the header's shape rounded up to its block
        size, not the ``padded_shape`` the same header records: a padding
        that is not exactly that (or no usable block size) beside the bomb
        is refused before any section is inflated, as a typed error."""
        from repro.compression.base import StreamReader, StreamWriter
        from repro.compression.sz_lr import SZLR

        data = np.random.default_rng(0).normal(size=(8, 8, 8)).cumsum(axis=1)
        reader = StreamReader(SZLR(block_size=4).compress(data, 1e-3))
        writer = StreamWriter(
            reader.codec, reader.shape, reader.dtype, {**reader.params, **forgery}
        )
        for name in ("modes", "dc", "coefs", "codes"):
            writer.add_section(name, bomb if name == "codes" else reader.section(name))
        forged = writer.tobytes()

        def attempt():
            with pytest.raises(DecompressionError, match="inconsistent shape, block size"):
                SZLR().decompress(forged)

        assert _peak_of(attempt) < 1 << 20


class TestPackInts:
    def test_roundtrip_int64(self, rng):
        arr = rng.integers(-(2**40), 2**40, size=1000)
        assert np.array_equal(unpack_ints(pack_ints(arr), arr.size), arr)

    def test_narrowing_small_values(self, rng):
        arr = rng.integers(-100, 100, size=10_000)
        blob = pack_ints(arr)
        # int8 narrowing: payload well under the int64 raw size.
        assert len(blob) < arr.size  # compressed int8 stream
        assert np.array_equal(unpack_ints(blob, arr.size), arr)

    def test_empty_array(self):
        out = unpack_ints(pack_ints(np.empty(0, dtype=np.int64)), 0)
        assert out.size == 0

    def test_output_always_int64(self):
        out = unpack_ints(pack_ints(np.array([1, 2, 3], dtype=np.int8)), 3)
        assert out.dtype == np.int64

    def test_float_rejected(self):
        with pytest.raises(CompressionError):
            pack_ints(np.array([1.5]))

    def test_truncated_rejected(self):
        with pytest.raises(DecompressionError):
            unpack_ints(b"\x00\x01", 2)

    def test_boundary_values(self):
        arr = np.array([np.iinfo(np.int64).min, np.iinfo(np.int64).max, 0])
        assert np.array_equal(unpack_ints(pack_ints(arr), 3), arr)

    def test_already_narrow_dtype_kept(self, rng):
        """An input already stored in the narrowest fitting dtype packs to
        the same bytes (the astype is now a no-op, not a copy)."""
        arr8 = rng.integers(-100, 100, size=4096).astype(np.int8)
        assert pack_ints(arr8) == pack_ints(arr8.astype(np.int64))
        assert np.array_equal(unpack_ints(pack_ints(arr8), arr8.size), arr8)

    def test_level_reachable_and_roundtrips(self, rng):
        """The DEFLATE level threads through; any level decodes (the blob
        self-describes its backend, not its level)."""
        arr = rng.integers(-5, 5, size=50_000)
        fast = pack_ints(arr, level=1)
        slow = pack_ints(arr, level=9)
        assert np.array_equal(unpack_ints(fast, arr.size), arr)
        assert np.array_equal(unpack_ints(slow, arr.size), arr)
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
        out = unpack_ints(self._forge(b"i8", 100), 100)
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
            unpack_ints(self._forge(code, count), 1 << 62)
