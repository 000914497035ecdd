"""One codec contract, checked on every registered codec.

Every codec has a run path and a batched rebuild, and ``Compressor`` holds
one path per stage: ``compress`` is the run of one member (the stream a
lone-member ``compress_batch`` writes), ``decompress_batch`` rebuilds a run
of grouped, self-contained and DEFLATE members as they decode one at a
time, and a malformed stream or index row is the same typed error whichever
codec it names.
"""

from __future__ import annotations

import json
import struct

import numpy as np
import pytest

from repro.compression.base import (
    ENTROPY_STAGES,
    GROUPED_STAGE,
    SharedEntropy,
    StreamReader,
)
from repro.compression.registry import available_codecs, make_codec
from repro.errors import DecompressionError

CODECS = available_codecs()
SHAPES = [(19,), (9, 13), (10, 11, 12)]
RUN_SHAPES = [(8, 8, 8), (6, 10, 7), (8, 8, 8), (5, 9, 12)]


def _field(shape, seed: int = 0) -> np.ndarray:
    """A smooth seeded field: every member of a run Huffman-codes."""
    return np.random.default_rng(seed).normal(size=shape).cumsum(axis=-1)


def _run() -> list[np.ndarray]:
    return [_field(shape, seed) for seed, shape in enumerate(RUN_SHAPES)]


def _with_header(blob, **fields) -> bytes:
    """``blob`` with top-level header fields replaced, sections untouched
    (``StreamWriter`` casts the shape, so a forged one is written here)."""
    _, header_len = struct.unpack_from("<BI", blob, 4)
    meta = json.loads(bytes(blob[9 : 9 + header_len]))
    header = json.dumps({**meta, **fields}, separators=(",", ":")).encode()
    return bytes(blob[:4]) + struct.pack("<BI", 1, len(header)) + header + bytes(blob[9 + header_len :])


class TestCompressIsTheRunOfOneMember:
    @pytest.mark.parametrize("mode", ["abs", "rel"])
    @pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "x".join(map(str, s)))
    @pytest.mark.parametrize("name", CODECS)
    def test_lone_member_batch_is_compress(self, name, shape, mode):
        """A run of one shares its codebook with no one: ``compress_batch``
        writes the self-contained stream ``compress`` writes, byte for byte,
        and it decodes within the bound on a shape no block divides."""
        codec = make_codec(name)
        data = _field(shape)
        result = codec.compress_batch([data], 1e-2, mode)
        assert result.codebook is None and result.payloads == []
        assert result.streams == [codec.compress(data, 1e-2, mode)]
        recon = codec.decompress(result.streams[0])
        assert recon.shape == shape
        eb = codec.resolve_error_bound(data, 1e-2, mode)
        assert np.abs(recon - data).max() <= eb * (1 + 1e-12)


class TestARunDecodesAsOneAtATime:
    @pytest.mark.parametrize("bounds", ["scalar-rel", "per-member-abs"])
    @pytest.mark.parametrize("name", CODECS)
    def test_grouped_run_decodes_as_compress(self, name, bounds):
        """A ragged run goes under one shared codebook, and each grouped
        stream decodes bit for bit to its member's ``compress`` stream."""
        codec = make_codec(name)
        members = _run()
        if bounds == "scalar-rel":
            spec, ebs, mode = 1e-3, [1e-3] * len(members), "rel"
        else:
            spec = ebs = [0.01, 0.02, 0.03, 0.04]
            mode = "abs"
        result = codec.compress_batch(members, spec, mode)
        assert result.codebook is not None
        assert {StreamReader(s).params["entropy"] for s in result.streams} == {GROUPED_STAGE}
        shareds = [SharedEntropy(result.codebook, p) for p in result.payloads]
        got = codec.decompress_batch(result.streams, shareds)
        for out, data, eb in zip(got, members, ebs):
            assert np.array_equal(out, codec.decompress(codec.compress(data, eb, mode)))

    @pytest.mark.parametrize("name", CODECS)
    def test_mixed_run_is_the_per_member_loop(self, name):
        """Grouped, self-contained Huffman and DEFLATE members in one
        ``decompress_batch`` each decode as ``decompress`` decodes them."""
        codec = make_codec(name)
        members = _run()
        result = codec.compress_batch(members[:2], 1e-3, "rel")
        blobs = [
            *result.streams,
            codec.compress(members[2], 1e-3, "rel"),
            make_codec(name, entropy="deflate").compress(members[3], 1e-3, "rel"),
        ]
        shareds = [*(SharedEntropy(result.codebook, p) for p in result.payloads), None, None]
        stages = [StreamReader(b).params["entropy"] for b in blobs]
        assert stages == [GROUPED_STAGE, GROUPED_STAGE, "huffman", "deflate"]
        got = codec.decompress_batch(blobs, shareds)
        for out, blob, shared in zip(got, blobs, shareds):
            assert np.array_equal(out, codec.decompress(blob, shared))


class TestMalformedStreamsAndRows:
    @pytest.mark.parametrize("entropy", ENTROPY_STAGES)
    @pytest.mark.parametrize("name", CODECS)
    def test_grouped_row_over_a_self_contained_stream(self, name, entropy):
        """Shared entropy handed to a self-contained stream (a grouped index
        row over it) is refused, alone and beside a healthy member — never
        silently ignored."""
        blob = make_codec(name, entropy=entropy).compress(_field((8, 8, 8)), 1e-3)
        assert StreamReader(blob).params["entropy"] == entropy
        shared = SharedEntropy(b"", b"")
        codec = make_codec(name)
        with pytest.raises(DecompressionError, match="self-contained"):
            codec.decompress(blob, shared)
        with pytest.raises(DecompressionError, match="self-contained"):
            codec.decompress_batch([blob, blob], [None, shared])

    @pytest.mark.parametrize("name", CODECS)
    def test_grouped_stream_without_its_shared_entropy(self, name):
        codec = make_codec(name)
        result = codec.compress_batch(_run()[:2], 1e-3, "rel")
        with pytest.raises(DecompressionError, match="decode it through its container"):
            codec.decompress(result.streams[0])

    @pytest.mark.parametrize("name", CODECS)
    def test_stream_of_another_codec(self, name):
        other = next(n for n in CODECS if n != name)
        blob = make_codec(other).compress(_field((8, 8, 8)), 1e-3)
        with pytest.raises(DecompressionError, match=f"produced by codec {other!r}"):
            make_codec(name).decompress(blob)

    @pytest.mark.parametrize(
        "shape", [[0, 8, 8], [-8, 8, 8], ["8", 8, 8], [8.0, 8, 8], [], 512], ids=repr
    )
    @pytest.mark.parametrize("name", CODECS)
    def test_forged_shape(self, name, shape):
        """A header shape that is not a list of positive ints is refused by
        the cell count every inflate is bounded by, before any section is
        inflated."""
        blob = make_codec(name).compress(_field((8, 8, 8)), 1e-3)
        assert np.array_equal(make_codec(name).decompress(_with_header(blob)),
                              make_codec(name).decompress(blob))
        with pytest.raises(DecompressionError, match="inconsistent shape, block size"):
            make_codec(name).decompress(_with_header(blob, shape=shape))
