"""Corruption/truncation fuzzing for the patch-indexed container.

Every stream and the index itself carry crc32 checksums, and the footer is
magic-terminated — so *any* single-byte flip and *any* truncation of an
RPH2 container must surface as a FormatError/CompressionError that names
the failing component, never as silent garbage.
"""

from __future__ import annotations

import io
import json
import struct
import zlib

import numpy as np
import pytest

from repro.compression.amr_codec import (
    CompressedHierarchy,
    compress_hierarchy,
    decompress_selection,
)
from repro.compression.container import ContainerReader, pack_container
from repro.errors import CompressionError, FormatError, ReproError


@pytest.fixture(scope="module")
def container_raw():
    from tests.strategies import make_sphere_hierarchy

    h = make_sphere_hierarchy()
    return compress_hierarchy(h, "sz-lr", 1e-3).tobytes()


def _index_span(raw: bytes) -> tuple[int, int]:
    """(offset, length) of the index region, straight from the footer."""
    index_offset, index_length, _, _ = struct.unpack_from("<QQI8s", raw, len(raw) - 28)
    return index_offset, index_length


class TestIndexCorruption:
    def test_flipped_index_bytes(self, container_raw):
        off, length = _index_span(container_raw)
        for rel in (0, length // 3, length - 1):
            corrupted = bytearray(container_raw)
            corrupted[off + rel] ^= 0xFF
            with pytest.raises(FormatError, match="index"):
                ContainerReader(io.BytesIO(bytes(corrupted)))

    def test_flipped_footer_bytes(self, container_raw):
        for rel in range(1, 28):
            corrupted = bytearray(container_raw)
            corrupted[len(corrupted) - rel] ^= 0xFF
            with pytest.raises(FormatError):
                ContainerReader(io.BytesIO(bytes(corrupted)))

    def test_bad_header_magic(self, container_raw):
        corrupted = b"XXXX" + container_raw[4:]
        with pytest.raises(FormatError, match="magic"):
            CompressedHierarchy.frombytes(corrupted)

    def test_bad_version(self, container_raw):
        corrupted = container_raw[:4] + b"\x99" + container_raw[5:]
        with pytest.raises(FormatError, match="version"):
            ContainerReader(io.BytesIO(corrupted))


class TestStreamCorruption:
    def test_bad_checksum_names_patch(self, container_raw):
        reader = ContainerReader(io.BytesIO(container_raw))
        for entry in reader.entries:
            corrupted = bytearray(container_raw)
            corrupted[entry.offset + entry.length // 2] ^= 0xFF
            with pytest.raises(FormatError) as err:
                decompress_selection(
                    bytes(corrupted), levels=entry.level,
                    fields=entry.field, patches=entry.patch,
                )
            msg = str(err.value)
            assert "checksum" in msg
            assert f"level={entry.level}" in msg
            assert repr(entry.field) in msg
            assert f"patch={entry.patch}" in msg

    def test_other_patches_still_readable(self, container_raw):
        # Corruption is contained: untouched patches decode normally.
        reader = ContainerReader(io.BytesIO(container_raw))
        victim, survivor = reader.entries[0], reader.entries[1]
        corrupted = bytearray(container_raw)
        corrupted[victim.offset] ^= 0xFF
        out = decompress_selection(
            bytes(corrupted), levels=survivor.level,
            fields=survivor.field, patches=survivor.patch,
        )
        assert out[survivor.key].dtype == np.float64

    def test_truncated_streams(self, container_raw):
        for cut in (5, len(container_raw) // 4, len(container_raw) // 2,
                    len(container_raw) - 1):
            with pytest.raises(FormatError):
                ContainerReader(io.BytesIO(container_raw[:cut]))

    def test_every_single_byte_flip_raises(self, container_raw):
        # The checksummed layout leaves no blind spots: flip any byte and
        # full materialization must raise a controlled error.
        rng = np.random.default_rng(11)
        for pos in rng.integers(0, len(container_raw), size=60):
            corrupted = bytearray(container_raw)
            corrupted[int(pos)] ^= 0xFF
            with pytest.raises(ReproError):
                CompressedHierarchy.frombytes(bytes(corrupted))


def _rewrite_index(raw: bytes, mutate) -> bytes:
    """Apply ``mutate`` to the parsed index and re-seal it with a valid
    crc/footer — simulating a hostile-but-checksummed index."""
    off, length, _, _ = struct.unpack_from("<QQI8s", raw, len(raw) - 28)
    index = json.loads(raw[off : off + length])
    mutate(index)
    new_index = json.dumps(index, separators=(",", ":")).encode()
    footer = struct.pack("<QQI8s", off, len(new_index), zlib.crc32(new_index), b"RPH2-IDX")
    return raw[:off] + new_index + footer


class TestHostileIndex:
    def test_out_of_range_level_rejected(self, container_raw):
        bad = _rewrite_index(container_raw, lambda idx: idx["entries"][0].__setitem__(0, 9))
        with pytest.raises(FormatError, match="out-of-range level"):
            ContainerReader(io.BytesIO(bad))

    def test_negative_level_rejected(self, container_raw):
        # Negative levels must not silently index from the end.
        bad = _rewrite_index(container_raw, lambda idx: idx["entries"][0].__setitem__(0, -1))
        with pytest.raises(FormatError, match="out-of-range level"):
            ContainerReader(io.BytesIO(bad))

    def test_entry_past_payload_rejected(self, container_raw):
        bad = _rewrite_index(
            container_raw, lambda idx: idx["entries"][-1].__setitem__(4, 10**9)
        )
        with pytest.raises(FormatError, match="outside the payload"):
            ContainerReader(io.BytesIO(bad))

    def test_negative_length_rejected(self, container_raw):
        bad = _rewrite_index(
            container_raw, lambda idx: idx["entries"][0].__setitem__(4, -5)
        )
        with pytest.raises(FormatError, match="malformed"):
            ContainerReader(io.BytesIO(bad))

    def test_missing_meta_key_rejected(self, container_raw):
        bad = _rewrite_index(container_raw, lambda idx: idx.pop("codec"))
        with pytest.raises(FormatError, match="malformed container index"):
            ContainerReader(io.BytesIO(bad))

    def test_short_entry_row_rejected(self, container_raw):
        bad = _rewrite_index(
            container_raw, lambda idx: idx["entries"].__setitem__(0, [0, "f"])
        )
        with pytest.raises(FormatError, match="malformed container index"):
            ContainerReader(io.BytesIO(bad))


class TestUnknownCodec:
    def _container_with_codec_name(self, name: str) -> bytes:
        codec_stream = b"RPRC" + b"\x00" * 16  # never decoded: crc passes
        meta = {
            "codec": name, "error_bound": 1e-3, "mode": "rel",
            "fields": ["f"], "exclude_covered": False, "original_bytes": 100,
        }
        return pack_container(meta, [{"f": [codec_stream]}])

    def test_unknown_codec_names_patch_and_codec(self):
        raw = self._container_with_codec_name("sz-9000")
        with pytest.raises(CompressionError) as err:
            decompress_selection(raw)
        msg = str(err.value)
        assert "sz-9000" in msg
        assert "level=0" in msg and "patch=0" in msg

    def test_index_metadata_still_inspectable(self):
        # The index parses fine — only decoding the stream fails.
        raw = self._container_with_codec_name("sz-9000")
        reader = ContainerReader(io.BytesIO(raw))
        assert reader.codec == "sz-9000"
        assert len(reader.entries) == 1


class TestLegacyRejection:
    """RPRH is no longer parsed at all: whatever follows the magic —
    garbage, truncation, or a perfectly valid legacy header — the answer
    is the same clear unsupported-legacy-magic error."""

    @pytest.mark.parametrize(
        "raw",
        [
            b"RPRH" + b"\xff" * 40,
            b"RPRH\x10",
            b"RPRH" + struct.pack("<I", 18) + json.dumps({"codec": "sz-lr"}).encode(),
        ],
        ids=["garbage", "truncated", "valid-legacy-header"],
    )
    def test_legacy_magic_always_rejected(self, raw):
        with pytest.raises(FormatError, match="unsupported legacy magic"):
            CompressedHierarchy.frombytes(raw)
