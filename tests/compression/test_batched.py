"""Grouped runs of patches: grouped streams, shared codebooks.

Covers ``compress_hierarchy``'s runs end to end: decoded values equal to
one-at-a-time ``compress`` under the error bound, ``batch="level"`` as the
same container as ``batch="patch"``, the grouped container layout
(``RPGB`` sections + extended index), O(selection) random access, byte
identity across execution modes, the corruption suite for doctored group
sections, and the group-aware ``decompress_block`` fast path.
"""

from __future__ import annotations

import json
import struct
import zlib

import numpy as np
import pytest

from repro.amr.box import Box
from repro.amr.boxarray import BoxArray
from repro.amr.hierarchy import AMRHierarchy
from repro.amr.level import AMRLevel
from repro.amr.patch import Patch
from repro.compression import amr_codec, huffman
from repro.compression.amr_codec import (
    CompressedHierarchy,
    compress_hierarchy,
    decompress_hierarchy,
    decompress_selection,
)
from repro.compression.base import GROUPED_STAGE, SharedEntropy, StreamReader
from repro.compression.container import (
    GROUP_MAGIC,
    ContainerReader,
    pack_group,
)
from repro.compression.amr_codec import resolve_patch_codec
from repro.compression.sz_lr import SZLR
from repro.errors import CompressionError, FormatError
from repro.parallel import WorkerPool


def many_patch_hierarchy(
    n_patches: tuple[int, int, int] = (3, 3, 2),
    ps: int = 16,
    sigma: float = 0.05,
    seed: int = 0,
    field: str = "density",
) -> AMRHierarchy:
    """Single-level hierarchy tiled with ``ps``-cube patches."""
    rng = np.random.default_rng(seed)
    nx, ny, nz = n_patches
    grids = np.meshgrid(*[np.linspace(0.0, 1.0, ps)] * 3, indexing="ij")
    base = np.sin(6 * grids[0]) * np.cos(5 * grids[1]) + grids[2] ** 2
    boxes, patches = [], []
    for i in range(nx):
        for j in range(ny):
            for k in range(nz):
                box = Box.from_shape((ps,) * 3, lo=(i * ps, j * ps, k * ps))
                boxes.append(box)
                data = base + sigma * rng.standard_normal((ps,) * 3) + 0.1 * (i + j + k)
                patches.append(Patch(box, data))
    level = AMRLevel(0, BoxArray(boxes), (1.0,) * 3, {field: patches})
    domain = Box.from_shape((nx * ps, ny * ps, nz * ps))
    return AMRHierarchy(domain, [level], 2)


@pytest.fixture(scope="module")
def hierarchy():
    return many_patch_hierarchy()


@pytest.fixture(scope="module", params=["sz-lr", "sz-interp"])
def codec_name(request):
    return request.param


@pytest.fixture(scope="module")
def grouped(hierarchy):
    return compress_hierarchy(hierarchy, "sz-lr", 1e-3, fields=["density"])


class TestBatchedEquivalence:
    def test_bound_holds_and_matches_per_patch(self, hierarchy, codec_name):
        """Grouped runs obey the per-patch-resolved rel bound and decode bit
        for bit to one-at-a-time ``compress`` streams."""
        bat = compress_hierarchy(hierarchy, codec_name, 1e-3, fields=["density"])
        assert bat.group_entries, "runs of patches should produce shared-codebook groups"
        codec = resolve_patch_codec(codec_name)
        dec_bat = bat.select()
        for p_idx, patch in enumerate(hierarchy[0].patches("density")):
            eb = 1e-3 * (patch.data.max() - patch.data.min())
            key = (0, "density", p_idx)
            assert np.abs(dec_bat[key] - patch.data).max() <= eb * (1 + 1e-12)
            alone = codec.decompress(codec.compress(patch.data, 1e-3, "rel"))
            assert np.array_equal(dec_bat[key], alone)

    @pytest.mark.parametrize("name", ["sz-lr", "sz-interp"])
    @pytest.mark.parametrize("exclude_covered", [False, True])
    def test_level_writes_the_patch_container(self, name, exclude_covered):
        """``batch="level"`` no longer selects a path: it writes the bytes of
        ``batch="patch"`` for every codec."""
        from tests.compression.test_stacked import many_patch_hierarchy

        h = many_patch_hierarchy()
        level, patch = (
            compress_hierarchy(h, name, 1e-3, batch=batch, exclude_covered=exclude_covered)
            for batch in ("level", "patch")
        )
        assert level.tobytes() == patch.tobytes()
        assert level.group_entries

    def test_grouped_streams_record_stage_and_member(self, grouped):
        members = [e for e in grouped.entries if e.group is not None]
        assert members
        for entry in members:
            reader = StreamReader(grouped.read_stream(entry))
            assert reader.params["entropy"] == GROUPED_STAGE
            assert reader.params["group_member"] == entry.member
            assert 0 <= entry.group < len(grouped.group_entries)

    def test_batched_smaller_than_per_patch(self, hierarchy, grouped):
        """Shared codebooks amortize header bytes: the grouped container
        should not be larger than the one-at-a-time streams on small
        patches."""
        codec = resolve_patch_codec("sz-lr")
        alone = sum(len(codec.compress(p.data, 1e-3, "rel")) for p in hierarchy[0].patches("density"))
        assert grouped.compressed_bytes <= alone * 1.02

    def test_decompress_hierarchy_grouped(self, hierarchy, grouped):
        restored = decompress_hierarchy(grouped, hierarchy)
        for p_idx, patch in enumerate(hierarchy[0].patches("density")):
            eb = 1e-3 * (patch.data.max() - patch.data.min())
            out = restored[0].patches("density")[p_idx].data
            assert np.abs(out - patch.data).max() <= eb * (1 + 1e-12)

    def test_unknown_batch_value_is_refused(self, hierarchy):
        with pytest.raises(CompressionError, match="batch mode"):
            compress_hierarchy(
                hierarchy, "sz-lr", 1e-3, fields=["density"], batch="bogus"
            )

    def test_batch_of_single_cell_patches(self):
        """Patches that produce zero interpolation codes (1-cell arrays)
        batch through the deflate fallback instead of crashing (review
        regression)."""
        from repro.compression.sz_interp import SZInterp

        codec = SZInterp()
        batch = np.ones((4, 1, 1, 1)) * np.arange(1, 5)[:, None, None, None]
        result = codec.compress_batch(batch, 1e-3, "rel")
        assert result.codebook is None  # fallback: self-contained streams
        for i, stream in enumerate(result.streams):
            out = codec.decompress(stream)
            assert np.abs(out - batch[i]).max() <= 1e-3

    @pytest.mark.parametrize("name", ["sz-lr", "sz-interp"])
    def test_mixed_shapes_share_one_run_group(self, name):
        """Patches of different shapes in one (level, field) run share one
        group — the run, not the shape, decides it — all decodable."""
        rng = np.random.default_rng(3)
        boxes = [
            Box.from_shape((8, 8, 8), lo=(0, 0, 0)),
            Box.from_shape((8, 8, 8), lo=(8, 0, 0)),
            Box.from_shape((16, 8, 8), lo=(0, 8, 0)),
            Box.from_shape((16, 8, 8), lo=(0, 16, 0)),
        ]
        patches = [Patch(b, rng.standard_normal(b.shape)) for b in boxes]
        level = AMRLevel(0, BoxArray(boxes), (1.0,) * 3, {"f": patches})
        h = AMRHierarchy(Box.from_shape((16, 24, 8)), [level], 2)
        bat = compress_hierarchy(h, name, 1e-3, fields=["f"])
        assert len(bat.group_entries) == 1
        assert [e.member for e in bat.entries] == [0, 1, 2, 3]
        dec = bat.select()
        for p_idx, patch in enumerate(patches):
            eb = 1e-3 * (patch.data.max() - patch.data.min())
            assert np.abs(dec[(0, "f", p_idx)] - patch.data).max() <= eb * (1 + 1e-12)


class TestBatchedDeterminism:
    def test_byte_identical_across_modes(self, hierarchy):
        """Serial, thread, and process execution produce identical grouped
        container bytes (acceptance criterion)."""
        blobs = {}
        for mode in ("serial", "thread", "process"):
            with WorkerPool(mode, workers=3) as pool:
                blobs[mode] = compress_hierarchy(
                    hierarchy, "sz-lr", 1e-3, fields=["density"], pool=pool,
                ).tobytes()
        assert blobs["serial"] == blobs["thread"] == blobs["process"]

    def test_select_identical_across_modes(self, grouped):
        base = grouped.select()
        for mode in ("thread", "process"):
            with WorkerPool(mode, workers=3) as pool:
                other = grouped.select(pool=pool)
            assert set(base) == set(other)
            for key in base:
                assert np.array_equal(base[key], other[key])


class TestGroupedContainer:
    def test_roundtrip_bytes(self, grouped):
        raw = grouped.tobytes()
        back = CompressedHierarchy.frombytes(raw)
        assert back.group_entries == grouped.group_entries
        assert back.entries == grouped.entries
        assert back.tobytes() == raw

    def test_reader_modes_agree(self, grouped, tmp_path):
        raw = grouped.tobytes()
        path = tmp_path / "grouped.rprh"
        path.write_bytes(raw)
        in_mem = grouped.select()
        for source in (raw, path):
            out = decompress_selection(source)
            assert set(out) == set(in_mem)
            for key in out:
                assert np.array_equal(out[key], in_mem[key])
        with ContainerReader.open(path, mmap=True) as reader:
            out = reader.select()
            for key in out:
                assert np.array_equal(out[key], in_mem[key])

    def test_single_patch_selection(self, grouped):
        raw = grouped.tobytes()
        full = grouped.select()
        one = decompress_selection(raw, levels=0, patches=7)
        assert list(one) == [(0, "density", 7)]
        assert np.array_equal(one[(0, "density", 7)], full[(0, "density", 7)])

    def test_selection_process_mode(self, grouped):
        raw = grouped.tobytes()
        full = grouped.select()
        with WorkerPool("process", workers=2) as pool:
            out = decompress_selection(raw, patches=[0, 3], pool=pool)
        for key, arr in out.items():
            assert np.array_equal(arr, full[key])

    def test_compressed_bytes_counts_groups(self, grouped):
        reader = ContainerReader(grouped.tobytes())
        assert reader.group_entries
        assert reader.compressed_bytes == grouped.compressed_bytes

    def test_stream_alone_refuses_decode(self, grouped):
        """A grouped stream without its group section names the problem."""
        blob = grouped.read_stream(grouped.entry(0, "density", 0))
        with pytest.raises(Exception, match="grouped"):
            SZLR().decompress(blob)


def _doctor(raw: bytes, offset: int, payload: bytes) -> bytes:
    out = bytearray(raw)
    out[offset : offset + len(payload)] = payload
    return bytes(out)


class TestGroupedCorruption:
    @pytest.fixture()
    def raw_and_reader(self, grouped):
        raw = grouped.tobytes()
        return raw, ContainerReader(raw)

    def test_truncated_shared_codebook(self, raw_and_reader):
        """A codebook_length running past the section end is rejected even
        with crc verification off (structural validation)."""
        raw, reader = raw_and_reader
        g = reader.group_entries[0]
        bad = _doctor(raw, g.offset + 8, struct.pack("<I", g.length))
        with pytest.raises(FormatError, match="truncated shared codebook|checksum"):
            ContainerReader(bad).select(patches=0, verify=False)

    def test_extent_past_group_end(self, raw_and_reader):
        """A member extent pointing past the payload region is rejected."""
        raw, reader = raw_and_reader
        g = reader.group_entries[0]
        handle = reader.group(g.gid)
        # stored (wrapped) codebook length lives in the section prefix
        (cb_len,) = struct.unpack_from("<I", raw, g.offset + 8)
        first_extent = g.offset + 20 + cb_len
        bad = _doctor(
            raw, first_extent, struct.pack("<QQ", 0, handle.payload_len + 9)
        )
        with pytest.raises(FormatError, match="past the group payload end|checksum"):
            ContainerReader(bad).select(patches=0, verify=False)

    def test_patch_count_mismatch(self, raw_and_reader):
        """Group header n_patches disagreeing with the index's references
        is corruption."""
        raw, reader = raw_and_reader
        g = reader.group_entries[0]
        n = reader.group(g.gid).n_patches
        bad = _doctor(raw, g.offset + 4, struct.pack("<I", n - 1))
        with pytest.raises(FormatError, match="patch-count mismatch|member|checksum"):
            ContainerReader(bad).select(verify=False)

    def test_header_crc_detects_doctoring(self, raw_and_reader):
        raw, reader = raw_and_reader
        g = reader.group_entries[0]
        bad = _doctor(raw, g.offset + 21, b"\xff")  # flip a codebook byte
        with pytest.raises(FormatError, match="checksum|codebook"):
            ContainerReader(bad).select(patches=0)

    def test_payload_crc_detects_doctoring(self, raw_and_reader):
        raw, reader = raw_and_reader
        g = reader.group_entries[0]
        handle = reader.group(g.gid)
        payload_start = g.offset + handle.header_len
        bad = bytearray(raw)
        bad[payload_start] ^= 0xFF
        with pytest.raises(FormatError, match="checksum"):
            ContainerReader(bytes(bad)).select(patches=0)

    def test_frombytes_checks_every_member_payload(self, raw_and_reader):
        """Parsing outside bytes is checked in full: a payload byte of the
        last member of the last group fails ``frombytes`` itself."""
        raw, reader = raw_and_reader
        g = reader.group_entries[-1]
        handle = reader.group(g.gid)
        rel, length, _ = handle.member_extent(handle.n_patches - 1)
        bad = bytearray(raw)
        bad[g.offset + handle.header_len + rel + length - 1] ^= 0xFF
        with pytest.raises(FormatError, match="checksum mismatch in member"):
            CompressedHierarchy.frombytes(bytes(bad))

    def test_unknown_group_reference(self, grouped):
        raw = grouped.tobytes()
        off, length, _, _ = struct.unpack_from("<QQI8s", raw, len(raw) - 28)
        index = json.loads(raw[off : off + length])
        assert len(index["entries"][0]) == 9  # (0, "density", 0) is grouped
        index["entries"][0][7] = 99
        forged = json.dumps(index, separators=(",", ":")).encode()
        footer = struct.pack("<QQI8s", off, len(forged), zlib.crc32(forged), b"RPH2-IDX")
        raw = raw[:off] + forged + footer
        with pytest.raises(FormatError, match="unknown group"):
            ContainerReader(raw)

    def test_unverified_access_does_not_poison_cache(self, raw_and_reader):
        """A verify=False read must not exempt later verify=True reads
        from the group-header crc check (review regression). The doctored
        byte is an extent-table crc field: structurally valid, so the
        unverified read succeeds and caches the handle."""
        raw, reader = raw_and_reader
        g = reader.group_entries[0]
        (cb_len,) = struct.unpack_from("<I", raw, g.offset + 8)
        crc_field = g.offset + 20 + cb_len + 1 * 20 + 16
        bad = _doctor(raw, crc_field, b"\xaa\xbb\xcc\xdd")
        tampered = ContainerReader(bad)
        assert tampered.select(patches=0, verify=False)  # caches the handle
        with pytest.raises(FormatError, match="checksum"):
            tampered.read_patch(0, "density", 1, verify=True)

    def test_group_magic_checked(self, raw_and_reader):
        raw, reader = raw_and_reader
        g = reader.group_entries[0]
        bad = _doctor(raw, g.offset, b"XXXX")
        with pytest.raises(FormatError, match="bad magic"):
            ContainerReader(bad).select(patches=0, verify=False)

    def test_pack_group_rejects_empty(self):
        with pytest.raises(CompressionError):
            pack_group(b"HUFBxxxx", [])

    def test_ungrouped_container_unchanged(self, hierarchy, monkeypatch):
        """Containers without shared codebooks (every run one patch long)
        carry no group table and keep 7-column entries — the pre-group byte
        format."""
        import json

        monkeypatch.setattr(amr_codec, "RUN_CELL_BUDGET", 1)
        per = compress_hierarchy(hierarchy, "sz-lr", 1e-3, fields=["density"])
        reader = ContainerReader(per.tobytes())
        assert reader.group_entries == []
        raw = per.tobytes()
        # locate the index via the footer and check its schema directly
        idx_off, idx_len, _, magic = struct.unpack("<QQI8s", raw[-28:])
        index = json.loads(raw[idx_off : idx_off + idx_len])
        assert "groups" not in index
        assert all(len(row) == 7 for row in index["entries"])


class TestGroupedBlockDecode:
    def test_decompress_block_uses_only_member_payload(self, hierarchy, monkeypatch):
        """Block random access on a grouped stream decodes one patch's
        payload, not the whole group: the per-patch extents keep the
        symbol count at one patch's codes (regression for the fused
        layout)."""
        bat = compress_hierarchy(
            hierarchy, "sz-lr", 1e-3, fields=["density"]
        )
        reader = ContainerReader(bat.tobytes())
        entry = reader.entry(0, "density", 2)
        blob = reader.read_stream(entry)
        shared = reader._entry_shared(entry)

        decoded_counts: list[int] = []
        orig = huffman.decode_many

        def counting(payloads, codebooks=None):
            out = orig(payloads, codebooks)
            decoded_counts.extend(codes.size for codes in out)
            return out

        monkeypatch.setattr(huffman, "decode_many", counting)
        codec = SZLR(block_size="auto")
        block = codec.decompress_block(blob, 1, shared=shared)
        assert block.ndim == 3
        handle = reader.group(entry.group)
        n_patches = handle.n_patches
        assert n_patches >= 2
        patch_cells = 16**3
        assert decoded_counts == [patch_cells], (
            "block decode must read exactly the owning patch's code symbols"
        )
        # ... which is strictly fewer than a whole-group decode would be.
        assert decoded_counts[0] < n_patches * patch_cells

    def test_block_matches_full_decode(self, hierarchy):
        bat = compress_hierarchy(
            hierarchy, "sz-lr", 1e-3, fields=["density"]
        )
        reader = ContainerReader(bat.tobytes())
        entry = reader.entry(0, "density", 4)
        blob = reader.read_stream(entry)
        shared = reader._entry_shared(entry)
        codec = SZLR(block_size="auto")
        full = codec.decompress(blob, shared=reader._entry_shared(entry))
        stream = StreamReader(blob)
        bs = int(stream.params["block_size"])
        block0 = codec.decompress_block(blob, 0, shared=shared)
        assert np.array_equal(block0, full[:bs, :bs, :bs])


class TestPoolIntegration:
    @pytest.mark.parametrize("workers", [3, 8])
    def test_compress_hierarchy_with_pool(self, hierarchy, workers):
        serial = compress_hierarchy(
            hierarchy, "sz-lr", 1e-3, fields=["density"]
        ).tobytes()
        with WorkerPool("thread", workers=workers) as pool:
            for _ in range(2):  # reused across calls
                out = compress_hierarchy(
                    hierarchy, "sz-lr", 1e-3, fields=["density"],
                    pool=pool,
                ).tobytes()
                assert out == serial
            assert not pool.closed

    def test_decompress_selection_with_pool(self, grouped):
        raw = grouped.tobytes()
        base = decompress_selection(raw)
        with WorkerPool("thread", workers=2) as pool:
            out = decompress_selection(raw, pool=pool)
        assert set(out) == set(base)
        for key in out:
            assert np.array_equal(out[key], base[key])

    def test_streaming_writer_shared_pool(self, hierarchy, tmp_path):
        """A shared WorkerPool pipelines the writer across steps and stays
        open after close(); output matches the inline writer byte for byte."""
        from repro.insitu.writer import StreamingWriter

        own = tmp_path / "own.rph2s"
        shared = tmp_path / "shared.rph2s"
        with StreamingWriter.create(own, "sz-lr", 1e-3) as w:
            w.append_step(hierarchy, time=0.0)
            w.append_step(hierarchy, time=1.0)
        with WorkerPool("thread", workers=2) as pool:
            with StreamingWriter.create(shared, "sz-lr", 1e-3, pool=pool) as w:
                w.append_step(hierarchy, time=0.0)
                w.append_step(hierarchy, time=1.0)
            assert not pool.closed  # writer must not shut a shared pool down
            # and the pool is still usable afterwards
            assert pool.map(len, [b"ab", b"abc"]) == [2, 3]
        assert own.read_bytes() == shared.read_bytes()

    def test_streaming_writer_rejects_closed_pool(self, tmp_path):
        from repro.insitu.writer import StreamingWriter

        pool = WorkerPool("thread", workers=1)
        pool.close()
        with pytest.raises(CompressionError, match="closed"):
            StreamingWriter.create(tmp_path / "x.rph2s", "sz-lr", 1e-3, pool=pool)


class TestSharedCodebookUnit:
    def test_hufb_roundtrip(self):
        rng = np.random.default_rng(0)
        codes = np.rint(rng.standard_normal((4, 512)) * 9).astype(np.int64)
        cb = huffman.SharedCodebook.from_symbols(codes)
        back = huffman.SharedCodebook.frombytes(cb.tobytes())
        assert np.array_equal(back.alphabet, cb.alphabet)
        assert np.array_equal(back.lengths, cb.lengths)

    def test_encode_batch_rows_match_single(self):
        rng = np.random.default_rng(1)
        codes = np.rint(rng.standard_normal((6, 4096)) * 25).astype(np.int64)
        cb, inv = huffman.SharedCodebook.from_symbols_with_inverse(codes)
        batch = huffman.encode_batch(codes, cb, inverse=inv)
        for row, payload in zip(codes, batch):
            assert huffman.encode_batch(row[None, :], cb)[0] == payload
            assert np.array_equal(huffman.decode_many([payload], [cb])[0], row)

    def test_symbols_outside_alphabet_rejected(self):
        cb = huffman.SharedCodebook.from_symbols(np.arange(16))
        with pytest.raises(CompressionError, match="outside the shared codebook"):
            huffman.encode_batch(np.array([999])[None, :], cb)[0]

    def test_hufs_not_self_decodable(self):
        cb = huffman.SharedCodebook.from_symbols(np.arange(16))
        payload = huffman.encode_batch(np.arange(16)[None, :], cb)[0]
        with pytest.raises(Exception, match="shared-codebook payloads carry no alphabet"):
            huffman.decode_many([payload])[0]

    def test_corrupt_codebook_rejected(self):
        cb = huffman.SharedCodebook.from_symbols(np.arange(16))
        blob = bytearray(cb.tobytes())
        with pytest.raises(Exception, match="magic"):
            huffman.SharedCodebook.frombytes(b"NOPE" + bytes(blob[4:]))
        with pytest.raises(Exception, match="truncated"):
            huffman.SharedCodebook.frombytes(bytes(blob[:10]))

    def test_degenerate_single_symbol_group(self):
        codes = np.zeros((3, 64), dtype=np.int64)
        cb = huffman.SharedCodebook.from_symbols(codes)
        for payload in huffman.encode_batch(codes, cb):
            assert np.array_equal(
                huffman.decode_many([payload], [cb])[0], np.zeros(64, np.int64)
            )

    def test_shared_entropy_resolves_raw_bytes(self):
        """Raw ``HUFB`` bytes (what a process-mode worker is sent) decode
        like the parsed codebook, parsed once for the members of a call."""
        from repro.compression.base import GROUPED_STAGE, decode_codes
        from repro.compression.lossless import compress_bytes

        codes = np.arange(16).reshape(2, 8) % 8
        cb = huffman.SharedCodebook.from_symbols(codes)
        shareds = [
            SharedEntropy(cb.tobytes(), compress_bytes(payload, "none"))
            for payload in huffman.encode_batch(codes, cb)
        ]
        out = decode_codes([None, None], [GROUPED_STAGE] * 2, shareds, [8, 8])
        assert np.array_equal(out, codes)
