"""Level-batched fused compression: grouped streams, shared codebooks.

Covers the ``compress_hierarchy(..., batch="level")`` path end to end:
per-patch vs batched value equivalence under the error bound, the grouped
container layout (``RPGB`` sections + extended index), O(selection) random
access, byte identity across execution modes, the corruption suite for
doctored group sections, and the group-aware ``decompress_block`` fast
path.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np
import pytest

from repro.amr.box import Box
from repro.amr.boxarray import BoxArray
from repro.amr.hierarchy import AMRHierarchy
from repro.amr.level import AMRLevel
from repro.amr.patch import Patch
from repro.compression import huffman
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
    pack_container,
    pack_group,
)
from repro.compression.registry import codec_supports_batch
from repro.compression.sz_lr import SZLR
from repro.errors import CompressionError, FormatError


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
    return compress_hierarchy(
        hierarchy, "sz-lr", 1e-3, fields=["density"], batch="level"
    )


class TestBatchedEquivalence:
    def test_bound_holds_and_matches_per_patch(self, hierarchy, codec_name):
        """Batched output obeys the per-patch-resolved rel bound, and stays
        within 2*eb of the per-patch path's reconstruction (same math,
        kernel-batched)."""
        per = compress_hierarchy(hierarchy, codec_name, 1e-3, fields=["density"])
        bat = compress_hierarchy(
            hierarchy, codec_name, 1e-3, fields=["density"], batch="level"
        )
        assert bat.groups, "level batching should produce shared-codebook groups"
        dec_per = per.select()
        dec_bat = bat.select()
        for p_idx, patch in enumerate(hierarchy[0].patches("density")):
            eb = 1e-3 * (patch.data.max() - patch.data.min())
            key = (0, "density", p_idx)
            assert np.abs(dec_bat[key] - patch.data).max() <= eb * (1 + 1e-12)
            assert np.abs(dec_bat[key] - dec_per[key]).max() <= 2 * eb

    def test_grouped_streams_record_stage_and_member(self, grouped):
        for key, (gid, member) in grouped.stream_groups.items():
            lev, field, p_idx = key
            reader = StreamReader(grouped.streams[lev][field][p_idx])
            assert reader.params["entropy"] == GROUPED_STAGE
            assert reader.params["group_member"] == member
            assert 0 <= gid < len(grouped.groups)

    def test_batched_smaller_than_per_patch(self, hierarchy):
        """Shared codebooks amortize header bytes: the grouped container
        should not be larger than the per-patch one on small patches."""
        per = compress_hierarchy(hierarchy, "sz-lr", 1e-3, fields=["density"])
        bat = compress_hierarchy(
            hierarchy, "sz-lr", 1e-3, fields=["density"], batch="level"
        )
        assert bat.compressed_bytes <= per.compressed_bytes * 1.02

    def test_decompress_hierarchy_grouped(self, hierarchy, grouped):
        restored = decompress_hierarchy(grouped, hierarchy)
        for p_idx, patch in enumerate(hierarchy[0].patches("density")):
            eb = 1e-3 * (patch.data.max() - patch.data.min())
            out = restored[0].patches("density")[p_idx].data
            assert np.abs(out - patch.data).max() <= eb * (1 + 1e-12)

    def test_exclude_covered_batched(self):
        """Two-level hierarchy with the covered-cell fill: the batched path
        mirrors the per-patch bound-resolve-then-fill ordering."""
        from repro.sims import NyxConfig
        from repro.sims.nyx import nyx_multilevel_hierarchy

        h = nyx_multilevel_hierarchy(NyxConfig(coarse_n=16), levels=2, fractions=(0.4,))
        per = compress_hierarchy(
            h, "sz-lr", 1e-3, fields=["baryon_density"], exclude_covered=True
        )
        bat = compress_hierarchy(
            h, "sz-lr", 1e-3, fields=["baryon_density"], exclude_covered=True,
            batch="level",
        )
        dp = per.select()
        db = bat.select()
        assert set(dp) == set(db)
        for key in dp:
            scale = max(np.abs(dp[key]).max(), 1.0)
            assert np.abs(dp[key] - db[key]).max() <= 1e-6 * scale or np.allclose(
                dp[key], db[key], atol=4e-3 * scale
            )

    def test_unsupported_codec_raises(self, hierarchy):
        with pytest.raises(CompressionError, match="level-batched"):
            compress_hierarchy(
                hierarchy, "zfp-like", 1e-3, fields=["density"], batch="level"
            )
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

    def test_registry_reports_batch_support(self):
        assert codec_supports_batch("sz-lr")
        assert codec_supports_batch("sz-interp")
        assert not codec_supports_batch("zfp-like")

    def test_mixed_shapes_form_separate_groups(self):
        """Patches of different shapes in one (level, field) land in
        distinct groups, all decodable."""
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
        bat = compress_hierarchy(h, "sz-lr", 1e-3, fields=["f"], batch="level")
        assert len(bat.groups) == 2
        dec = bat.select()
        for p_idx, patch in enumerate(patches):
            eb = 1e-3 * (patch.data.max() - patch.data.min())
            assert np.abs(dec[(0, "f", p_idx)] - patch.data).max() <= eb * (1 + 1e-12)


class TestBatchedDeterminism:
    def test_byte_identical_across_modes(self, hierarchy):
        """Serial, thread, and process execution produce identical grouped
        container bytes (acceptance criterion)."""
        blobs = {
            mode: compress_hierarchy(
                hierarchy, "sz-lr", 1e-3, fields=["density"], batch="level",
                parallel=mode, workers=3,
            ).tobytes()
            for mode in ("serial", "thread", "process")
        }
        assert blobs["serial"] == blobs["thread"] == blobs["process"]

    def test_select_identical_across_modes(self, grouped):
        base = grouped.select()
        for mode in ("thread", "process"):
            other = grouped.select(parallel=mode, workers=3)
            assert set(base) == set(other)
            for key in base:
                assert np.array_equal(base[key], other[key])


class TestGroupedContainer:
    def test_roundtrip_bytes(self, grouped):
        raw = grouped.tobytes()
        back = CompressedHierarchy.frombytes(raw)
        assert back.groups == grouped.groups
        assert back.stream_groups == grouped.stream_groups
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
        out = decompress_selection(raw, patches=[0, 3], parallel="process", workers=2)
        for key, arr in out.items():
            assert np.array_equal(arr, full[key])

    def test_compressed_bytes_counts_groups(self, grouped):
        reader = ContainerReader(grouped.tobytes())
        assert reader.group_entries
        assert reader.compressed_bytes == grouped.compressed_bytes

    def test_stream_alone_refuses_decode(self, grouped):
        """A grouped stream without its group section names the problem."""
        blob = grouped.streams[0]["density"][0]
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

    def test_unknown_group_reference(self, grouped):
        raw = pack_container(
            grouped._meta(),
            grouped.streams,
            groups=grouped.groups,
            stream_groups={(0, "density", 0): (99, 0)},
        )
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

    def test_ungrouped_container_unchanged(self, hierarchy):
        """Per-patch containers carry no group table and keep 7-column
        entries — the pre-group byte format."""
        import json

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
            hierarchy, "sz-lr", 1e-3, fields=["density"], batch="level"
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
            hierarchy, "sz-lr", 1e-3, fields=["density"], batch="level"
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
        from repro.parallel import WorkerPool

        serial = compress_hierarchy(
            hierarchy, "sz-lr", 1e-3, fields=["density"], batch="level"
        ).tobytes()
        with WorkerPool("thread", workers=workers) as pool:
            for _ in range(2):  # reused across calls
                out = compress_hierarchy(
                    hierarchy, "sz-lr", 1e-3, fields=["density"], batch="level",
                    pool=pool,
                ).tobytes()
                assert out == serial
            assert not pool.closed

    def test_decompress_selection_with_pool(self, grouped):
        from repro.parallel import WorkerPool

        raw = grouped.tobytes()
        base = decompress_selection(raw)
        with WorkerPool("thread", workers=2) as pool:
            out = decompress_selection(raw, pool=pool)
        assert set(out) == set(base)
        for key in out:
            assert np.array_equal(out[key], base[key])

    def test_streaming_writer_shared_pool(self, hierarchy, tmp_path):
        """A shared WorkerPool pipelines the writer across steps and stays
        open after close(); output matches the writer-owned-executor path
        byte for byte."""
        from repro.insitu.writer import StreamingWriter
        from repro.parallel import WorkerPool

        own = tmp_path / "own.rph2s"
        shared = tmp_path / "shared.rph2s"
        with StreamingWriter.create(own, "sz-lr", 1e-3, parallel="thread", workers=2) as w:
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
        from repro.parallel import WorkerPool

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
