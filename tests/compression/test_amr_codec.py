"""Tests for AMR-aware hierarchy compression."""

from __future__ import annotations

import io

import numpy as np
import pytest

from repro.amr import flatten_to_uniform
from repro.amr.hierarchy import AMRHierarchy
from repro.compression.amr_codec import (
    CompressedHierarchy,
    average_down,
    compress_hierarchy,
    decompress_hierarchy,
    decompress_selection,
    resolve_patch_codec,
)
from repro.compression.base import StreamReader
from repro.compression.container import ContainerReader
from repro.errors import CompressionError
from tests.conftest import CountingBytesIO
from tests.strategies import make_sphere_hierarchy


class TestRoundtrip:
    @pytest.mark.parametrize("codec", ["sz-lr", "sz-interp"])
    def test_error_bound_per_patch(self, sphere_hierarchy, codec):
        container = compress_hierarchy(sphere_hierarchy, codec, 1e-3, mode="rel")
        out = decompress_hierarchy(container, sphere_hierarchy)
        for lev_o, lev_r in zip(sphere_hierarchy, out):
            for p, q in zip(lev_o.patches("f"), lev_r.patches("f")):
                eb = 1e-3 * (p.data.max() - p.data.min())
                assert np.abs(p.data - q.data).max() <= eb * (1 + 1e-9)

    def test_ratio_positive(self, sphere_hierarchy):
        container = compress_hierarchy(sphere_hierarchy, "sz-lr", 1e-2)
        assert container.ratio > 1.0

    def test_field_subset(self, multi_field_hierarchy):
        container = compress_hierarchy(multi_field_hierarchy, "sz-lr", 1e-3, fields=["a"])
        out = decompress_hierarchy(container, multi_field_hierarchy)
        # Field b copied from template verbatim.
        assert np.array_equal(
            out[0].patches("b")[0].data, multi_field_hierarchy[0].patches("b")[0].data
        )

    def test_unknown_field_rejected(self, sphere_hierarchy):
        with pytest.raises(CompressionError):
            compress_hierarchy(sphere_hierarchy, "sz-lr", 1e-3, fields=["nope"])

    @pytest.mark.parametrize("batch", ["patch", "level"])
    def test_repeated_field_rejected_by_name(self, sphere_hierarchy, batch):
        """A repeated name once wrote phantom patches (or orphan groups)
        and doubled ``original_bytes``."""
        with pytest.raises(CompressionError, match="field 'f' more than once"):
            compress_hierarchy(sphere_hierarchy, "sz-lr", 1e-3, fields=["f", "f"], batch=batch)

    def test_empty_field_list_rejected(self, sphere_hierarchy):
        """An empty list once gave a container whose ``ratio`` divided by zero."""
        with pytest.raises(CompressionError, match="fields= is empty"):
            compress_hierarchy(sphere_hierarchy, "sz-lr", 1e-3, fields=[])

    def test_codec_instance_accepted(self, sphere_hierarchy):
        from repro.compression.sz_lr import SZLR

        container = compress_hierarchy(sphere_hierarchy, SZLR(block_size=4), 1e-3)
        out = decompress_hierarchy(container, sphere_hierarchy)
        assert out.n_levels == 2


class TestExcludeCovered:
    def test_improves_ratio_on_structured_data(self, sphere_hierarchy):
        plain = compress_hierarchy(sphere_hierarchy, "sz-lr", 1e-4)
        excl = compress_hierarchy(sphere_hierarchy, "sz-lr", 1e-4, exclude_covered=True)
        # Covered half of the coarse level becomes a constant: never worse.
        assert excl.compressed_bytes <= plain.compressed_bytes

    def test_exposed_coarse_data_still_bounded(self, sphere_hierarchy):
        container = compress_hierarchy(sphere_hierarchy, "sz-lr", 1e-3, exclude_covered=True)
        out = decompress_hierarchy(container, sphere_hierarchy)
        covered = sphere_hierarchy.covered_mask(0)
        orig = sphere_hierarchy[0].patches("f")[0].data
        recon = out[0].patches("f")[0].data
        # The filled region carries no guarantee, but exposed cells must.
        eb = 1e-3 * (np.ptp(orig))  # compressed patch had filled values;
        exposed_err = np.abs(orig - recon)[~covered]
        assert exposed_err.max() <= 2 * eb  # fill shifts the range slightly

    def test_average_down_restore(self, sphere_hierarchy):
        container = compress_hierarchy(sphere_hierarchy, "sz-lr", 1e-3, exclude_covered=True)
        out = decompress_hierarchy(container, sphere_hierarchy, restore="average_down")
        covered = sphere_hierarchy.covered_mask(0)
        coarse = out[0].patches("f")[0].data
        fine = out[1].patches("f")[0].data
        # Covered coarse cells equal the mean of their 8 fine children.
        pooled = fine.reshape(8, 2, 16, 2, 16, 2).mean(axis=(1, 3, 5))
        assert np.allclose(coarse[8:], pooled, atol=1e-12)

    def test_bad_restore_rejected(self, sphere_hierarchy):
        container = compress_hierarchy(sphere_hierarchy, "sz-lr", 1e-3)
        with pytest.raises(CompressionError):
            decompress_hierarchy(container, sphere_hierarchy, restore="magic")


class TestWrongTemplate:
    def test_other_boxes_name_the_patch_and_both_sizes(self):
        container = compress_hierarchy(make_sphere_hierarchy(16), "sz-lr", 1e-3)
        with pytest.raises(
            CompressionError,
            match=r"\(level=0, field='f', patch=0\) has 32768 cells .* holds 4096",
        ):
            decompress_hierarchy(container, make_sphere_hierarchy(32))

    def test_a_patch_the_container_lacks_is_named(self, sphere_hierarchy):
        coarse_only = AMRHierarchy(sphere_hierarchy.domain, [sphere_hierarchy[0]], 2)
        container = compress_hierarchy(coarse_only, "sz-lr", 1e-3)
        with pytest.raises(
            CompressionError, match=r"\(level=1, field='f', patch=0\) is not in the container"
        ):
            decompress_hierarchy(container, sphere_hierarchy)


class TestContainer:
    def test_serialization_roundtrip(self, sphere_hierarchy):
        container = compress_hierarchy(sphere_hierarchy, "sz-interp", 1e-3)
        raw = container.tobytes()
        parsed = CompressedHierarchy.frombytes(raw)
        assert parsed.codec == container.codec
        assert parsed.compressed_bytes == container.compressed_bytes
        out = decompress_hierarchy(parsed, sphere_hierarchy)
        a = flatten_to_uniform(out, "f")
        b = flatten_to_uniform(decompress_hierarchy(container, sphere_hierarchy), "f")
        assert np.array_equal(a, b)

    def test_frombytes_rejects_garbage(self):
        from repro.errors import FormatError

        with pytest.raises(FormatError):
            CompressedHierarchy.frombytes(b"XXXXjunk")

    def test_index_locates_every_stream(self, multi_field_hierarchy):
        container = compress_hierarchy(multi_field_hierarchy, "sz-lr", 1e-3)
        raw = container.tobytes()
        reader = ContainerReader(io.BytesIO(raw))
        assert len(reader.entries) == 6  # 2 levels x 2 fields, 1+2 patches
        codec = resolve_patch_codec("sz-lr")
        for entry in reader.entries:
            blob = raw[entry.offset : entry.offset + entry.length]
            patch = multi_field_hierarchy[entry.level].patches(entry.field)[entry.patch]
            alone = codec.compress(patch.data, 1e-3, "rel")
            if entry.group is None:  # a lone patch's run: compress's stream
                assert blob == alone
                continue
            assert StreamReader(blob).shape == patch.data.shape
            shared = reader.group(entry.group).shared(entry.member)
            assert np.array_equal(codec.decompress(blob, shared), codec.decompress(alone))


class TestSelectiveDecompression:
    def test_single_patch_matches_full(self, multi_field_hierarchy):
        container = compress_hierarchy(multi_field_hierarchy, "sz-lr", 1e-3)
        full = decompress_hierarchy(container, multi_field_hierarchy)
        sel = decompress_selection(container.tobytes(), levels=1, fields="a", patches=1)
        assert list(sel) == [(1, "a", 1)]
        assert np.array_equal(sel[(1, "a", 1)], full[1].patches("a")[1].data)

    def test_field_and_level_selectors(self, multi_field_hierarchy):
        raw = compress_hierarchy(multi_field_hierarchy, "sz-lr", 1e-3).tobytes()
        by_field = decompress_selection(raw, fields="b")
        assert sorted(by_field) == [(0, "b", 0), (1, "b", 0), (1, "b", 1)]
        by_level = decompress_selection(raw, levels=[1])
        assert all(key[0] == 1 for key in by_level) and len(by_level) == 4

    def test_from_path_and_reader(self, sphere_hierarchy, tmp_path):
        raw = compress_hierarchy(sphere_hierarchy, "sz-interp", 1e-3).tobytes()
        path = tmp_path / "h.rprh"
        path.write_bytes(raw)
        from_path = decompress_selection(path, levels=0)
        with ContainerReader.open(path) as reader:
            from_reader = decompress_selection(reader, levels=0)
        assert from_path.keys() == from_reader.keys()
        for key in from_path:
            assert np.array_equal(from_path[key], from_reader[key])

    def test_read_patch_accessor(self, sphere_hierarchy):
        container = compress_hierarchy(sphere_hierarchy, "sz-lr", 1e-3)
        reader = ContainerReader(io.BytesIO(container.tobytes()))
        patch = reader.read_patch(1, "f", 0)
        full = decompress_hierarchy(container, sphere_hierarchy)
        assert np.array_equal(patch, full[1].patches("f")[0].data)

    def test_missing_patch_rejected(self, sphere_hierarchy):
        from repro.errors import FormatError

        raw = compress_hierarchy(sphere_hierarchy, "sz-lr", 1e-3).tobytes()
        with pytest.raises(FormatError, match="no patch"):
            ContainerReader(io.BytesIO(raw)).read_patch(7, "f", 0)

    def test_single_patch_reads_o_patch_bytes(self, sphere_hierarchy):
        # Acceptance criterion: a one-patch selection must consume
        # footer + index + that patch's stream — not the whole payload.
        raw = compress_hierarchy(sphere_hierarchy, "sz-lr", 1e-3).tobytes()
        counting = CountingBytesIO(raw)
        reader = ContainerReader(counting)
        index_overhead = counting.bytes_read  # header + footer + index
        target = reader.entry(0, "f", 0)
        out = reader.select(levels=0, fields="f", patches=0)
        assert list(out) == [(0, "f", 0)]
        consumed = counting.bytes_read
        assert consumed == index_overhead + target.length
        skipped = sum(e.length for e in reader.entries) - target.length
        assert skipped > 0 and consumed <= len(raw) - skipped

    def test_single_grouped_patch_reads_o_patch_bytes(self, multi_field_hierarchy):
        # A patch of a grouped run adds its run's group header (read once)
        # and its own payload extent — never the other members' payloads.
        raw = compress_hierarchy(multi_field_hierarchy, "sz-lr", 1e-3).tobytes()
        counting = CountingBytesIO(raw)
        reader = ContainerReader(counting)
        index_overhead = counting.bytes_read
        target = reader.entry(1, "a", 1)
        assert target.group is not None
        reader.select(levels=1, fields="a", patches=1)
        group = reader.group(target.group)  # cached by the select: reads nothing
        member_bytes = group.member_extent(target.member)[1]
        assert counting.bytes_read == (
            index_overhead + target.length + group.header_len + member_bytes
        )

    def test_bad_source_type_rejected(self):
        with pytest.raises(CompressionError, match="cannot read"):
            decompress_selection(12345)

    def test_bad_selector_types_named(self, sphere_hierarchy):
        raw = compress_hierarchy(sphere_hierarchy, "sz-lr", 1e-3).tobytes()
        with pytest.raises(CompressionError, match="field selector"):
            decompress_selection(raw, fields=0)
        with pytest.raises(CompressionError, match="level selector"):
            decompress_selection(raw, levels="all")
        with pytest.raises(CompressionError, match="patch selector"):
            decompress_selection(raw, patches=object())


class TestLegacyRemoval:
    """The pre-index RPRH read shim is gone; the magic must be *named* in
    the rejection so users know what they are holding."""

    def test_legacy_magic_rejected_with_clear_error(self):
        from repro.errors import FormatError

        with pytest.raises(FormatError, match="unsupported legacy magic"):
            CompressedHierarchy.frombytes(b"RPRH" + b"\x00" * 64)

    def test_legacy_error_names_remedy(self):
        from repro.errors import FormatError

        with pytest.raises(FormatError, match="re-compress"):
            CompressedHierarchy.frombytes(b"RPRH\x10\x00\x00\x00")

    def test_steps_selector_rejected_on_snapshot(self, sphere_hierarchy):
        raw = compress_hierarchy(sphere_hierarchy, "sz-lr", 1e-3).tobytes()
        with pytest.raises(CompressionError, match="single-snapshot"):
            decompress_selection(raw, steps=0)


class TestAverageDown:
    def test_exact_on_manual_hierarchy(self, sphere_hierarchy):
        h = sphere_hierarchy
        average_down(h, "f")
        coarse = h[0].patches("f")[0].data
        fine = h[1].patches("f")[0].data
        pooled = fine.reshape(8, 2, 16, 2, 16, 2).mean(axis=(1, 3, 5))
        assert np.allclose(coarse[8:], pooled)
