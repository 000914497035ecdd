"""Tests for the RPH2S time-series container (repro.insitu).

Covers the streaming write protocol, random access through the timestep
index, byte-equivalence with the batch compressor, and the corruption
contract: truncated segments, a corrupt timestep index, and mixed-version
segment rejection must all surface as named FormatErrors, never as silent
garbage.
"""

from __future__ import annotations

import io
import json
import struct
import zlib

import numpy as np
import pytest

from repro.amr.io import (
    append_step,
    open_series,
    write_container,
    write_series,
    write_sharded_series,
)
from repro.compression.amr_codec import compress_hierarchy, decompress_selection
from repro.compression.container import ContainerReader
from repro.errors import CompressionError, FormatError
from repro.insitu import SeriesReader, StreamingWriter
from repro.parallel import WorkerPool
from tests.conftest import make_sphere_hierarchy

_FOOTER = struct.Struct("<QQI8s")


def make_steps(n: int = 3):
    """n small two-level hierarchies with step-dependent data."""
    base = make_sphere_hierarchy(8)
    return [
        base.map_fields(lambda lev, name, d, i=i: d * (1.0 + 0.25 * i))
        for i in range(n)
    ]


@pytest.fixture()
def series_path(tmp_path):
    path = tmp_path / "run.rph2s"
    write_series(path, make_steps(3), codec="sz-lr", error_bound=1e-3)
    return path


def _split(raw: bytes):
    """(payload, index_bytes) of a series file, straight from the footer."""
    idx_off, idx_len, _, magic = _FOOTER.unpack_from(raw, len(raw) - _FOOTER.size)
    assert magic == b"RPH2SIDX"
    return raw[:idx_off], raw[idx_off : idx_off + idx_len]


def _join(payload: bytes, index_bytes: bytes) -> bytes:
    """Reassemble a series file with a fresh, consistent footer."""
    return payload + index_bytes + _FOOTER.pack(
        len(payload), len(index_bytes), zlib.crc32(index_bytes), b"RPH2SIDX"
    )


class CountingBytesIO(io.BytesIO):
    def __init__(self, raw: bytes):
        super().__init__(raw)
        self.bytes_read = 0

    def read(self, size=-1):
        out = super().read(size)
        self.bytes_read += len(out)
        return out


class TestRoundtrip:
    def test_streamed_series_reads_back(self, series_path):
        steps = make_steps(3)
        with open_series(series_path) as reader:
            assert reader.steps == (0, 1, 2)
            assert reader.fields == ("f",)
            assert reader.codec == "sz-lr"
            for i, h in enumerate(steps):
                got = reader.read_patch(i, 1, "f", 0)
                want = h[1].patches("f")[0].data
                eb = 1e-3 * (want.max() - want.min())
                assert np.abs(got - want).max() <= eb * (1 + 1e-9)

    def test_segments_byte_identical_to_batch(self, series_path):
        raw = series_path.read_bytes()
        with open_series(series_path) as reader:
            for i, h in enumerate(make_steps(3)):
                batch = compress_hierarchy(h, "sz-lr", 1e-3).tobytes()
                e = reader.entry(i)
                assert raw[e.offset : e.offset + e.length] == batch

    def test_parallel_modes_byte_identical(self, tmp_path):
        steps = make_steps(2)
        a = tmp_path / "serial.rph2s"
        b = tmp_path / "thread.rph2s"
        write_series(a, steps)
        with WorkerPool("thread", workers=3) as pool:
            write_series(b, steps, pool=pool)
        assert a.read_bytes() == b.read_bytes()

    def test_exclude_covered_matches_batch(self, tmp_path):
        h = make_sphere_hierarchy(8)
        path = tmp_path / "ec.rph2s"
        with StreamingWriter.create(path, "sz-lr", 1e-3, exclude_covered=True) as w:
            w.append_step(h)
        batch = compress_hierarchy(h, "sz-lr", 1e-3, exclude_covered=True).tobytes()
        with open_series(path) as reader:
            e = reader.entry(0)
            assert reader.exclude_covered
        assert path.read_bytes()[e.offset : e.offset + e.length] == batch

    def test_empty_series_valid(self, tmp_path):
        path = tmp_path / "empty.rph2s"
        with StreamingWriter.create(path, "sz-lr", 1e-3, fields=["f"]):
            pass
        with open_series(path) as reader:
            assert reader.n_steps == 0
            assert reader.select() == {}


class TestStepProtocol:
    def test_incremental_patch_feed(self, tmp_path):
        """Patches fed out of field order still index deterministically."""
        h = make_sphere_hierarchy(8)
        path = tmp_path / "inc.rph2s"
        with StreamingWriter.create(path, "sz-lr", 1e-3) as w:
            w.begin_step(time=0.5)
            for lev_idx, lev in enumerate(h):
                for patch in lev.patches("f"):
                    w.add_patch(lev_idx, "f", patch.data)
            entry = w.end_step()
        assert entry.n_patches == 2 and entry.n_levels == 2
        with open_series(path) as reader:
            assert reader.times == (0.5,)
            got = reader.read_patch(0, 0, "f", 0)
            assert got.shape == h[0].patches("f")[0].data.shape

    def test_monotone_step_numbers_enforced(self, tmp_path):
        h = make_sphere_hierarchy(8)
        with StreamingWriter.create(tmp_path / "m.rph2s", "sz-lr", 1e-3) as w:
            w.append_step(h, step=5)
            with pytest.raises(CompressionError, match="strictly increasing"):
                w.begin_step(step=5)
            w.append_step(h, step=9)
            assert w.next_step == 10

    def test_empty_step_rejected(self, tmp_path):
        with StreamingWriter.create(tmp_path / "e.rph2s", "sz-lr", 1e-3) as w:
            w.begin_step()
            with pytest.raises(CompressionError, match="empty timestep"):
                w.end_step()
            w.append_step(make_sphere_hierarchy(8))  # writer still usable

    def test_field_drift_rejected(self, tmp_path):
        with StreamingWriter.create(tmp_path / "d.rph2s", "sz-lr", 1e-3) as w:
            w.begin_step()
            w.add_patch(0, "f", np.ones((8, 8, 8)))
            w.end_step()
            w.begin_step()
            with pytest.raises(CompressionError, match="not part of this series"):
                w.add_patch(0, "g", np.ones((8, 8, 8)))
            w.add_patch(0, "f", np.ones((8, 8, 8)))
            w.end_step()

    def test_close_with_open_step_rejected(self, tmp_path):
        w = StreamingWriter.create(tmp_path / "o.rph2s", "sz-lr", 1e-3)
        w.begin_step()
        w.add_patch(0, "f", np.ones((8, 8, 8)))
        with pytest.raises(CompressionError, match="open step"):
            w.close()
        w.end_step()
        w.close()
        w.close()  # idempotent

    def test_append_to_bad_args_preserve_series(self, series_path):
        before = series_path.read_bytes()
        pool = WorkerPool("thread")
        pool.close()
        with pytest.raises(CompressionError, match="worker pool is closed"):
            StreamingWriter.append_to(series_path, pool=pool)
        # A rejected append must not destroy a valid series.
        assert series_path.read_bytes() == before
        with open_series(series_path) as reader:
            assert reader.steps == (0, 1, 2)

    def test_field_mismatch_rejected_before_writing(self, series_path):
        from repro.amr import AMRHierarchy, AMRLevel, Box, BoxArray, Patch

        before = series_path.read_bytes()
        dom = Box.from_shape((8, 8, 8))
        lev = AMRLevel(0, BoxArray([dom]), (1.0,) * 3,
                       {"g": [Patch(dom, np.ones((8, 8, 8)))]})
        wrong_field = AMRHierarchy(dom, [lev], 2)
        with StreamingWriter.append_to(series_path) as w:
            with pytest.raises(CompressionError, match="series carries"):
                w.append_step(wrong_field, fields=["g"])
            assert w.n_steps == 3  # nothing half-written
        # Rejected before begin_step: no orphaned segment bytes, and the
        # rewritten index/footer are byte-identical to the original.
        assert series_path.read_bytes() == before

    def test_exit_releases_resources_on_forgotten_end_step(self, tmp_path):
        path = tmp_path / "leak.rph2s"
        with pytest.raises(CompressionError, match="open step"):
            with StreamingWriter.create(path, "sz-lr", 1e-3) as w:
                w.begin_step()
                w.add_patch(0, "f", np.ones((8, 8, 8)))
                # end_step forgotten: close() raises, __exit__ must still
                # release the pool and file handle.
        assert w._closed and w._sink.closed

    def test_append_to_extends_series(self, series_path):
        h = make_steps(1)[0]
        entry = append_step(series_path, h, time=7.5)
        assert entry.step == 3 and entry.time == 7.5
        with open_series(series_path) as reader:
            assert reader.steps == (0, 1, 2, 3)
            # Old segments untouched, new step readable.
            reader.verify_step(0)
            assert reader.read_patch(3, 0, "f", 0).shape == (8, 8, 8)


class TestSelection:
    def test_select_keys_are_step_tuples(self, series_path):
        sel = decompress_selection(series_path, steps=1, levels=1)
        assert list(sel) == [(1, 1, "f", 0)]
        full = decompress_selection(series_path)
        assert len(full) == 6  # 3 steps x 2 patches
        assert np.array_equal(sel[(1, 1, "f", 0)], full[(1, 1, "f", 0)])

    def test_select_from_bytes_and_reader(self, series_path):
        raw = series_path.read_bytes()
        by_bytes = decompress_selection(raw, steps=[0, 2], patches=0, levels=0)
        assert sorted(by_bytes) == [(0, 0, "f", 0), (2, 0, "f", 0)]
        with open_series(series_path) as reader:
            by_reader = decompress_selection(reader, steps=[0, 2], patches=0, levels=0)
        for key in by_bytes:
            assert np.array_equal(by_bytes[key], by_reader[key])

    @pytest.mark.parametrize("kind", ["snapshot", "series", "manifest"])
    def test_every_source_form_decodes_on_the_callers_pool(self, kind, series_path, tmp_path):
        """``pool=`` reaches the decode map whatever form the source takes
        (a series given by path used to drop it), and every form returns
        the same arrays; a manifest given without its path is rejected."""

        class CountingPool(WorkerPool):
            maps = 0

            def map(self, fn, items):
                self.maps += 1
                return super().map(fn, items)

        steps = make_steps(3)
        if kind == "snapshot":
            snapshot = compress_hierarchy(steps[0], "sz-lr", 1e-3)
            path = write_container(tmp_path / "snap.rprh", snapshot)
            open_reader, n_maps = ContainerReader.open, 1
        elif kind == "series":
            path, open_reader, n_maps = series_path, SeriesReader.open, len(steps)
        else:
            path = write_sharded_series(
                tmp_path / "camp.rphm", steps, n_shards=2, parallel="serial"
            )
            open_reader, n_maps = SeriesReader.open, len(steps)
        want = decompress_selection(path)
        assert len(want) == 2 * n_maps
        forms = {
            "path": lambda: path,
            "str": lambda: str(path),
            "bytes": lambda: path.read_bytes(),
            "file": lambda: path.open("rb"),
            "reader": lambda: open_reader(path),
        }
        for form, make in forms.items():
            source = make()
            try:
                with CountingPool("serial") as pool:
                    if kind == "manifest" and form in ("bytes", "file"):
                        with pytest.raises(CompressionError, match="manifest path"):
                            decompress_selection(source, pool=pool)
                        continue
                    got = decompress_selection(source, pool=pool)
                assert pool.maps == n_maps, (kind, form)
                assert got.keys() == want.keys()
                assert all(np.array_equal(got[k], want[k]) for k in want)
            finally:
                if hasattr(source, "close"):
                    source.close()

    def test_missing_step_named(self, series_path):
        with open_series(series_path) as reader:
            with pytest.raises(FormatError, match="no step 42"):
                reader.read_patch(42, 0, "f", 0)

    def test_single_patch_reads_o_selection_bytes(self, series_path):
        raw = series_path.read_bytes()
        # Expected read footprint, derived from the real layout.
        with open_series(series_path) as plain:
            seg = plain.open_step(1)
            stream_len = seg.entry(1, "f", 0).length
            seg_index_len = plain.entry(1).length - seg._payload_end - 28
        counting = CountingBytesIO(raw)
        reader = SeriesReader(counting)
        series_overhead = counting.bytes_read  # header + footer + series index
        out = reader.read_patch(1, 1, "f", 0)
        consumed = counting.bytes_read - series_overhead
        assert out.shape == (8, 16, 16)
        # segment header (5) + segment footer (28) + segment index + stream
        assert consumed == 5 + 28 + seg_index_len + stream_len
        assert counting.bytes_read < len(raw) / 2  # and far below O(file)


class TestCorruption:
    def test_truncated_segment_detected(self, series_path):
        payload, index_bytes = _split(series_path.read_bytes())
        # Cut past the trailing 64-byte seal record and into the last
        # segment proper, so the index row points outside the payload.
        with pytest.raises(FormatError, match="outside the payload"):
            SeriesReader(io.BytesIO(_join(payload[:-80], index_bytes)))

    def test_bad_timestep_index_crc(self, series_path):
        raw = bytearray(series_path.read_bytes())
        idx_off, _, _, _ = _FOOTER.unpack_from(raw, len(raw) - _FOOTER.size)
        raw[idx_off + 4] ^= 0xFF  # flip a byte inside the series index
        with pytest.raises(FormatError, match="index checksum mismatch"):
            SeriesReader(io.BytesIO(bytes(raw)))

    def test_mixed_version_segments_rejected(self, series_path):
        payload, index_bytes = _split(series_path.read_bytes())
        index = json.loads(index_bytes.decode())
        index["steps"][1][4] = 2  # one segment claims container version 2
        tampered = json.dumps(index, separators=(",", ":")).encode()
        with pytest.raises(FormatError, match="mixed segment container versions"):
            SeriesReader(io.BytesIO(_join(payload, tampered)))

    def test_uniform_unknown_version_rejected(self, series_path):
        payload, index_bytes = _split(series_path.read_bytes())
        index = json.loads(index_bytes.decode())
        for row in index["steps"]:
            row[4] = 2
        tampered = json.dumps(index, separators=(",", ":")).encode()
        with pytest.raises(FormatError, match="unsupported segment container version"):
            SeriesReader(io.BytesIO(_join(payload, tampered)))

    def test_segment_bitflip_caught_by_stream_crc(self, series_path):
        raw = bytearray(series_path.read_bytes())
        with open_series(series_path) as reader:
            e = reader.entry(0)
        raw[e.offset + 40] ^= 0x01  # inside step 0's payload
        reader = SeriesReader(io.BytesIO(bytes(raw)))
        with pytest.raises(FormatError):
            reader.read_patch(0, 0, "f", 0)
        # Other steps are unaffected: corruption is localized.
        assert reader.read_patch(1, 0, "f", 0).shape == (8, 8, 8)

    def test_verify_step_sweeps_whole_segment(self, series_path):
        raw = bytearray(series_path.read_bytes())
        with open_series(series_path) as reader:
            e = reader.entry(2)
        raw[e.offset + e.length - 3] ^= 0x10  # inside step 2's own footer
        reader = SeriesReader(io.BytesIO(bytes(raw)))
        with pytest.raises(FormatError, match="segment checksum mismatch"):
            reader.verify_step(2)
        reader.verify_step(0)
        reader.verify_step(1)

    def test_truncated_footer(self, series_path):
        raw = series_path.read_bytes()
        with pytest.raises(FormatError, match="footer magic"):
            SeriesReader(io.BytesIO(raw[:-7]))

    def test_not_a_series(self):
        with pytest.raises(FormatError, match="not an RPH2S series"):
            SeriesReader(io.BytesIO(b"NOPE" + b"\x00" * 64))

    def test_snapshot_reader_points_to_series_api(self, series_path):
        from repro.compression.container import ContainerReader

        with pytest.raises(FormatError, match="RPH2S time-series"):
            ContainerReader(io.BytesIO(series_path.read_bytes()))
