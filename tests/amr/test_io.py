"""Tests for plotfile I/O (repro.amr.io)."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.amr import flatten_to_uniform, read_plotfile, write_plotfile
from repro.amr.io import append_step, write_series, write_sharded_series
from repro.errors import FormatError
from repro.insitu import ShardedSeriesWriter, StreamingWriter
from repro.storage import MemoryBackend


class TestRoundtrip:
    def test_structure_and_data(self, sphere_hierarchy, tmp_path):
        path = write_plotfile(tmp_path / "plt", sphere_hierarchy)
        loaded = read_plotfile(path)
        assert loaded.n_levels == sphere_hierarchy.n_levels
        assert loaded.field_names == sphere_hierarchy.field_names
        assert loaded.ref_ratios == sphere_hierarchy.ref_ratios
        a = flatten_to_uniform(sphere_hierarchy, "f")
        b = flatten_to_uniform(loaded, "f")
        assert np.array_equal(a, b)

    def test_multi_field(self, multi_field_hierarchy, tmp_path):
        path = write_plotfile(tmp_path / "plt", multi_field_hierarchy)
        loaded = read_plotfile(path)
        for name in ("a", "b"):
            for lev_idx in range(2):
                orig = multi_field_hierarchy[lev_idx].patches(name)
                got = loaded[lev_idx].patches(name)
                for p, q in zip(orig, got):
                    assert np.array_equal(p.data, q.data)

    def test_dx_preserved(self, sphere_hierarchy, tmp_path):
        loaded = read_plotfile(write_plotfile(tmp_path / "plt", sphere_hierarchy))
        assert loaded[1].dx == sphere_hierarchy[1].dx


def _stored(backend: MemoryBackend) -> dict[str, bytes]:
    return {name: backend.open_read(name).read() for name in backend.list()}


def test_writer_options_reach_the_writer(multi_field_hierarchy):
    """The one-call writers forward every option: the bytes match the
    writer they wrap, given the same options."""
    steps, bounds = [multi_field_hierarchy] * 2, {"a": 5e-4}
    via_io, via_writer = MemoryBackend(), MemoryBackend()
    write_series("run.rph2s", steps, field_bounds=bounds, backend=via_io)
    with StreamingWriter.create("run.rph2s", "sz-lr", 1e-3, field_bounds=bounds,
                                backend=via_writer) as writer:
        for h in steps:
            writer.append_step(h)
    append_step("run.rph2s", steps[0], durability="step", backend=via_io)
    with StreamingWriter.append_to("run.rph2s", durability="step",
                                   backend=via_writer) as writer:
        writer.append_step(steps[0])
    assert _stored(via_io) == _stored(via_writer)

    options = dict(n_shards=2, parallel="serial", field_bounds=bounds, parity=1)
    via_io, via_writer = MemoryBackend(), MemoryBackend()
    write_sharded_series("camp.rphm", steps, backend=via_io, **options)
    with ShardedSeriesWriter.create("camp.rphm", "sz-lr", 1e-3, backend=via_writer,
                                    **options) as writer:
        for h in steps:
            writer.append_step(h)
    stored = _stored(via_io)
    assert len(stored) == 4 and stored == _stored(via_writer)


class TestErrors:
    def test_existing_dir_rejected(self, sphere_hierarchy, tmp_path):
        write_plotfile(tmp_path / "plt", sphere_hierarchy)
        with pytest.raises(FormatError):
            write_plotfile(tmp_path / "plt", sphere_hierarchy)

    def test_overwrite_allowed(self, sphere_hierarchy, tmp_path):
        write_plotfile(tmp_path / "plt", sphere_hierarchy)
        write_plotfile(tmp_path / "plt", sphere_hierarchy, overwrite=True)

    def test_missing_header(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(FormatError):
            read_plotfile(tmp_path / "empty")

    def test_corrupt_header(self, sphere_hierarchy, tmp_path):
        path = write_plotfile(tmp_path / "plt", sphere_hierarchy)
        (path / "Header.json").write_text("{not json")
        with pytest.raises(FormatError):
            read_plotfile(path)

    def test_wrong_format_name(self, sphere_hierarchy, tmp_path):
        path = write_plotfile(tmp_path / "plt", sphere_hierarchy)
        hdr = json.loads((path / "Header.json").read_text())
        hdr["format"] = "other"
        (path / "Header.json").write_text(json.dumps(hdr))
        with pytest.raises(FormatError):
            read_plotfile(path)

    def test_missing_patch_file(self, sphere_hierarchy, tmp_path):
        path = write_plotfile(tmp_path / "plt", sphere_hierarchy)
        (path / "level_1" / "f_00000.npy").unlink()
        with pytest.raises(FormatError):
            read_plotfile(path)

    def test_shape_mismatch_detected(self, sphere_hierarchy, tmp_path):
        path = write_plotfile(tmp_path / "plt", sphere_hierarchy)
        np.save(path / "level_1" / "f_00000.npy", np.zeros((2, 2, 2)))
        with pytest.raises(FormatError):
            read_plotfile(path)
