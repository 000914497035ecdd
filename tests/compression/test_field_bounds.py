"""Per-field error-bound overrides across every writer/reader surface.

``field_bounds`` lets mixed-physics campaigns compress different fields
under different bounds (the WarpX E/B scenario). These tests pin the
contract at each layer: validation, the batch compressor (both batch
modes), container metadata round-trip, byte-stability of single-bound
output, the streaming writer (create/append_to), and the sharded
campaign's manifest.
"""

from __future__ import annotations

import io

import numpy as np
import pytest

from repro.compression import CompressedHierarchy, compress_hierarchy, decompress_hierarchy
from repro.compression.amr_codec import resolve_patch_codec, validate_field_bounds
from repro.compression.container import ContainerReader
from repro.errors import CompressionError
from repro.insitu import StreamingWriter
from repro.insitu.series import SeriesReader
from repro.insitu.sharded import ShardedSeriesReader, ShardedSeriesWriter
from repro.sims import WarpXConfig, warpx_hierarchy


@pytest.fixture(scope="module")
def hierarchy():
    return warpx_hierarchy(WarpXConfig(nx=12, nz=48, seed=5))


BOUNDS = {"Ez": 1e-4, "rho": 1e-2}


# ----------------------------------------------------------------------
# Validation
# ----------------------------------------------------------------------
def test_validate_normalizes_and_accepts_known_fields():
    assert validate_field_bounds(None, ("a",)) == {}
    assert validate_field_bounds({}, None) == {}
    assert validate_field_bounds({"a": 1e-3}, ("a", "b")) == {"a": 1e-3}
    # Unknown field set: any names accepted (validated later on adoption).
    assert validate_field_bounds({"x": 0.5}, None) == {"x": 0.5}


@pytest.mark.parametrize("bad", [0.0, -1e-3, float("nan"), float("inf")])
def test_validate_rejects_non_positive_or_non_finite(bad):
    with pytest.raises(CompressionError, match="positive finite"):
        validate_field_bounds({"a": bad}, ("a",))


@pytest.mark.parametrize("bad", ["x", "1e-3", None, True, [1e-3]])
def test_validate_refuses_what_is_not_a_number(bad, hierarchy):
    """A bound that is not a real number is a typed refusal, never coerced:
    ``"x"`` raised a bare ``ValueError``, ``None`` a bare ``TypeError``,
    and ``True`` passed as 1.0."""
    with pytest.raises(CompressionError, match="positive finite"):
        validate_field_bounds({"a": bad}, ("a",))
    name = hierarchy.field_names[0]
    with pytest.raises(CompressionError, match="positive finite"):
        compress_hierarchy(hierarchy, "sz-lr", 1e-3, field_bounds={name: bad})


def test_validate_rejects_unknown_field_names():
    with pytest.raises(CompressionError, match="unknown fields"):
        validate_field_bounds({"ghost": 1e-3}, ("a", "b"))


def test_compress_hierarchy_rejects_bounds_for_absent_field(hierarchy):
    with pytest.raises(CompressionError, match="unknown fields"):
        compress_hierarchy(hierarchy, "sz-lr", 1e-3, fields=["Ez"], field_bounds={"rho": 1e-2})


# ----------------------------------------------------------------------
# Batch compressor
# ----------------------------------------------------------------------
@pytest.mark.parametrize("batch", ["patch", "level"])
def test_per_field_bounds_are_honoured(hierarchy, batch):
    comp = resolve_patch_codec("sz-lr")
    c = compress_hierarchy(
        hierarchy, "sz-lr", 1e-3, field_bounds=BOUNDS, batch=batch
    )
    restored = decompress_hierarchy(c, hierarchy)
    for name in hierarchy.field_names:
        eb = BOUNDS.get(name, 1e-3)
        for lev in range(hierarchy.n_levels):
            for orig, rest in zip(
                hierarchy[lev].patches(name), restored[lev].patches(name)
            ):
                eb_abs = comp.resolve_error_bound(orig.data, eb, "rel")
                assert float(np.abs(orig.data - rest.data).max()) <= eb_abs * (1 + 1e-12)


def test_override_changes_only_named_fields(hierarchy):
    plain = compress_hierarchy(hierarchy, "sz-lr", 1e-3)
    mixed = compress_hierarchy(hierarchy, "sz-lr", 1e-3, field_bounds={"Ez": 1e-4})
    def stream(c, field):
        return bytes(c.read_stream(c.entry(0, field, 0)))

    assert stream(mixed, "Ez") != stream(plain, "Ez")
    assert stream(mixed, "Ex") == stream(plain, "Ex")


def test_container_roundtrips_field_bounds(hierarchy):
    c = compress_hierarchy(hierarchy, "sz-lr", 1e-3, field_bounds=BOUNDS)
    blob = c.tobytes()
    reader = ContainerReader(blob)
    assert reader.field_bounds == BOUNDS
    assert CompressedHierarchy.frombytes(blob).field_bounds == BOUNDS


def test_single_bound_bytes_unchanged(hierarchy):
    """No overrides -> no ``field_bounds`` key: old container bytes exact."""
    blob = compress_hierarchy(hierarchy, "sz-lr", 1e-3).tobytes()
    assert b"field_bounds" not in blob
    assert ContainerReader(blob).field_bounds == {}


# ----------------------------------------------------------------------
# Streaming writer
# ----------------------------------------------------------------------
def test_streaming_writer_records_and_restores_bounds(hierarchy, tmp_path):
    path = tmp_path / "series.rph2s"
    with StreamingWriter.create(path, "sz-lr", 1e-3, field_bounds=BOUNDS) as w:
        assert w.field_bounds == BOUNDS
        w.append_step(hierarchy, time=0.0, step=0)
    with SeriesReader.open(path) as reader:
        assert reader.field_bounds == BOUNDS
    # append_to restores the overrides from the series meta.
    w2 = StreamingWriter.append_to(path)
    try:
        assert w2.field_bounds == BOUNDS
        w2.append_step(hierarchy, time=1.0, step=1)
    finally:
        w2.close()
    with SeriesReader.open(path) as reader:
        assert reader.field_bounds == BOUNDS
        assert reader.n_steps == 2


def test_streaming_segment_matches_batch_bytes(hierarchy):
    """Canonical-order streaming stays byte-identical to the batch path
    under per-field bounds (the writer's core identity, extended)."""
    batch = compress_hierarchy(hierarchy, "sz-lr", 1e-3, field_bounds=BOUNDS).tobytes()
    buf = io.BytesIO()
    with StreamingWriter(buf, "sz-lr", 1e-3, field_bounds=BOUNDS) as w:
        w.append_step(hierarchy, time=0.0, step=0)
    with SeriesReader(buf.getvalue()) as reader:
        entry = reader.entry(0)
        segment = buf.getvalue()[entry.offset : entry.offset + entry.length]
    assert segment == batch


def test_streaming_writer_rejects_unknown_override(tmp_path):
    with pytest.raises(CompressionError, match="unknown fields"):
        StreamingWriter.create(
            tmp_path / "bad.rph2s", "sz-lr", 1e-3,
            fields=("Ez",), field_bounds={"rho": 1e-2},
        )


def test_single_bound_series_bytes_unchanged(hierarchy, tmp_path):
    path = tmp_path / "plain.rph2s"
    with StreamingWriter.create(path, "sz-lr", 1e-3) as w:
        w.append_step(hierarchy, time=0.0, step=0)
    assert b"field_bounds" not in path.read_bytes()


# ----------------------------------------------------------------------
# Sharded campaigns
# ----------------------------------------------------------------------
def test_sharded_campaign_carries_field_bounds(hierarchy, tmp_path):
    manifest = tmp_path / "camp.rphm"
    w = ShardedSeriesWriter.create(
        manifest, "sz-lr", 1e-3, n_shards=2, parallel="serial",
        field_bounds=BOUNDS,
    )
    for i in range(3):
        w.append_step(hierarchy, time=float(i), step=i)
    w.close()
    with ShardedSeriesReader.open(manifest) as reader:
        assert reader.field_bounds == BOUNDS
    # Every shard's own footer carries the bounds too (salvage-safe).
    for shard in sorted(tmp_path.glob("camp.shard*.rph2s")):
        with SeriesReader.open(shard) as sr:
            assert sr.field_bounds == BOUNDS


def test_sharded_single_bound_manifest_unchanged(hierarchy, tmp_path):
    manifest = tmp_path / "plain.rphm"
    w = ShardedSeriesWriter.create(manifest, "sz-lr", 1e-3, n_shards=2, parallel="serial")
    w.append_step(hierarchy, time=0.0, step=0)
    w.close()
    assert b"field_bounds" not in manifest.read_bytes()
