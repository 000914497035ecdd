"""Property-based error-bound guarantees across all codecs.

The single most important invariant of the library: for any finite float
data and any positive bound, every codec reconstructs within the bound —
both for a bare codec stream and for a whole patch-indexed hierarchy
container round-tripped through its serialized form.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.amr import AMRHierarchy, AMRLevel, Box, BoxArray, Patch
from repro.compression.amr_codec import (
    CompressedHierarchy,
    compress_hierarchy,
    decompress_hierarchy,
)
from repro.compression.registry import available_codecs, make_codec
from repro.compression.zmesh_like import ZMeshLike
from repro.errors import CompressionError
from repro.insitu.sharded import ShardedSeriesWriter
from repro.insitu.writer import StreamingWriter

CODICS = sorted(available_codecs())


def _arrays_3d():
    return hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=3, max_dims=3, min_side=2, max_side=10),
        elements=st.floats(-1e5, 1e5, allow_nan=False, allow_infinity=False, width=64),
    )


@pytest.mark.parametrize("codec", CODICS)
class TestBoundProperty:
    @settings(max_examples=25, deadline=None)
    @given(data=_arrays_3d(), eb=st.floats(1e-4, 1.0))
    def test_abs_bound(self, codec, data, eb):
        comp = make_codec(codec)
        recon = comp.decompress(comp.compress(data, eb, mode="abs"))
        # Reconstruction arithmetic is float64, so the guarantee carries an
        # unavoidable ULP-scale slack proportional to the data magnitude
        # (same as reference SZ): eb + O(eps * |value|).
        slack = 16 * np.spacing(np.abs(data).max() + eb)
        assert np.abs(recon - data).max() <= eb * (1 + 1e-9) + slack

    @settings(max_examples=15, deadline=None)
    @given(data=_arrays_3d(), eb=st.sampled_from([1e-4, 1e-3, 1e-2]))
    def test_rel_bound(self, codec, data, eb):
        comp = make_codec(codec)
        recon = comp.decompress(comp.compress(data, eb, mode="rel"))
        value_range = data.max() - data.min()
        eb_abs = eb * value_range if value_range > 0 else eb
        assert np.abs(recon - data).max() <= eb_abs * (1 + 1e-9)

    @settings(max_examples=10, deadline=None)
    @given(data=_arrays_3d())
    def test_deterministic(self, codec, data):
        comp = make_codec(codec)
        assert comp.compress(data, 1e-3) == comp.compress(data, 1e-3)


# ----------------------------------------------------------------------
# Container level: the same guarantee must survive per-patch packaging,
# serialization to the indexed RPH2 format, and parsing back.
# ----------------------------------------------------------------------
def _hierarchy_from(arrays: dict[str, np.ndarray]) -> AMRHierarchy:
    """Single-level hierarchy holding ``arrays`` as one patch each."""
    shape = next(iter(arrays.values())).shape
    dom = Box.from_shape(shape)
    level = AMRLevel(0, BoxArray([dom]), (1.0,) * len(shape))
    for name, data in arrays.items():
        level.add_field(name, [Patch(dom, data)])
    return AMRHierarchy(dom, [level], 2)


#: The patch hypothesis met during PR 23: its range, 3.5e-323, times a
#: relative bound of 1e-4 is 0.0.
DENORMAL_PATCH = 5e-324 * np.arange(8.0).reshape(2, 2, 2)


def _try_compress(h, codec, eb, mode):
    """Compress, rejecting examples a codec legitimately refuses (e.g. the
    quantizer's value/bound dynamic-range limit) — that contract is covered
    by the codec's own tests, not the container's."""
    try:
        return compress_hierarchy(h, codec, eb, mode=mode)
    except CompressionError as exc:
        assume("increase the error bound" not in str(exc))
        raise


def _container_fields():
    """1-3 random fields of a shared random 3-D shape and random dtype."""
    return st.tuples(
        hnp.array_shapes(min_dims=3, max_dims=3, min_side=2, max_side=8),
        st.sampled_from([np.float32, np.float64]),
        st.integers(1, 3),
        st.randoms(use_true_random=False),
    ).map(
        lambda t: {
            f"f{i}": (
                t[3].uniform(-1.0, 1.0)
                * np.arange(int(np.prod(t[0])), dtype=t[1]).reshape(t[0])
                + t[3].uniform(-100.0, 100.0)
            )
            for i in range(t[2])
        }
    )


@pytest.mark.parametrize("codec", CODICS)
class TestContainerBoundProperty:
    @settings(max_examples=10, deadline=None)
    @given(fields=_container_fields(), eb=st.floats(1e-4, 1.0),
           mode=st.sampled_from(["abs", "rel"]))
    def test_container_roundtrip_bound(self, codec, fields, eb, mode):
        h = _hierarchy_from(fields)
        container = _try_compress(h, codec, eb, mode)
        parsed = CompressedHierarchy.frombytes(container.tobytes())
        out = decompress_hierarchy(parsed, h)
        for name, data in fields.items():
            ref = data.astype(np.float64)
            if mode == "abs":
                eb_abs = eb
            else:
                rng = float(ref.max() - ref.min())
                eb_abs = eb * rng if rng > 0 else eb
            recon = out[0].patches(name)[0].data
            # ULP slack in the *input* dtype: float32 fields carry float32
            # representational granularity through the codec arithmetic.
            slack = 16 * float(
                np.spacing(np.asarray(np.abs(ref).max() + eb_abs, dtype=data.dtype))
            )
            assert np.abs(recon - ref).max() <= eb_abs * (1 + 1e-9) + slack

    @settings(max_examples=10, deadline=None)
    @given(fields=_container_fields(), eb=st.sampled_from([1e-4, 1e-3, 1e-2]))
    @example(fields={"f0": DENORMAL_PATCH}, eb=1e-4)  # refused: see the test below
    def test_metadata_exact_roundtrip(self, codec, fields, eb):
        h = _hierarchy_from(fields)
        container = _try_compress(h, codec, eb, "rel")
        parsed = CompressedHierarchy.frombytes(container.tobytes())
        assert parsed.codec == container.codec
        assert parsed.error_bound == container.error_bound
        assert parsed.mode == container.mode
        assert parsed.fields == container.fields
        assert parsed.exclude_covered == container.exclude_covered
        assert parsed.original_bytes == container.original_bytes
        assert parsed.entries == container.entries
        # Serialization is a pure function of the parsed state.
        assert parsed.tobytes() == container.tobytes()


@pytest.mark.parametrize("codec, batch", [
    (codec, batch) for codec in CODICS for batch in ("patch", "level")])
def test_relative_bound_that_underflows_is_refused_by_name(codec, batch):
    """A relative bound the data's range rounds to 0.0 is refused naming the
    bound that was given, the range and the way out — not as "error bound
    must be > 0, got 0.0", and not floored (a floor at the smallest
    subnormal would grant a looser bound than was asked for)."""
    h = _hierarchy_from({"f0": DENORMAL_PATCH})
    with pytest.raises(CompressionError) as refusal:
        compress_hierarchy(h, codec, 1e-4, mode="rel", batch=batch)
    message = str(refusal.value)
    assert "relative error bound 0.0001" in message and "3.5e-323" in message
    assert message.endswith("underflows to 0; increase the error bound or pass an absolute one")
    # the same data under an absolute bound, or a constant patch, still compresses
    compress_hierarchy(h, codec, 1e-4, mode="abs", batch=batch)
    compress_hierarchy(_hierarchy_from({"f0": np.zeros((2, 2, 2))}), codec, 1e-4,
                       mode="rel", batch=batch)


#: A patch whose value range times a relative bound of 1e300 overflows.
WIDE_PATCH = np.linspace(-1e10, 1e10, 64).reshape(4, 4, 4)

#: Bounds no codec may accept: infinite or NaN, or a relative one whose
#: product with ``WIDE_PATCH``'s value range overflows.
NON_FINITE_BOUNDS = [(math.inf, "abs"), (math.nan, "abs"), (math.inf, "rel"),
                     (math.nan, "rel"), (1e300, "rel")]


@pytest.mark.parametrize("bound, mode", NON_FINITE_BOUNDS)
@pytest.mark.parametrize("codec", CODICS)
def test_non_finite_bound_is_refused(codec, bound, mode):
    """A bound that is not finite is a ``CompressionError`` before a byte is
    written — from ``compress``, ``compress_batch`` and
    ``compress_hierarchy`` alike. Accepted, sz-lr wrote a stream its own
    reader refused, and sz-interp wrote streams that decode to NaN."""
    comp = make_codec(codec)
    with pytest.raises(CompressionError, match="finite"):
        comp.compress(WIDE_PATCH, bound, mode)
    with pytest.raises(CompressionError, match="finite"):
        comp.compress_batch([WIDE_PATCH, WIDE_PATCH[:2]], bound, mode)
    with pytest.raises(CompressionError, match="finite"):
        compress_hierarchy(_hierarchy_from({"f0": WIDE_PATCH}), codec, bound, mode=mode)


@pytest.mark.parametrize("bound, mode", NON_FINITE_BOUNDS)
def test_zmesh_refuses_a_non_finite_bound(bound, mode):
    with pytest.raises(CompressionError, match="finite"):
        ZMeshLike("sz-lr").compress_hierarchy(_hierarchy_from({"f0": WIDE_PATCH}), "f0",
                                              bound, mode)


@pytest.mark.parametrize("bound", [math.inf, math.nan])
def test_writers_refuse_a_non_finite_bound_before_writing(tmp_path, bound):
    """The series-wide bound is checked with the other arguments: neither
    the series file nor the campaign's manifest is created."""
    series, manifest = tmp_path / "run.rph2s", tmp_path / "camp.rphm"
    with pytest.raises(CompressionError, match="finite"):
        StreamingWriter.create(series, "sz-lr", bound)
    with pytest.raises(CompressionError, match="finite"):
        ShardedSeriesWriter.create(manifest, "sz-lr", bound, n_shards=2)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("bound, mode", NON_FINITE_BOUNDS)
def test_streaming_writer_refuses_a_non_finite_patch_bound(tmp_path, bound, mode):
    """A per-patch bound that is not finite is refused by ``add_patch``
    before the patch is buffered: the series is byte for byte the one
    written without the attempt."""
    def write(path, attempt):
        with StreamingWriter.create(path, "sz-lr", 1e-3) as writer:
            writer.begin_step()
            writer.add_patch(0, "f0", WIDE_PATCH)
            if attempt:
                with pytest.raises(CompressionError, match="finite"):
                    writer.add_patch(0, "f0", WIDE_PATCH, error_bound=bound, mode=mode)
            writer.end_step()
        return path.read_bytes()

    assert write(tmp_path / "tried.rph2s", True) == write(tmp_path / "plain.rph2s", False)
