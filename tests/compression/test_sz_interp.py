"""Tests for the SZ-Interp codec and the interpolation plan."""

from __future__ import annotations

import json
import struct

import numpy as np
import pytest

from repro.compression.base import StreamReader, StreamWriter
from repro.compression.interpolation import InterpPlan, anchor_stride, predict_axis
from repro.compression.lossless import compress_bytes
from repro.compression.sz_interp import SZInterp
from repro.compression.sz_lr import SZLR
from repro.errors import CompressionError, DecompressionError


def _with_shape(blob: bytes, shape: list) -> bytes:
    """``blob`` with its stream header's ``shape`` replaced by ``shape``."""
    version, n = struct.unpack_from("<BI", blob, 4)
    header = json.loads(blob[9 : 9 + n])
    raw = json.dumps({**header, "shape": shape}).encode()
    return blob[:4] + struct.pack("<BI", version, len(raw)) + raw + blob[9 + n :]


class TestPlan:
    def test_anchor_stride_power_of_two(self):
        assert anchor_stride((17, 5, 9)) == 32
        assert anchor_stride((64, 64, 64)) == 64
        assert anchor_stride((3,)) == 4

    def test_anchor_stride_capped(self):
        assert anchor_stride((4096,)) == 64

    def test_levels_halve(self):
        plan = InterpPlan((16, 16, 16))
        strides = [s for s, _ in plan.levels()]
        assert strides == [16, 8, 4, 2]

    def test_traversal_covers_every_point_once(self):
        shape = (11, 7, 5)
        plan = InterpPlan(shape)
        seen = np.zeros(shape, dtype=np.int32)
        seen[plan.anchor_slices()] += 1
        for stride, half in plan.levels():
            for axis in range(3):
                targets = np.arange(half, shape[axis], stride)
                if targets.size == 0:
                    continue
                grid = plan.target_grid(stride, axis)
                seen[grid] += 1
        assert (seen == 1).all()

    def test_traversal_covers_1d(self):
        shape = (23,)
        plan = InterpPlan(shape)
        seen = np.zeros(shape, dtype=np.int32)
        seen[plan.anchor_slices()] += 1
        for stride, half in plan.levels():
            targets = np.arange(half, shape[0], stride)
            if targets.size:
                seen[plan.target_grid(stride, 0)] += 1
        assert (seen == 1).all()


class TestPredictAxis:
    def test_linear_data_predicted_exactly(self):
        recon = np.arange(0.0, 32.0, 1.0)
        targets = np.arange(2, 30, 4)
        pred = predict_axis(recon, 0, targets, 2)
        assert np.allclose(pred, recon[targets])

    def test_cubic_data_predicted_exactly(self):
        # Cubic interpolation reproduces cubics exactly in the interior.
        x = np.arange(64.0)
        recon = 0.01 * x**3 - 0.2 * x**2 + x
        targets = np.arange(8, 56, 8)[1:-1]
        pred = predict_axis(recon, 0, targets, 4)
        assert np.allclose(pred, recon[targets], atol=1e-9)


class TestErrorBound:
    @pytest.mark.parametrize("eb", [1e-4, 1e-3, 1e-2])
    def test_smooth(self, smooth_field, eb):
        c = SZInterp()
        recon = c.decompress(c.compress(smooth_field, eb, mode="abs"))
        assert np.abs(recon - smooth_field).max() <= eb * (1 + 1e-12)

    def test_rough(self, rough_field):
        c = SZInterp()
        eb_abs = 1e-3 * (rough_field.max() - rough_field.min())
        recon = c.decompress(c.compress(rough_field, 1e-3, mode="rel"))
        assert np.abs(recon - rough_field).max() <= eb_abs * (1 + 1e-12)

    @pytest.mark.parametrize("shape", [(100,), (33, 5), (17, 5, 23), (4, 4, 4)])
    def test_odd_shapes(self, rng, shape):
        data = rng.normal(size=shape)
        c = SZInterp()
        recon = c.decompress(c.compress(data, 0.02, mode="abs"))
        assert recon.shape == shape
        assert np.abs(recon - data).max() <= 0.02 * (1 + 1e-12)

    def test_constant_field(self):
        data = np.zeros((9, 9, 9))
        c = SZInterp()
        recon = c.decompress(c.compress(data, 1e-5, mode="rel"))
        assert np.abs(recon).max() <= 1e-5


class TestBehaviour:
    def test_beats_szlr_on_smooth_data(self, smooth_field):
        from repro.compression.sz_lr import SZLR

        bi = SZInterp().compress(smooth_field, 1e-3, mode="rel")
        bl = SZLR().compress(smooth_field, 1e-3, mode="rel")
        assert len(bi) < len(bl)  # the paper's WarpX finding

    def test_deflate_variant(self, smooth_field):
        c = SZInterp(entropy="deflate")
        recon = c.decompress(c.compress(smooth_field, 1e-3))
        assert np.abs(recon - smooth_field).max() <= 1e-3 * (1 + 1e-12)

    def test_stream_header(self, smooth_field):
        blob = SZInterp().compress(smooth_field, 1e-3)
        reader = StreamReader(blob)
        assert reader.codec == "sz-interp"
        assert "stride" in reader.params

    def test_determinism(self, smooth_field):
        a = SZInterp().compress(smooth_field, 1e-3)
        b = SZInterp().compress(smooth_field, 1e-3)
        assert a == b


class TestValidation:
    def test_bad_entropy(self):
        with pytest.raises(Exception):
            SZInterp(entropy="rle")

    def test_truncated_stream(self, smooth_field):
        blob = SZInterp().compress(smooth_field, 1e-3)
        with pytest.raises(Exception):
            SZInterp().decompress(blob[: len(blob) - 40])

    def test_wrong_codec_rejected(self, smooth_field):
        from repro.compression.sz_lr import SZLR

        blob = SZLR().compress(smooth_field, 1e-3)
        with pytest.raises(DecompressionError):
            SZInterp().decompress(blob)

    def test_inf_rejected(self):
        data = np.ones((8, 8))
        data[3, 3] = np.inf
        with pytest.raises(CompressionError):
            SZInterp().compress(data, 1e-3)

    @pytest.mark.parametrize("codec", [SZInterp, SZLR], ids=lambda c: c.name)
    def test_forged_shape_refused_before_allocating(self, codec):
        """A header claiming a 4096^3 array (512 GiB of float64) over an
        8^3 stream is a DecompressionError, not a 512 GiB ``np.zeros``."""
        blob = codec().compress(np.random.default_rng(0).standard_normal((8, 8, 8)), 1e-2)
        assert codec().decompress(_with_shape(blob, [8, 8, 8])).shape == (8, 8, 8)
        with pytest.raises(DecompressionError):
            codec().decompress(_with_shape(blob, [4096, 4096, 4096]))

    @pytest.mark.parametrize("forgery", [
        {"eb": "0.01"}, {"eb": -0.01}, {"eb": None}, {"anchors": np.zeros(3)},
    ], ids=["eb-string", "eb-negative", "eb-null", "anchors-short"])
    def test_forged_sections_are_typed_refusals(self, forgery):
        """A bound or an anchors section that disagrees with the header is
        a DecompressionError, never a ValueError from ``float`` or
        ``reshape``, nor a silently wrong array."""
        codec = SZInterp(entropy="deflate")
        reader = StreamReader(codec.compress(np.random.default_rng(0).standard_normal((8, 8, 8)), 1e-2))
        params = {**reader.params, **{k: v for k, v in forgery.items() if k == "eb"}}
        writer = StreamWriter(reader.codec, reader.shape, reader.dtype, params)
        anchors = forgery.get("anchors")
        writer.add_section("anchors", reader.section("anchors") if anchors is None
                           else compress_bytes(anchors.tobytes(), "deflate"))
        writer.add_section("codes", reader.section("codes"))
        with pytest.raises(DecompressionError):
            codec.decompress(writer.tobytes())


