"""Tests for the SZ-L/R codec."""

from __future__ import annotations

import numpy as np
import pytest

from repro.compression.base import StreamReader
from repro.compression.sz_lr import MODE_LORENZO, MODE_REGRESSION, SZLR
from repro.errors import CompressionError, DecompressionError


@pytest.fixture(params=["auto", "lorenzo", "regression"])
def codec(request) -> SZLR:
    return SZLR(predictor=request.param)


class TestErrorBound:
    @pytest.mark.parametrize("eb", [1e-4, 1e-3, 1e-2])
    def test_smooth_3d(self, codec, smooth_field, eb):
        blob = codec.compress(smooth_field, eb, mode="abs")
        recon = codec.decompress(blob)
        assert np.abs(recon - smooth_field).max() <= eb * (1 + 1e-12)

    def test_rough_3d(self, codec, rough_field):
        eb = 1e-3 * (rough_field.max() - rough_field.min())
        recon = codec.decompress(codec.compress(rough_field, 1e-3, mode="rel"))
        assert np.abs(recon - rough_field).max() <= eb * (1 + 1e-12)

    @pytest.mark.parametrize("shape", [(50,), (31, 17), (13, 14, 15)])
    def test_odd_shapes(self, rng, shape):
        data = rng.normal(size=shape)
        c = SZLR()
        recon = c.decompress(c.compress(data, 0.01, mode="abs"))
        assert recon.shape == shape
        assert np.abs(recon - data).max() <= 0.01 * (1 + 1e-12)

    def test_constant_field(self):
        data = np.full((12, 12, 12), 3.14)
        c = SZLR()
        recon = c.decompress(c.compress(data, 1e-6, mode="rel"))
        assert np.abs(recon - data).max() <= 1e-6


class TestBehaviour:
    def test_smooth_data_compresses_well(self, smooth_field):
        c = SZLR()
        blob = c.compress(smooth_field, 1e-3, mode="rel")
        assert smooth_field.nbytes / len(blob) > 5

    def test_auto_no_worse_than_either(self, rough_field):
        blobs = {
            p: len(SZLR(predictor=p).compress(rough_field, 1e-3, mode="rel"))
            for p in ("auto", "lorenzo", "regression")
        }
        assert blobs["auto"] <= 1.05 * min(blobs["lorenzo"], blobs["regression"])

    def test_mode_forcing(self, smooth_field):
        for pred, expect in (("lorenzo", MODE_LORENZO), ("regression", MODE_REGRESSION)):
            blob = SZLR(predictor=pred).compress(smooth_field, 1e-3)
            reader = StreamReader(blob)
            from repro.compression.lossless import decompress_bytes

            modes = np.frombuffer(decompress_bytes(reader.section("modes"), smooth_field.size), dtype=np.uint8)
            assert (modes == expect).all()

    def test_deflate_entropy_variant(self, smooth_field):
        c = SZLR(entropy="deflate")
        recon = c.decompress(c.compress(smooth_field, 1e-3))
        assert np.abs(recon - smooth_field).max() <= 1e-3 * (1 + 1e-12)

    def test_block_size_variants(self, smooth_field):
        for bs in (4, 8, 12):
            c = SZLR(block_size=bs)
            recon = c.decompress(c.compress(smooth_field, 1e-3))
            assert np.abs(recon - smooth_field).max() <= 1e-3 * (1 + 1e-12)

    def test_stage_times_recorded(self, smooth_field):
        c = SZLR()
        c.compress(smooth_field, 1e-3)
        stages = c.last_stage_times.stages
        assert {"blockify", "lorenzo", "regression", "entropy"} <= set(stages)

    def test_stream_self_describing(self, smooth_field):
        blob = SZLR().compress(smooth_field, 1e-3)
        reader = StreamReader(blob)
        assert reader.codec == "sz-lr"
        assert reader.shape == smooth_field.shape


class TestRandomAccess:
    def test_block_matches_full_decode(self, smooth_field):
        c = SZLR(block_size=6)
        blob = c.compress(smooth_field, 1e-3, mode="abs")
        full = c.decompress(blob)
        padded = np.pad(full, [(0, (-s) % 6) for s in full.shape], mode="edge")
        nb = tuple(s // 6 for s in padded.shape)
        for idx in (0, 7, nb[0] * nb[1] * nb[2] - 1):
            block = c.decompress_block(blob, idx)
            bi = np.unravel_index(idx, nb)
            expect = padded[
                bi[0] * 6 : bi[0] * 6 + 6, bi[1] * 6 : bi[1] * 6 + 6, bi[2] * 6 : bi[2] * 6 + 6
            ]
            # Random access must agree with the full reconstruction wherever
            # the block lies inside the unpadded array.
            assert np.allclose(block, expect, atol=1e-12)

    def test_out_of_range_rejected(self, smooth_field):
        c = SZLR()
        blob = c.compress(smooth_field, 1e-2)
        with pytest.raises(DecompressionError):
            c.decompress_block(blob, 10**6)


class TestValidation:
    def test_bad_parameters(self):
        with pytest.raises(CompressionError):
            SZLR(block_size=1)
        with pytest.raises(CompressionError):
            SZLR(entropy="arith")
        with pytest.raises(CompressionError):
            SZLR(predictor="dct")

    def test_nan_rejected(self):
        data = np.ones((8, 8))
        data[0, 0] = np.nan
        with pytest.raises(CompressionError):
            SZLR().compress(data, 1e-3)

    def test_int_rejected(self):
        with pytest.raises(CompressionError):
            SZLR().compress(np.ones((4, 4), dtype=np.int32), 1e-3)

    def test_4d_rejected(self):
        with pytest.raises(CompressionError):
            SZLR().compress(np.zeros((2, 2, 2, 2)), 1e-3)

    def test_zero_eb_rejected(self, smooth_field):
        with pytest.raises(CompressionError):
            SZLR().compress(smooth_field, 0.0)

    def test_wrong_codec_stream_rejected(self, smooth_field):
        from repro.compression.sz_interp import SZInterp

        blob = SZInterp().compress(smooth_field, 1e-3)
        with pytest.raises(DecompressionError):
            SZLR().decompress(blob)

    def test_float32_preserved(self, rng):
        data = rng.normal(size=(12, 12, 12)).astype(np.float32)
        c = SZLR()
        recon = c.decompress(c.compress(data, 1e-2, mode="abs"))
        assert recon.dtype == np.float32
        assert np.abs(recon.astype(np.float64) - data).max() <= 1e-2 * (1 + 1e-6)
