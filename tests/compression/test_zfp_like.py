"""Tests for the ZFP-like transform codec."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.compression.zfp_like import ZFPLike, s_transform_forward, s_transform_inverse
from repro.errors import CompressionError


class TestSTransform:
    def test_roundtrip_1d(self, rng):
        q = rng.integers(-(2**30), 2**30, size=(10, 4))
        f = s_transform_forward(q, (1,))
        assert np.array_equal(s_transform_inverse(f, (1,)), q)

    def test_roundtrip_3d(self, rng):
        q = rng.integers(-(2**20), 2**20, size=(7, 4, 4, 4))
        axes = (1, 2, 3)
        assert np.array_equal(s_transform_inverse(s_transform_forward(q, axes), axes), q)

    def test_constant_block_single_coefficient(self):
        q = np.full((1, 4, 4, 4), 100, dtype=np.int64)
        f = s_transform_forward(q, (1, 2, 3))
        assert f[0, 0, 0, 0] == 100
        assert np.count_nonzero(f) == 1

    def test_wrong_length_rejected(self):
        with pytest.raises(CompressionError):
            s_transform_forward(np.zeros((2, 5), dtype=np.int64), (1,))

    @settings(max_examples=40, deadline=None)
    @given(hnp.arrays(np.int64, (3, 4, 4), elements=st.integers(-(2**30), 2**30)))
    def test_roundtrip_property(self, q):
        axes = (1, 2)
        assert np.array_equal(s_transform_inverse(s_transform_forward(q, axes), axes), q)


class TestCodec:
    @pytest.mark.parametrize("eb", [1e-3, 1e-2])
    def test_error_bound(self, smooth_field, eb):
        c = ZFPLike()
        recon = c.decompress(c.compress(smooth_field, eb, mode="abs"))
        assert np.abs(recon - smooth_field).max() <= eb * (1 + 1e-12)

    @pytest.mark.parametrize("shape", [(19,), (9, 13), (10, 11, 12)])
    def test_odd_shapes(self, rng, shape):
        data = rng.normal(size=shape)
        c = ZFPLike()
        recon = c.decompress(c.compress(data, 0.01, mode="abs"))
        assert recon.shape == shape
        assert np.abs(recon - data).max() <= 0.01 * (1 + 1e-12)

    def test_compresses_smooth_data(self, smooth_field):
        c = ZFPLike()
        blob = c.compress(smooth_field, 1e-3, mode="rel")
        assert smooth_field.nbytes / len(blob) > 4
