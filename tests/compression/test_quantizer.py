"""Tests for the error-bounded quantizer."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from hypothesis.extra import numpy as hnp

from repro.compression.quantizer import (
    prequantize,
    quantize_residuals,
    reconstruct_from_codes,
)
from repro.errors import CompressionError


class TestResidualQuantizer:
    def test_roundtrip_bound(self, rng):
        values = rng.normal(size=1000)
        preds = values + rng.normal(size=1000) * 0.5
        eb = 0.01
        codes = quantize_residuals(values, preds, eb)
        recon = reconstruct_from_codes(preds, codes, eb)
        assert np.abs(recon - values).max() <= eb * (1 + 1e-12)

    def test_perfect_prediction_zero_codes(self):
        values = np.linspace(0, 1, 50)
        codes = quantize_residuals(values, values, 0.1)
        assert (codes == 0).all()

    def test_codes_are_int64(self, rng):
        codes = quantize_residuals(rng.normal(size=10), np.zeros(10), 0.5)
        assert codes.dtype == np.int64

    def test_nonpositive_eb_rejected(self):
        with pytest.raises(CompressionError):
            quantize_residuals(np.ones(3), np.zeros(3), 0.0)
        with pytest.raises(CompressionError):
            reconstruct_from_codes(np.zeros(3), np.zeros(3, dtype=np.int64), -1.0)

    def test_overflow_guard(self):
        with pytest.raises(CompressionError):
            quantize_residuals(np.array([1e30]), np.array([0.0]), 1e-10)


class TestPrequantizer:
    def test_bound(self, rng):
        data = rng.normal(size=(8, 8, 8)) * 10
        eb = 0.05
        q = prequantize(data, eb)
        assert np.abs(q * (2.0 * eb) - data).max() <= eb * (1 + 1e-12)

    def test_integer_output(self):
        q = prequantize(np.array([0.2, 0.9, -0.9]), 0.25)
        assert q.dtype == np.int64
        assert np.array_equal(q, [0, 2, -2])

    def test_overflow_guard(self):
        with pytest.raises(CompressionError):
            prequantize(np.array([1e30]), 1e-12)

    def test_bad_eb(self):
        with pytest.raises(CompressionError):
            prequantize(np.ones(3), 0.0)


class TestHalfWayTies:
    """A residual (or value) exactly half-way between two lattice points:
    ``rint``'s tie plus the reconstruction's rounding can land outside the
    bound; the quantizer steps such a code back inside where a neighbour is."""

    def test_residual_tie_steps_inside(self):
        values, preds, eb = np.full(32, 174.0), np.full(32, 1e-5), 1e-5
        codes = quantize_residuals(values, preds, eb)
        assert (codes == 8_699_999).all()
        assert np.abs(reconstruct_from_codes(preds, codes, eb) - values).max() <= eb

    def test_prequantize_tie_steps_inside(self):
        data, eb = np.array([1953843.5, 1.0]), 0.1
        q = prequantize(data, eb)
        assert q.tolist() == [9_769_217, 5]
        assert np.abs(q * (2.0 * eb) - data).max() <= eb

    def test_per_row_bounds_step_their_own_rows(self):
        values = np.array([[174.0, 0.3], [174.0, 0.3]])
        preds = np.array([[1e-5, 0.0], [1e-5, 0.0]])
        eb = np.array([[1e-5], [0.25]])
        codes = quantize_residuals(values, preds, eb)
        assert codes.tolist() == [[8_699_999, 15_000], [348, 1]]
        assert (np.abs(reconstruct_from_codes(preds, codes, eb) - values) <= eb).all()

    def test_no_neighbour_inside_keeps_the_rounded_code(self):
        # Both neighbours miss by 3.6e-17, the reconstruction's own
        # rounding; SZ-L/R computes such residuals on ordinary data, so
        # the code rint picked is kept rather than refused.
        values, preds = np.array([0.8118988160479113]), np.array([0.8070274231516238])
        codes = quantize_residuals(values, preds, 0.0016237976320958225)
        assert codes.tolist() == [1]


class TestProperties:
    @given(
        hnp.arrays(
            np.float64,
            st.integers(1, 64),
            elements=st.floats(-1e6, 1e6, allow_nan=False),
        ),
        st.floats(1e-6, 1e2),
    )
    def test_prequant_bound_holds(self, data, eb):
        q = prequantize(data, eb)
        assert np.abs(q * (2.0 * eb) - data).max(initial=0.0) <= eb * (1 + 1e-9)

    @given(
        hnp.arrays(np.float64, 32, elements=st.floats(-1e4, 1e4, allow_nan=False)),
        hnp.arrays(np.float64, 32, elements=st.floats(-1e4, 1e4, allow_nan=False)),
        st.floats(1e-5, 10.0),
    )
    # A residual exactly half-way between two lattice points: rint's tie
    # and the reconstruction's rounding had landed 3e-15 outside the bound.
    @example(np.full(32, 174.0), np.full(32, 1e-5), 1e-5)
    def test_residual_bound_holds_any_prediction(self, values, preds, eb):
        codes = quantize_residuals(values, preds, eb)
        recon = reconstruct_from_codes(preds, codes, eb)
        assert np.abs(recon - values).max() <= eb * (1 + 1e-9)
