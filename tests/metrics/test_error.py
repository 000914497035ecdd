"""Tests for point-wise error metrics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import MetricError
from repro.metrics import max_abs_error, mse, psnr, verify_error_bound


class TestBasics:
    def test_identical_arrays(self, rng):
        a = rng.normal(size=(10, 10))
        assert max_abs_error(a, a) == 0.0
        assert mse(a, a) == 0.0
        assert psnr(a, a) == float("inf")

    def test_known_values(self):
        a = np.array([0.0, 1.0, 2.0, 3.0])
        b = a + np.array([0.1, -0.1, 0.1, -0.1])
        assert max_abs_error(a, b) == pytest.approx(0.1)
        assert mse(a, b) == pytest.approx(0.01)

    def test_psnr_formula(self):
        a = np.array([0.0, 10.0])
        b = np.array([1.0, 10.0])
        # range = 10, mse = 0.5 -> psnr = 20log10(10) - 10log10(0.5)
        assert psnr(a, b) == pytest.approx(20.0 + 10.0 * np.log10(2.0))

    def test_psnr_decreases_with_noise(self, rng):
        a = rng.normal(size=1000)
        small = a + 1e-5 * rng.normal(size=1000)
        large = a + 1e-2 * rng.normal(size=1000)
        assert psnr(a, small) > psnr(a, large)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(Exception):
            mse(np.zeros(3), np.zeros(4))

    def test_constant_reference_rejected(self):
        with pytest.raises(MetricError):
            psnr(np.full(5, 2.0), np.zeros(5))


class TestVerifyBound:
    def test_within(self):
        a = np.zeros(10)
        assert verify_error_bound(a, a + 0.01, 0.02)

    def test_exceeds(self):
        a = np.zeros(10)
        assert not verify_error_bound(a, a + 0.05, 0.02)

    def test_exact_boundary_tolerated(self):
        a = np.zeros(4)
        b = a + 0.02 * (1 + 1e-12)
        assert verify_error_bound(a, b, 0.02)

    def test_bad_eb_rejected(self):
        with pytest.raises(MetricError):
            verify_error_bound(np.zeros(2), np.zeros(2), 0.0)
