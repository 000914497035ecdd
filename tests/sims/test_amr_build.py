"""Tests for hierarchy assembly from fine fields."""

from __future__ import annotations

import numpy as np
import pytest

from repro.amr import Box, BoxArray
from repro.errors import ReproError
import repro.sims.amr_build as amr_build
from repro.sims import average_pool, calibrated_boxes, two_level_hierarchy
from repro.sims.amr_build import nested_calibrated_boxes
from repro.sims.spectral import gaussian_random_field


class TestAveragePool:
    def test_block_means(self):
        arr = np.arange(16.0).reshape(4, 4)
        pooled = average_pool(arr, 2)
        assert pooled.shape == (2, 2)
        assert pooled[0, 0] == pytest.approx((0 + 1 + 4 + 5) / 4)

    def test_conservation(self, rng):
        arr = rng.normal(size=(8, 8, 8))
        assert average_pool(arr, 2).mean() == pytest.approx(arr.mean())

    def test_indivisible_rejected(self):
        with pytest.raises(ReproError):
            average_pool(np.zeros((5, 4)), 2)


class TestCalibratedBoxes:
    def test_hits_target_fraction(self):
        score = gaussian_random_field((32, 32, 32), spectral_index=-3.0, seed=0)
        for target in (0.1, 0.4):
            boxes = calibrated_boxes(score, target, tolerance=0.05)
            dom = Box.from_shape(score.shape)
            frac = boxes.mask(dom).sum() / dom.size
            assert abs(frac - target) < 0.08

    def test_boxes_cover_high_scores(self):
        score = np.zeros((16, 16, 16))
        score[4:8, 4:8, 4:8] = 1.0
        boxes = calibrated_boxes(score, 0.0625, tolerance=0.02)
        dom = Box.from_shape(score.shape)
        mask = boxes.mask(dom)
        assert mask[5, 5, 5]

    def test_invalid_fraction_rejected(self):
        with pytest.raises(ReproError):
            calibrated_boxes(np.zeros((8, 8)), 0.0)
        with pytest.raises(ReproError):
            calibrated_boxes(np.zeros((8, 8)), 1.0)

    @pytest.mark.parametrize("tolerance", [-0.01, float("nan"), "0.02", None, True])
    def test_tolerance_is_a_number_at_least_zero(self, tolerance):
        score = np.arange(512.0).reshape(8, 8, 8)
        with pytest.raises(ReproError, match="tolerance"):
            calibrated_boxes(score, 0.25, tolerance=tolerance)

    @pytest.mark.parametrize("max_iter", [0, -3, 2.0, True])
    def test_max_iter_is_a_positive_integer(self, max_iter):
        score = np.arange(512.0).reshape(8, 8, 8)
        with pytest.raises(ReproError, match="max_iter"):
            calibrated_boxes(score, 0.25, max_iter=max_iter)

    @pytest.fixture
    def no_work(self, monkeypatch):
        """Any quantile, floor or clustering fails the test."""
        def boom(*args, **kwargs):
            raise AssertionError("work began before the arguments were checked")
        monkeypatch.setattr(amr_build.np, "quantile", boom)
        monkeypatch.setattr(amr_build, "_block_floor", boom)
        monkeypatch.setattr(amr_build, "cluster_tags", boom)

    @pytest.mark.parametrize("argument, value", [
        *(("blocking_factor", v) for v in (0, -2, 2.5, True, "4")),
        *(("efficiency", v) for v in (0, 1.5, float("nan"), "0.7")),
    ])
    def test_blocking_and_efficiency_are_checked_first(self, no_work, argument, value):
        score = np.arange(512.0).reshape(8, 8, 8)
        with pytest.raises(ReproError, match=argument):
            calibrated_boxes(score, 0.25, **{argument: value})

    @pytest.mark.parametrize("value", [0, -2, 2.5, True, "4"])
    def test_nested_blocking_is_checked_first(self, no_work, value):
        score = np.arange(512.0).reshape(8, 8, 8)
        outer = BoxArray([Box((0, 0, 0), (7, 7, 3))])
        with pytest.raises(ReproError, match="blocking_factor"):
            nested_calibrated_boxes(score, outer, 0.25, blocking_factor=value)

    def test_zero_tolerance_and_one_step_still_run(self):
        score = np.arange(512.0).reshape(8, 8, 8)
        assert len(calibrated_boxes(score, 0.25, tolerance=0.0, max_iter=1)) > 0


class TestTwoLevelHierarchy:
    def test_assembly(self, rng):
        fine = {"f": rng.normal(size=(16, 16, 16)), "g": rng.normal(size=(16, 16, 16))}
        boxes = BoxArray([Box((0, 0, 0), (3, 3, 3))])
        h = two_level_hierarchy(fine, boxes, dx_coarse=0.125)
        assert h.n_levels == 2
        assert h.grid_shape(1) == (16, 16, 16)
        assert set(h.field_names) == {"f", "g"}

    def test_coarse_is_average_down(self, rng):
        data = rng.normal(size=(8, 8, 8))
        boxes = BoxArray([Box((0, 0, 0), (1, 1, 1))])
        h = two_level_hierarchy({"f": data}, boxes, dx_coarse=0.25)
        coarse = h[0].patches("f")[0].data
        assert np.allclose(coarse, average_pool(data, 2))

    def test_fine_patches_cut_from_input(self, rng):
        data = rng.normal(size=(8, 8, 8))
        boxes = BoxArray([Box((1, 1, 1), (2, 2, 2))])
        h = two_level_hierarchy({"f": data}, boxes, dx_coarse=0.25)
        fine = h[1].patches("f")[0]
        assert fine.box == Box((2, 2, 2), (5, 5, 5))
        assert np.array_equal(fine.data, data[2:6, 2:6, 2:6])

    def test_dx_halves(self, rng):
        data = rng.normal(size=(8, 8, 8))
        boxes = BoxArray([Box((0, 0, 0), (1, 1, 1))])
        h = two_level_hierarchy({"f": data}, boxes, dx_coarse=1.0)
        assert h[1].dx == (0.5, 0.5, 0.5)

    def test_no_fields_rejected(self):
        with pytest.raises(ReproError):
            two_level_hierarchy({}, BoxArray([Box((0, 0, 0), (1, 1, 1))]), 1.0)

    def test_mismatched_shapes_rejected(self, rng):
        fine = {"f": rng.normal(size=(8, 8, 8)), "g": rng.normal(size=(4, 4, 4))}
        with pytest.raises(ReproError):
            two_level_hierarchy(fine, BoxArray([Box((0, 0, 0), (1, 1, 1))]), 1.0)
