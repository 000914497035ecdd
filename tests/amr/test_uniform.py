"""Tests for repro.amr.uniform (up-sampling and compositing)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.amr import (
    AMRHierarchy,
    AMRLevel,
    Box,
    BoxArray,
    Patch,
    flatten_to_uniform,
    upsample_nearest,
)
from repro.errors import HierarchyError


class TestUpsampleNearest:
    def test_each_cell_repeats(self):
        arr = np.array([[1.0, 2.0], [3.0, 4.0]])
        up = upsample_nearest(arr, (2, 2))
        assert up.shape == (4, 4)
        assert (up[:2, :2] == 1.0).all()
        assert (up[2:, 2:] == 4.0).all()

    def test_ratio_one_identity(self):
        arr = np.arange(6.0).reshape(2, 3)
        assert np.array_equal(upsample_nearest(arr, (1, 1)), arr)

    def test_anisotropic(self):
        arr = np.array([[1.0, 2.0]])
        up = upsample_nearest(arr, (3, 1))
        assert up.shape == (3, 2)

    def test_rank_mismatch_rejected(self):
        with pytest.raises(HierarchyError):
            upsample_nearest(np.zeros((2, 2)), (2,))

    def test_conservation(self):
        rng = np.random.default_rng(0)
        arr = rng.normal(size=(4, 5))
        up = upsample_nearest(arr, (2, 2))
        assert up.mean() == pytest.approx(arr.mean())


class TestFlatten:
    def test_single_level_identity(self, rng):
        dom = Box.from_shape((4, 4, 4))
        data = rng.normal(size=dom.shape)
        lev = AMRLevel(0, BoxArray([dom]), (1.0,) * 3, {"f": [Patch(dom, data)]})
        h = AMRHierarchy(dom, [lev], 2)
        assert np.array_equal(flatten_to_uniform(h, "f"), data)

    def test_fine_overrides_coarse(self, sphere_hierarchy):
        uniform = flatten_to_uniform(sphere_hierarchy, "f")
        assert uniform.shape == (32, 32, 32)
        fine = sphere_hierarchy[1].patches("f")[0]
        assert np.array_equal(uniform[16:], fine.data)

    def test_nearest_matches_manual_upsample(self, sphere_hierarchy):
        uniform = flatten_to_uniform(sphere_hierarchy, "f")
        coarse = sphere_hierarchy[0].patches("f")[0].data
        up = upsample_nearest(coarse, (2, 2, 2))
        # Un-refined half comes from the coarse level.
        assert np.array_equal(uniform[:16], up[:16])
