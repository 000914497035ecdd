"""Tests for repro.amr.coverage."""

from __future__ import annotations

import numpy as np

from repro.amr import (
    AMRHierarchy,
    Box,
    BoxArray,
    level_covered_masks,
    patch_covered_mask,
)


class TestPatchCoveredMask:
    def test_half_covered(self):
        patch_box = Box((0, 0), (3, 3))
        fine = BoxArray([Box((0, 0), (3, 7))])  # coarsens to (0,0)-(1,3)
        mask = patch_covered_mask(patch_box, fine, (2, 2))
        assert mask[:2].all()
        assert not mask[2:].any()

    def test_no_overlap(self):
        mask = patch_covered_mask(Box((0, 0), (3, 3)), BoxArray([Box((20, 20), (23, 23))]), 2)
        assert not mask.any()

    def test_scalar_ratio(self):
        mask = patch_covered_mask(Box((0,), (7,)), BoxArray([Box((0,), (7,))]), 2)
        assert mask[:4].all() and not mask[4:].any()


class TestLevelMasks:
    def test_finest_level_all_false(self, sphere_hierarchy: AMRHierarchy):
        masks = level_covered_masks(sphere_hierarchy, 1)
        assert all(not m.any() for m in masks)

    def test_coarse_level_half_covered(self, sphere_hierarchy: AMRHierarchy):
        masks = level_covered_masks(sphere_hierarchy, 0)
        assert len(masks) == 1
        m = masks[0]
        assert m[8:].all() and not m[:8].any()

    def test_masks_align_with_boxes(self, multi_field_hierarchy):
        masks = level_covered_masks(multi_field_hierarchy, 0)
        for m, b in zip(masks, multi_field_hierarchy[0].boxes):
            assert m.shape == b.shape
