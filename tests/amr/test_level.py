"""Tests for repro.amr.level.AMRLevel."""

from __future__ import annotations

import numpy as np
import pytest

from repro.amr import AMRLevel, Box, BoxArray, Patch
from repro.errors import HierarchyError


@pytest.fixture
def two_box_level() -> AMRLevel:
    boxes = BoxArray([Box((0, 0), (3, 3)), Box((4, 0), (7, 3))])
    level = AMRLevel(0, boxes, (1.0, 1.0))
    level.add_field("f", [Patch.full(boxes[0], 1.0), Patch.full(boxes[1], 2.0)])
    return level


class TestConstruction:
    def test_negative_index_rejected(self):
        with pytest.raises(HierarchyError):
            AMRLevel(-1, BoxArray([Box((0,), (1,))]), (1.0,))

    def test_empty_boxes_rejected(self):
        with pytest.raises(HierarchyError):
            AMRLevel(0, BoxArray([]), (1.0,))

    def test_overlapping_boxes_rejected(self):
        with pytest.raises(HierarchyError):
            AMRLevel(0, BoxArray([Box((0,), (5,)), Box((3,), (8,))]), (1.0,))

    def test_dx_dim_mismatch_rejected(self):
        with pytest.raises(HierarchyError):
            AMRLevel(0, BoxArray([Box((0, 0), (1, 1))]), (1.0,))


class TestFields:
    def test_field_names(self, two_box_level: AMRLevel):
        assert two_box_level.field_names == ("f",)

    def test_patch_count_must_match(self, two_box_level: AMRLevel):
        with pytest.raises(HierarchyError):
            two_box_level.add_field("g", [Patch.full(two_box_level.boxes[0], 0.0)])

    def test_patch_box_must_match(self, two_box_level: AMRLevel):
        wrong = Patch.full(Box((0, 0), (2, 2)), 0.0)
        with pytest.raises(HierarchyError):
            two_box_level.add_field("g", [wrong, wrong])

    def test_missing_field_raises(self, two_box_level: AMRLevel):
        with pytest.raises(HierarchyError):
            two_box_level.patches("nope")


class TestAssembly:
    def test_to_array_full_window(self, two_box_level: AMRLevel):
        arr = two_box_level.to_array("f")
        assert arr.shape == (8, 4)
        assert (arr[:4] == 1.0).all()
        assert (arr[4:] == 2.0).all()

    def test_to_array_fill_uncovered(self):
        boxes = BoxArray([Box((0, 0), (1, 1))])
        level = AMRLevel(1, boxes, (1.0, 1.0), {"f": [Patch.full(boxes[0], 3.0)]})
        arr = level.to_array("f", window=Box((0, 0), (3, 3)))
        assert np.isnan(arr[2, 2])
        assert arr[0, 0] == 3.0

    def test_to_array_custom_fill(self, two_box_level: AMRLevel):
        arr = two_box_level.to_array("f", window=Box((0, 0), (9, 9)), fill=-1.0)
        assert arr[9, 9] == -1.0

    def test_cell_count(self, two_box_level: AMRLevel):
        assert two_box_level.cell_count() == 32

    def test_ndim(self, two_box_level: AMRLevel):
        assert two_box_level.ndim == 2
