"""Tests for repro.amr.boxarray.BoxArray."""

from __future__ import annotations

import numpy as np
import pytest

from repro.amr import Box, BoxArray
from repro.errors import BoxError


@pytest.fixture
def disjoint_pair() -> BoxArray:
    return BoxArray([Box((0, 0), (3, 3)), Box((4, 0), (7, 3))])


class TestContainer:
    def test_len_iter_getitem(self, disjoint_pair: BoxArray):
        assert len(disjoint_pair) == 2
        assert list(disjoint_pair)[0] == disjoint_pair[0]

    def test_equality(self, disjoint_pair: BoxArray):
        same = BoxArray([Box((0, 0), (3, 3)), Box((4, 0), (7, 3))])
        assert disjoint_pair == same
        assert disjoint_pair != BoxArray([Box((0, 0), (3, 3))])

    def test_mixed_dims_rejected(self):
        with pytest.raises(BoxError):
            BoxArray([Box((0,), (1,)), Box((0, 0), (1, 1))])

    def test_empty_array_properties(self):
        ba = BoxArray([])
        assert len(ba) == 0
        assert ba.cell_count() == 0
        with pytest.raises(BoxError):
            _ = ba.ndim
        with pytest.raises(BoxError):
            ba.bounding_box()


class TestGeometry:
    def test_bounding_box(self, disjoint_pair: BoxArray):
        assert disjoint_pair.bounding_box() == Box((0, 0), (7, 3))

    def test_cell_count_disjoint(self, disjoint_pair: BoxArray):
        assert disjoint_pair.cell_count() == 32

    def test_cell_count_overlapping_counts_union(self):
        ba = BoxArray([Box((0, 0), (3, 3)), Box((2, 0), (5, 3))])
        assert not ba.is_disjoint()
        assert ba.cell_count() == 6 * 4  # union is 0..5 x 0..3

    def test_is_disjoint(self, disjoint_pair: BoxArray):
        assert disjoint_pair.is_disjoint()

    def test_mask_window(self, disjoint_pair: BoxArray):
        window = Box((2, 0), (5, 3))
        mask = disjoint_pair.mask(window)
        assert mask.shape == window.shape
        assert mask.all()  # window fully covered by the two boxes

    def test_mask_partial(self):
        ba = BoxArray([Box((0, 0), (1, 1))])
        mask = ba.mask(Box((0, 0), (3, 3)))
        assert mask.sum() == 4
        assert mask[0, 0] and not mask[2, 2]


class TestTransforms:
    def test_refine_coarsen(self, disjoint_pair: BoxArray):
        refined = disjoint_pair.refine(2)
        assert refined.cell_count() == disjoint_pair.cell_count() * 4
        assert refined.coarsen(2) == disjoint_pair

    def test_clamped_drops_outside(self):
        ba = BoxArray([Box((0, 0), (3, 3)), Box((10, 10), (12, 12))])
        clamped = ba.clamped(Box((0, 0), (5, 5)))
        assert len(clamped) == 1
        assert clamped[0] == Box((0, 0), (3, 3))

    def test_clamped_trims(self):
        ba = BoxArray([Box((2, 2), (8, 8))])
        clamped = ba.clamped(Box((0, 0), (5, 5)))
        assert clamped[0] == Box((2, 2), (5, 5))

    def test_mask_equals_per_box_or(self):
        rng = np.random.default_rng(0)
        boxes = []
        for _ in range(5):
            lo = rng.integers(0, 10, size=2)
            ext = rng.integers(0, 5, size=2)
            boxes.append(Box(tuple(lo), tuple(lo + ext)))
        ba = BoxArray(boxes)
        window = Box((0, 0), (15, 15))
        expected = np.zeros(window.shape, dtype=bool)
        for b in boxes:
            expected[b.slices()] = True
        assert np.array_equal(ba.mask(window), expected)
