"""Unit and property tests for repro.amr.box.Box."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.amr import Box
from repro.errors import BoxError


def boxes_3d(max_coord: int = 20, max_extent: int = 8):
    """Hypothesis strategy for small 3-D boxes."""

    def build(lo, ext):
        return Box(tuple(lo), tuple(l + e for l, e in zip(lo, ext)))

    lo = st.tuples(*[st.integers(-max_coord, max_coord)] * 3)
    ext = st.tuples(*[st.integers(0, max_extent)] * 3)
    return st.builds(build, lo, ext)


class TestConstruction:
    def test_basic_shape_and_size(self):
        b = Box((0, 0, 0), (7, 3, 1))
        assert b.shape == (8, 4, 2)
        assert b.size == 64
        assert b.ndim == 3

    def test_from_shape(self):
        b = Box.from_shape((4, 5), lo=(2, 3))
        assert b.lo == (2, 3)
        assert b.hi == (5, 7)

    def test_single_cell(self):
        b = Box((1, 1, 1), (1, 1, 1))
        assert b.size == 1

    def test_empty_box_rejected(self):
        with pytest.raises(BoxError):
            Box((0, 0), (-1, 0))

    def test_dim_mismatch_rejected(self):
        with pytest.raises(BoxError):
            Box((0, 0), (1, 1, 1))

    def test_zero_dim_rejected(self):
        with pytest.raises(BoxError):
            Box((), ())

    def test_from_shape_nonpositive_rejected(self):
        with pytest.raises(BoxError):
            Box.from_shape((0, 4))


class TestQueries:
    def test_contains_box(self):
        outer = Box((0, 0), (9, 9))
        assert outer.contains_box(Box((2, 2), (5, 5)))
        assert outer.contains_box(outer)
        assert not outer.contains_box(Box((5, 5), (10, 10)))

    def test_intersection(self):
        a = Box((0, 0), (4, 4))
        b = Box((3, 3), (6, 6))
        ov = a.intersection(b)
        assert ov == Box((3, 3), (4, 4))

    def test_disjoint_intersection_none(self):
        assert Box((0, 0), (1, 1)).intersection(Box((5, 5), (6, 6))) is None

    def test_touching_boxes_intersect_on_shared_cell_only(self):
        a = Box((0,), (4,))
        b = Box((4,), (8,))
        assert a.intersection(b) == Box((4,), (4,))
        assert Box((0,), (3,)).intersection(b) is None


class TestTransforms:
    def test_refine_coarsen_roundtrip(self):
        b = Box((1, 2, 3), (4, 5, 6))
        assert b.refine(2).coarsen(2) == b

    def test_refine_scales_size(self):
        b = Box((0, 0, 0), (3, 3, 3))
        assert b.refine(2).size == b.size * 8

    def test_refine_anisotropic(self):
        b = Box((0, 0), (1, 1))
        r = b.refine((2, 4))
        assert r.shape == (4, 8)

    def test_coarsen_negative_coords_floor(self):
        # AMReX coarsen floors: cell -1 maps to coarse cell -1 (not 0).
        b = Box((-2, -1), (1, 1))
        c = b.coarsen(2)
        assert c.lo == (-1, -1)
        assert c.hi == (0, 0)

    def test_shift(self):
        b = Box((0, 0), (2, 2)).shift((5, -1))
        assert b.lo == (5, -1) and b.hi == (7, 1)

    def test_bad_ratio_rejected(self):
        with pytest.raises(BoxError):
            Box((0,), (3,)).refine(0)
        with pytest.raises(BoxError):
            Box((0,), (3,)).coarsen(0)


class TestIndexing:
    def test_slices_roundtrip(self):
        arr = np.arange(64).reshape(4, 4, 4)
        sub = Box((1, 1, 1), (2, 3, 2))
        view = arr[sub.slices()]
        assert view.shape == sub.shape
        assert view[0, 0, 0] == arr[1, 1, 1]

    def test_slices_with_origin(self):
        outer = Box((10, 10), (19, 19))
        inner = Box((12, 14), (13, 16))
        arr = np.zeros(outer.shape)
        arr[inner.slices(outer.lo)] = 1.0
        assert arr.sum() == inner.size

    def test_split(self):
        a, b = Box((0, 0), (5, 3)).split(0, 2)
        assert a == Box((0, 0), (2, 3))
        assert b == Box((3, 0), (5, 3))
        assert a.size + b.size == 24

    def test_split_invalid_index(self):
        with pytest.raises(BoxError):
            Box((0,), (3,)).split(0, 3)
        with pytest.raises(BoxError):
            Box((0,), (3,)).split(1, 1)


class TestProperties:
    @given(boxes_3d(), boxes_3d())
    def test_intersection_commutes(self, a: Box, b: Box):
        assert a.intersection(b) == b.intersection(a)

    @given(boxes_3d(), boxes_3d())
    def test_intersection_contained(self, a: Box, b: Box):
        ov = a.intersection(b)
        if ov is not None:
            assert a.contains_box(ov)
            assert b.contains_box(ov)
            assert a.intersects(b)
        else:
            assert not a.intersects(b)

    @given(boxes_3d(), st.integers(1, 4))
    def test_refine_coarsen_identity(self, b: Box, r: int):
        assert b.refine(r).coarsen(r) == b

    @given(boxes_3d(), st.integers(1, 4))
    def test_coarsen_then_refine_covers(self, b: Box, r: int):
        cover = b.coarsen(r).refine(r)
        assert cover.contains_box(b)
