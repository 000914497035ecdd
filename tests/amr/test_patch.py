"""Tests for repro.amr.patch.Patch."""

from __future__ import annotations

import numpy as np
import pytest

from repro.amr import Box, Patch
from repro.errors import BoxError


class TestConstruction:
    def test_shape_must_match(self):
        with pytest.raises(BoxError):
            Patch(Box((0, 0), (3, 3)), np.zeros((3, 3)))

    def test_full(self):
        p = Patch.full(Box((0, 0, 0), (1, 1, 1)), fill=2.5)
        assert (p.data == 2.5).all()
        assert p.data.dtype == np.float64

    def test_full_int_dtype(self):
        p = Patch.full(Box((0,), (3,)), fill=1, dtype=np.int32)
        assert p.data.dtype == np.int32


class TestViews:
    def test_view_is_a_view(self):
        p = Patch.full(Box((0, 0), (4, 4)), 0.0)
        sub = Box((1, 1), (2, 2))
        v = p.view(sub)
        v[...] = 7.0
        assert p.data[1, 1] == 7.0
        assert p.data[0, 0] == 0.0

    def test_view_respects_box_offset(self):
        p = Patch(Box((10, 10), (13, 13)), np.arange(16, dtype=float).reshape(4, 4))
        v = p.view(Box((11, 12), (11, 12)))
        assert v[0, 0] == p.data[1, 2]

    def test_view_outside_rejected(self):
        p = Patch.full(Box((0, 0), (3, 3)), 0.0)
        with pytest.raises(BoxError):
            p.view(Box((2, 2), (5, 5)))

    def test_copy_is_deep(self):
        p = Patch.full(Box((0,), (3,)), 1.0)
        q = p.copy()
        q.data[0] = 9.0
        assert p.data[0] == 1.0

    def test_nbytes(self):
        p = Patch.full(Box((0, 0), (3, 3)), 0.0)
        assert p.nbytes == 16 * 8
