"""Tests for repro.amr.hierarchy.AMRHierarchy."""

from __future__ import annotations

import numpy as np
import pytest

from repro.amr import AMRHierarchy, AMRLevel, Box, BoxArray, Patch
from repro.errors import HierarchyError

from tests.strategies import make_sphere_hierarchy


def _level(index: int, boxes: BoxArray, dx: float, fields=("f",), value: float = 0.0):
    lev = AMRLevel(index, boxes, (dx,) * boxes.ndim)
    for name in fields:
        lev.add_field(name, [Patch.full(b, value) for b in boxes])
    return lev


class TestValidation:
    def test_single_level_ok(self):
        dom = Box.from_shape((4, 4))
        h = AMRHierarchy(dom, [_level(0, BoxArray([dom]), 1.0)], 2)
        assert h.n_levels == 1

    def test_level0_must_tile_domain(self):
        dom = Box.from_shape((4, 4))
        partial = BoxArray([Box((0, 0), (1, 3))])
        with pytest.raises(HierarchyError):
            AMRHierarchy(dom, [_level(0, partial, 1.0)], 2)

    def test_nesting_violation_rejected(self):
        dom = Box.from_shape((4, 4))
        l0 = _level(0, BoxArray([dom]), 1.0)
        outside = BoxArray([Box((6, 6), (9, 9))])  # coarsens to (3,3)-(4,4): outside
        with pytest.raises(HierarchyError):
            AMRHierarchy(dom, [l0, _level(1, outside, 0.5)], 2)

    def test_field_mismatch_rejected(self):
        dom = Box.from_shape((4, 4))
        l0 = _level(0, BoxArray([dom]), 1.0, fields=("f",))
        l1 = _level(1, BoxArray([Box((0, 0), (3, 3))]), 0.5, fields=("g",))
        with pytest.raises(HierarchyError):
            AMRHierarchy(dom, [l0, l1], 2)

    def test_nonconsecutive_indices_rejected(self):
        dom = Box.from_shape((4, 4))
        l0 = _level(0, BoxArray([dom]), 1.0)
        l2 = _level(2, BoxArray([Box((0, 0), (3, 3))]), 0.5)
        with pytest.raises(HierarchyError):
            AMRHierarchy(dom, [l0, l2], 2)

    def test_wrong_ratio_count_rejected(self):
        dom = Box.from_shape((4, 4))
        l0 = _level(0, BoxArray([dom]), 1.0)
        with pytest.raises(HierarchyError):
            AMRHierarchy(dom, [l0], [2])

    @pytest.mark.parametrize("ratio", [0, -2, [(2, 0)]])
    def test_ratio_below_one_rejected(self, ratio):
        dom = Box.from_shape((4, 4))
        l0 = _level(0, BoxArray([dom]), 1.0)
        l1 = _level(1, BoxArray([Box((0, 0), (3, 3))]), 0.5)
        with pytest.raises(HierarchyError, match="refinement ratios must be >= 1"):
            AMRHierarchy(dom, [l0, l1], ratio)

    def test_level_of_another_dimension_rejected(self):
        dom = Box.from_shape((4, 4))
        l0 = _level(0, BoxArray([dom]), 1.0)
        l1 = _level(1, BoxArray([Box((0, 0, 0), (3, 3, 3))]), 0.5)
        with pytest.raises(HierarchyError, match="level 1 is 3-D in a 2-D hierarchy"):
            AMRHierarchy(dom, [l0, l1], 2)

    def test_empty_levels_rejected(self):
        with pytest.raises(HierarchyError):
            AMRHierarchy(Box.from_shape((4, 4)), [], 2)


class TestQueries:
    def test_grid_shapes(self, sphere_hierarchy: AMRHierarchy):
        assert sphere_hierarchy.grid_shape(0) == (16, 16, 16)
        assert sphere_hierarchy.grid_shape(1) == (32, 32, 32)

    def test_cumulative_ratio(self):
        h = make_sphere_hierarchy(8)
        assert h.cumulative_ratio(0) == (1, 1, 1)
        assert h.cumulative_ratio(1) == (2, 2, 2)

    def test_domain_at(self, sphere_hierarchy: AMRHierarchy):
        assert sphere_hierarchy.domain_at(1).shape == (32, 32, 32)

    def test_field_names(self, sphere_hierarchy: AMRHierarchy):
        assert sphere_hierarchy.field_names == ("f",)

    def test_iter_and_getitem(self, sphere_hierarchy: AMRHierarchy):
        levels = list(sphere_hierarchy)
        assert levels[1] is sphere_hierarchy[1]


class TestCoverage:
    def test_covered_mask_half_domain(self, sphere_hierarchy: AMRHierarchy):
        covered = sphere_hierarchy.covered_mask(0)
        # Fine level refines the +x half.
        assert covered[8:].all()
        assert not covered[:8].any()

    def test_finest_level_never_covered(self, sphere_hierarchy: AMRHierarchy):
        assert not sphere_hierarchy.covered_mask(1).any()

    def test_densities_sum_to_one(self, sphere_hierarchy: AMRHierarchy):
        d = sphere_hierarchy.densities()
        assert sum(d) == pytest.approx(1.0)
        assert d[0] == pytest.approx(0.5)
        assert d[1] == pytest.approx(0.5)

    def test_stored_cells(self, sphere_hierarchy: AMRHierarchy):
        # 16^3 coarse plus 32x32x16... fine half: 16*32*32.
        assert sphere_hierarchy.stored_cells() == 16**3 + 16 * 32 * 32

    def test_nbytes_single_field(self, sphere_hierarchy: AMRHierarchy):
        assert sphere_hierarchy.nbytes("f") == sphere_hierarchy.stored_cells() * 8

    def test_nbytes_all_fields(self, multi_field_hierarchy: AMRHierarchy):
        assert multi_field_hierarchy.nbytes() == 2 * multi_field_hierarchy.nbytes("a")


class TestMapFields:
    def test_map_fields_applies(self, multi_field_hierarchy: AMRHierarchy):
        out = multi_field_hierarchy.map_fields(lambda lev, name, d: d * 0.0, fields=["a"])
        assert (out[0].patches("a")[0].data == 0.0).all()
        # Field b untouched.
        orig = multi_field_hierarchy[0].patches("b")[0].data
        assert np.array_equal(out[0].patches("b")[0].data, orig)

    def test_map_fields_copies(self, multi_field_hierarchy: AMRHierarchy):
        out = multi_field_hierarchy.map_fields(lambda lev, name, d: d)
        out[0].patches("a")[0].data[0, 0, 0] = 99.0
        assert multi_field_hierarchy[0].patches("a")[0].data[0, 0, 0] != 99.0
