"""Tests for the end-to-end AMR iso-surface pipelines."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import VisualizationError
from repro.viz import crack_report, dual_cell_isosurface, resampling_isosurface

from tests.strategies import make_sphere_hierarchy


@pytest.fixture(scope="module")
def hierarchy():
    return make_sphere_hierarchy(16)


class TestResampling:
    def test_produces_surface_on_both_levels(self, hierarchy):
        res = resampling_isosurface(hierarchy, "f", 0.55)
        assert len(res.level_meshes) == 2
        assert all(m.n_faces > 0 for m in res.level_meshes)

    def test_cracks_present_at_interface(self, hierarchy):
        res = resampling_isosurface(hierarchy, "f", 0.55)
        report = crack_report(res, hierarchy)
        assert report.open_edge_count > 0  # the paper's Figure 1a

    def test_surface_approximates_sphere(self, hierarchy):
        res = resampling_isosurface(hierarchy, "f", 0.55)
        radii = np.linalg.norm(res.merged.vertices - 1.0, axis=1)
        assert np.abs(radii - 0.55).max() < 0.1

    def test_coarse_does_not_cover_fine_region(self, hierarchy):
        res = resampling_isosurface(hierarchy, "f", 0.55)
        coarse = res.level_meshes[0]
        # Fine region is x > 1.0 (+ half-cell slack for boundary vertices).
        assert coarse.vertices[:, 0].max() <= 1.0 + 1e-9


class TestDualCell:
    def test_gap_larger_than_resampling_crack(self, hierarchy):
        res = resampling_isosurface(hierarchy, "f", 0.55)
        dual = dual_cell_isosurface(hierarchy, "f", 0.55, gap_fix="none")
        crack = crack_report(res, hierarchy)
        gap = crack_report(dual, hierarchy)
        assert gap.mean_gap > crack.mean_gap  # Figure 1b vs 1a

    def test_redundant_fix_shrinks_gap(self, hierarchy):
        dual = dual_cell_isosurface(hierarchy, "f", 0.55, gap_fix="none")
        fixed = dual_cell_isosurface(hierarchy, "f", 0.55, gap_fix="redundant")
        gap = crack_report(dual, hierarchy)
        sealed = crack_report(fixed, hierarchy)
        assert sealed.mean_gap < gap.mean_gap  # Figure 1c
        assert sealed.max_gap < gap.max_gap

    def test_redundant_fix_overlaps_levels(self, hierarchy):
        fixed = dual_cell_isosurface(hierarchy, "f", 0.55, gap_fix="redundant")
        coarse = fixed.level_meshes[0]
        # Coarse surface now extends into the refined half (x > 1).
        assert coarse.vertices[:, 0].max() > 1.0

    def test_unknown_gap_fix_rejected(self, hierarchy):
        with pytest.raises(VisualizationError):
            dual_cell_isosurface(hierarchy, "f", 0.55, gap_fix="weld")

    def test_method_label(self, hierarchy):
        assert dual_cell_isosurface(hierarchy, "f", 0.55).method == "dual-cell[none]"


class TestResultContainer:
    def test_merged_face_count(self, hierarchy):
        res = resampling_isosurface(hierarchy, "f", 0.55)
        assert res.merged.n_faces == res.n_faces

    def test_2d_hierarchy_rejected(self):
        from repro.amr import AMRHierarchy, AMRLevel, Box, BoxArray, Patch

        dom = Box.from_shape((4, 4))
        lev = AMRLevel(0, BoxArray([dom]), (1.0, 1.0), {"f": [Patch.full(dom, 0.0)]})
        h = AMRHierarchy(dom, [lev], 2)
        with pytest.raises(VisualizationError):
            resampling_isosurface(h, "f", 0.5)
