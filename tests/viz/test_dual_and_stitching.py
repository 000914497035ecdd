"""Tests for dual-cell extraction and the gap fixes."""

from __future__ import annotations

import numpy as np
import pytest

from repro.viz import (
    dual_cell_isosurface,
    dual_isosurface,
    marching_cubes,
    redundant_ring_mask,
    stitch_contours_2d,
)
from repro.viz.stitching import dilate_tags
from repro.errors import VisualizationError
from tests.conftest import make_sphere_hierarchy


class TestDualCell:
    def test_matches_shifted_marching_cubes(self, rng):
        cells = rng.normal(size=(10, 10, 10))
        a = dual_isosurface(cells, 0.0, spacing=1.0, origin=(0, 0, 0))
        b = marching_cubes(cells, 0.0, spacing=1.0, origin=(0.5, 0.5, 0.5))
        assert a.n_faces == b.n_faces
        assert np.allclose(np.sort(a.vertices, axis=0), np.sort(b.vertices, axis=0))

    def test_sphere_vertex_positions_at_cell_centers_lattice(self):
        n = 20
        ax = (np.arange(n) + 0.5) * (2.0 / n) - 1.0
        x, y, z = np.meshgrid(ax, ax, ax, indexing="ij")
        cells = np.sqrt(x * x + y * y + z * z)
        mesh = dual_isosurface(cells, 0.6, spacing=2.0 / n, origin=(-1, -1, -1))
        assert mesh.is_closed()
        radii = np.linalg.norm(mesh.vertices, axis=1)
        assert np.abs(radii - 0.6).max() < 0.05

    def test_dual_grid_smaller_than_resampled(self, rng):
        # Dual surface of a box-clipped field is inset by half a cell.
        cells = np.broadcast_to(np.arange(8.0)[:, None, None], (8, 8, 8)).copy()
        mesh = dual_isosurface(cells, 3.5, spacing=1.0)
        lo, hi = mesh.bounds()
        assert lo[1] == pytest.approx(0.5)
        assert hi[1] == pytest.approx(7.5)

    @pytest.mark.parametrize("kwargs, match", [
        ({"spacing": (1.0, 1.0)}, "spacing must be scalar or length 3"),
        ({"origin": (0.0, 0.0)}, "origin must be a finite length-3 vector"),
        ({"origin": (np.nan, 0.0, 0.0)}, "origin must be a finite length-3 vector"),
        ({"origin": 1.0}, "origin must be a finite length-3 vector"),
    ])
    def test_bad_lattice_refused_as_marching_cubes_refuses_it(self, rng, kwargs, match):
        # The half-cell shift ran first: (1, 1) spacing or a 2-vector origin
        # was a bare NumPy ValueError before marching_cubes saw it.
        cells = rng.normal(size=(5, 5, 5))
        with pytest.raises(VisualizationError, match=match):
            dual_isosurface(cells, 0.0, **kwargs)
        with pytest.raises(VisualizationError, match=match):
            marching_cubes(cells, 0.0, **kwargs)


class TestDilate:
    def test_single_cell_grows_to_cross(self):
        tags = np.zeros((5, 5), dtype=bool)
        tags[2, 2] = True
        grown = dilate_tags(tags, 1)
        assert grown.sum() == 5  # center + 4 axis neighbors

    def test_zero_iterations_identity(self):
        tags = np.zeros((4, 4), dtype=bool)
        tags[1, 1] = True
        assert np.array_equal(dilate_tags(tags, 0), tags)

    def test_does_not_wrap(self):
        tags = np.zeros((4, 4), dtype=bool)
        tags[0, 0] = True
        grown = dilate_tags(tags, 1)
        assert not grown[3, 0] and not grown[0, 3]

    def test_monotone(self):
        rng = np.random.default_rng(1)
        tags = rng.random((10, 10)) > 0.8
        grown = dilate_tags(tags, 2)
        assert (grown | tags).sum() == grown.sum()


class TestRedundantRing:
    def test_extends_one_ring(self):
        exposed = np.zeros((8, 8), dtype=bool)
        exposed[:4] = True
        covered = ~exposed
        keep = redundant_ring_mask(exposed, covered, rings=1)
        assert keep[:5].all()
        assert not keep[5:].any()

    def test_rings_two(self):
        exposed = np.zeros((8, 8), dtype=bool)
        exposed[:3] = True
        keep = redundant_ring_mask(exposed, ~exposed, rings=2)
        assert keep[:5].all() and not keep[5:].any()

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(VisualizationError):
            redundant_ring_mask(np.zeros((2, 2), bool), np.zeros((3, 3), bool))

    @pytest.mark.parametrize("rings", [-1, 1.5, True, "1", None])
    def test_rings_must_be_an_integer_at_least_zero(self, rings):
        # -1 built no ring and 1.5 built one, silently.
        exposed = np.zeros((8, 8), dtype=bool)
        exposed[:4] = True
        with pytest.raises(VisualizationError, match="rings"):
            redundant_ring_mask(exposed, ~exposed, rings=rings)

    @pytest.mark.parametrize("rings", [-1, 1.5, True])
    def test_dual_cell_isosurface_inherits_the_rings_check(self, rings):
        h = make_sphere_hierarchy(8)
        assert dual_cell_isosurface(h, "f", 0.55, gap_fix="redundant", rings=2).n_faces > 0
        with pytest.raises(VisualizationError, match="rings"):
            dual_cell_isosurface(h, "f", 0.55, gap_fix="redundant", rings=rings)

    def test_no_covered_identity(self):
        exposed = np.ones((4, 4), dtype=bool)
        keep = redundant_ring_mask(exposed, np.zeros((4, 4), bool))
        assert keep.all()


class TestStitch2D:
    def test_pairs_nearest_endpoints(self):
        fine = np.array([[0.0, 0.0], [1.0, 0.0]])
        coarse = np.array([[0.1, 0.3], [1.1, 0.3]])
        segs = stitch_contours_2d(fine, coarse, max_span=1.0)
        assert len(segs) == 2
        # Each fine endpoint matched to its nearest coarse endpoint.
        assert np.allclose(segs[:, 0].min(axis=0), [0.0, 0.0])

    def test_max_span_limits(self):
        fine = np.array([[0.0, 0.0]])
        coarse = np.array([[5.0, 0.0]])
        assert len(stitch_contours_2d(fine, coarse, max_span=1.0)) == 0

    def test_empty_inputs(self):
        assert stitch_contours_2d(np.empty((0, 2)), np.zeros((2, 2)), 1.0).shape == (0, 2, 2)

    def test_no_double_matching(self):
        fine = np.array([[0.0, 0.0], [0.2, 0.0]])
        coarse = np.array([[0.1, 0.1]])
        segs = stitch_contours_2d(fine, coarse, max_span=1.0)
        assert len(segs) == 1  # single coarse endpoint used once
