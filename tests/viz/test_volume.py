"""Tests for volume rendering and slicing."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import VisualizationError
from repro.viz import normalize_field, slice_image, volume_render


@pytest.fixture
def blob_field():
    ax = np.linspace(-1, 1, 24)
    x, y, z = np.meshgrid(ax, ax, ax, indexing="ij")
    return np.exp(-4 * (x * x + y * y + z * z))


class TestNormalize:
    def test_unit_range(self, blob_field):
        out = normalize_field(blob_field)
        assert out.min() == 0.0 and out.max() == 1.0

    def test_fixed_range_clips(self):
        out = normalize_field(np.array([-1.0, 0.5, 2.0]), lo=0.0, hi=1.0)
        assert out.tolist() == [0.0, 0.5, 1.0]

    def test_degenerate_range(self):
        out = normalize_field(np.full(4, 3.0))
        assert (out == 0.0).all()


class TestSlice:
    def test_middle_slice_default(self, blob_field):
        s = slice_image(blob_field, axis=0)
        assert s.shape == (24, 24)
        assert np.array_equal(s, blob_field[12])

    def test_explicit_index_and_axis(self, blob_field):
        s = slice_image(blob_field, axis=2, index=3)
        assert np.array_equal(s, blob_field[:, :, 3])

    def test_out_of_range_rejected(self, blob_field):
        with pytest.raises(VisualizationError):
            slice_image(blob_field, index=100)

    def test_bad_axis_rejected(self, blob_field):
        with pytest.raises(VisualizationError):
            slice_image(blob_field, axis=3)

    def test_returns_copy(self, blob_field):
        s = slice_image(blob_field)
        s[0, 0] = 99.0
        assert blob_field[12, 0, 0] != 99.0


class TestVolumeRender:
    def test_range_and_shape(self, blob_field):
        img = volume_render(normalize_field(blob_field), axis=0)
        assert img.shape == (24, 24)
        assert 0.0 <= img.min() and img.max() <= 1.0

    def test_blob_renders_bright_center(self, blob_field):
        img = volume_render(normalize_field(blob_field), axis=2)
        assert img[12, 12] > img[0, 0]

    def test_empty_volume_black(self):
        img = volume_render(np.zeros((8, 8, 8)))
        assert (img == 0.0).all()

    def test_unnormalized_rejected(self, blob_field):
        with pytest.raises(VisualizationError):
            volume_render(blob_field * 10)

    def test_bad_opacity_rejected(self, blob_field):
        with pytest.raises(VisualizationError):
            volume_render(normalize_field(blob_field), opacity_scale=0.0)

    def test_opacity_monotone_occlusion(self, blob_field):
        # Higher opacity: front material hides the back -> image changes.
        norm = normalize_field(blob_field)
        a = volume_render(norm, opacity_scale=1.0)
        b = volume_render(norm, opacity_scale=50.0)
        assert not np.allclose(a, b)


class TestSensitivityOrdering:
    def test_isosurface_more_sensitive_than_volume_rendering(self, rng):
        """The paper's §3.1 premise, in miniature."""
        from repro.metrics import r_ssim
        from repro.viz import marching_cubes, render_mesh

        ax = np.linspace(-1, 1, 32)
        x, y, z = np.meshgrid(ax, ax, ax, indexing="ij")
        field = np.exp(-3 * (x * x + y * y + z * z)) + 0.05 * np.sin(8 * x) * np.sin(7 * y)
        noisy = field + 0.01 * rng.normal(size=field.shape)
        lo, hi = field.min(), field.max()

        vr_a = volume_render(normalize_field(field, lo, hi))
        vr_b = volume_render(normalize_field(noisy, lo, hi))
        vr_delta = r_ssim(vr_a, vr_b, data_range=1.0)

        iso = 0.5
        mesh_a = marching_cubes(field, iso)
        mesh_b = marching_cubes(noisy, iso)
        bounds = (np.zeros(3), np.full(3, 31.0))
        iso_a = render_mesh(mesh_a, size=(64, 64), bounds=bounds)
        iso_b = render_mesh(mesh_b, size=(64, 64), bounds=bounds)
        iso_delta = r_ssim(iso_a, iso_b, data_range=1.0)

        assert iso_delta > vr_delta
