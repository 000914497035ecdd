"""Tests for the vectorized marching cubes extractor."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import VisualizationError
from repro.viz import marching_cubes


def sphere_field(n: int = 24, radius: float = 0.6):
    ax = np.linspace(-1, 1, n)
    x, y, z = np.meshgrid(ax, ax, ax, indexing="ij")
    return np.sqrt(x * x + y * y + z * z), 2.0 / (n - 1)


class TestClosedSurfaces:
    def test_sphere_closed_euler_2(self):
        field, dx = sphere_field()
        mesh = marching_cubes(field, 0.6, spacing=dx, origin=(-1, -1, -1))
        assert mesh.n_faces > 100
        assert mesh.is_closed()
        assert mesh.euler_characteristic() == 2

    def test_sphere_area_converges(self):
        field, dx = sphere_field(40, 0.6)
        mesh = marching_cubes(field, 0.6, spacing=2.0 / 39, origin=(-1, -1, -1))
        assert mesh.area() == pytest.approx(4 * np.pi * 0.36, rel=0.02)

    def test_torus_euler_0(self):
        n = 32
        ax = np.linspace(-1, 1, n)
        x, y, z = np.meshgrid(ax, ax, ax, indexing="ij")
        field = (np.sqrt(x * x + y * y) - 0.6) ** 2 + z * z
        mesh = marching_cubes(field, 0.25**2, spacing=2 / (n - 1), origin=(-1, -1, -1))
        assert mesh.is_closed()
        assert mesh.euler_characteristic() == 0

    def test_two_spheres_two_components(self):
        n = 32
        ax = np.linspace(-1, 1, n)
        x, y, z = np.meshgrid(ax, ax, ax, indexing="ij")
        d1 = np.sqrt((x + 0.5) ** 2 + y**2 + z**2)
        d2 = np.sqrt((x - 0.5) ** 2 + y**2 + z**2)
        mesh = marching_cubes(np.minimum(d1, d2), 0.3)
        assert mesh.is_closed()
        assert mesh.euler_characteristic() == 4  # 2 + 2


class TestGeometry:
    def test_plane_iso_position(self):
        # Field = x coordinate; iso surface at x = 2.25 exactly.
        field = np.broadcast_to(np.arange(8.0)[:, None, None], (8, 8, 8)).copy()
        mesh = marching_cubes(field, 2.25)
        assert mesh.n_faces > 0
        assert np.allclose(mesh.vertices[:, 0], 2.25)

    def test_spacing_and_origin(self):
        field = np.broadcast_to(np.arange(8.0)[:, None, None], (8, 8, 8)).copy()
        mesh = marching_cubes(field, 3.5, spacing=(2.0, 1.0, 1.0), origin=(10.0, 0.0, 0.0))
        assert np.allclose(mesh.vertices[:, 0], 10.0 + 3.5 * 2.0)

    def test_orientation_consistent(self):
        field, dx = sphere_field()
        mesh = marching_cubes(field, 0.6, spacing=dx, origin=(-1, -1, -1))
        # Normals should point outward (same side as vertex position).
        normals = mesh.face_normals()
        centers = mesh.vertices[mesh.faces].mean(axis=1)
        dots = (normals * centers).sum(axis=1)
        frac_outward = (dots > 0).mean()
        assert frac_outward > 0.99 or frac_outward < 0.01  # uniformly oriented

    def test_no_iso_crossing_empty(self):
        mesh = marching_cubes(np.zeros((4, 4, 4)), 1.0)
        assert mesh.is_empty()


class TestMasking:
    def test_nan_region_skipped(self):
        field, dx = sphere_field()
        field[12:] = np.nan
        mesh = marching_cubes(field, 0.6)
        assert mesh.n_faces > 0
        assert len(mesh.boundary_edges()) > 0  # cut open
        assert np.isfinite(mesh.vertices).all()

    def test_cell_mask(self):
        field, _ = sphere_field(16)
        mask = np.zeros((15, 15, 15), dtype=bool)
        mask[:8] = True
        mesh = marching_cubes(field, 0.6, cell_mask=mask)
        full = marching_cubes(field, 0.6)
        assert 0 < mesh.n_faces < full.n_faces

    def test_bad_mask_shape(self):
        field, _ = sphere_field(8)
        with pytest.raises(VisualizationError):
            marching_cubes(field, 0.5, cell_mask=np.ones((3, 3, 3), dtype=bool))

    def test_all_nan_empty(self):
        mesh = marching_cubes(np.full((5, 5, 5), np.nan), 0.0)
        assert mesh.is_empty()


class TestValidation:
    def test_2d_rejected(self):
        with pytest.raises(VisualizationError):
            marching_cubes(np.zeros((4, 4)), 0.0)

    def test_too_small_rejected(self):
        with pytest.raises(VisualizationError):
            marching_cubes(np.zeros((1, 4, 4)), 0.0)

    def test_bad_spacing_rejected(self):
        with pytest.raises(VisualizationError):
            marching_cubes(np.zeros((4, 4, 4)), 0.0, spacing=(1.0, 2.0))

    @pytest.mark.parametrize("spacing", [
        0.0, -1.0, np.nan, np.inf, (1.0, 0.0, 1.0), (1.0, -2.0, 1.0), (1.0, np.nan, 1.0),
    ])
    def test_spacing_must_be_finite_and_positive(self, spacing):
        # 0.0 and NaN collapsed a sphere to an empty mesh, silently.
        field, _ = sphere_field(12)
        assert marching_cubes(field, 0.6).n_faces > 0
        with pytest.raises(VisualizationError, match="spacing"):
            marching_cubes(field, 0.6, spacing=spacing)

    @pytest.mark.parametrize("origin", [
        (0.0, 0.0), (0.0, 0.0, 0.0, 0.0), 1.0, (np.nan, 0.0, 0.0), (0.0, np.inf, 0.0),
    ])
    def test_origin_must_be_a_finite_3_vector(self, origin):
        # (0, 0) was a bare NumPy broadcast error, NaN gave NaN vertices and
        # a scalar was broadcast to all three axes, silently.
        with pytest.raises(VisualizationError, match="origin"):
            marching_cubes(sphere_field(5)[0], 0.6, origin=origin)

    @pytest.mark.parametrize("iso", [np.nan, np.inf, -np.inf])
    def test_iso_must_be_finite(self, iso):
        with pytest.raises(VisualizationError, match="iso"):
            marching_cubes(sphere_field(12)[0], iso)


class TestWatertightProperty:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_random_smooth_fields_closed_or_domain_bounded(self, seed):
        rng = np.random.default_rng(seed)
        # Smooth random field via low-order Fourier modes.
        n = 12
        ax = np.linspace(0, 2 * np.pi, n)
        x, y, z = np.meshgrid(ax, ax, ax, indexing="ij")
        field = np.zeros((n, n, n))
        for _ in range(4):
            kx, ky, kz = rng.integers(1, 3, size=3)
            field += rng.normal() * np.sin(kx * x + rng.uniform(0, 6)) * np.sin(
                ky * y + rng.uniform(0, 6)
            ) * np.sin(kz * z + rng.uniform(0, 6))
        mesh = marching_cubes(field, 0.0)
        if mesh.is_empty():
            return
        # Every boundary edge must lie on the domain boundary: the surface
        # is watertight inside.
        edges = mesh.boundary_edges()
        if len(edges):
            mids = 0.5 * (mesh.vertices[edges[:, 0]] + mesh.vertices[edges[:, 1]])
            on_boundary = np.zeros(len(mids), dtype=bool)
            for axis in range(3):
                on_boundary |= np.isclose(mids[:, axis], 0.0)
                on_boundary |= np.isclose(mids[:, axis], n - 1.0)
            assert on_boundary.all()
