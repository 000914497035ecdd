"""Tests for TriangleMesh."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import VisualizationError
from repro.viz import TriangleMesh


def unit_quad() -> TriangleMesh:
    """Two triangles forming the unit square in z=0."""
    verts = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]], dtype=float)
    faces = np.array([[0, 1, 2], [0, 2, 3]])
    return TriangleMesh(verts, faces)


def tetrahedron() -> TriangleMesh:
    verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float)
    faces = np.array([[0, 2, 1], [0, 1, 3], [0, 3, 2], [1, 2, 3]])
    return TriangleMesh(verts, faces)


class TestConstruction:
    def test_shapes_validated(self):
        with pytest.raises(VisualizationError):
            TriangleMesh(np.zeros((3, 2)), np.zeros((1, 3), dtype=int))
        with pytest.raises(VisualizationError):
            TriangleMesh(np.zeros((3, 3)), np.zeros((1, 4), dtype=int))

    def test_out_of_range_faces(self):
        with pytest.raises(VisualizationError):
            TriangleMesh(np.zeros((3, 3)), np.array([[0, 1, 5]]))

    @pytest.mark.parametrize("faces", [
        [[0, 1, 1.7]], [[0.5, 1, 2]], [[0, 1, np.nan]], [[0, 1, np.inf]], [["a", "b", "c"]],
    ])
    def test_non_integral_faces_are_refused(self, faces):
        # 1.7 was truncated to 1 without a word.
        with pytest.raises(VisualizationError, match="integer"):
            TriangleMesh(np.zeros((3, 3)), np.array(faces))

    @pytest.mark.parametrize("faces", [
        np.array([[0.0, 1.0, 2.0]]), np.array([[0, 1, 2]], dtype=np.uint8), [[0, 1, 2]],
    ])
    def test_integral_faces_of_any_dtype_are_kept(self, faces):
        mesh = TriangleMesh(np.zeros((3, 3)), faces)
        assert mesh.faces.dtype == np.int64 and mesh.faces.tolist() == [[0, 1, 2]]

    def test_empty(self):
        m = TriangleMesh.empty()
        assert m.is_empty()
        assert m.n_faces == 0
        assert m.area() == 0.0


class TestTopology:
    def test_quad_boundary(self):
        m = unit_quad()
        b = m.boundary_edges()
        assert len(b) == 4  # outer square edges; the diagonal is shared
        assert not m.is_closed()

    def test_tetrahedron_closed(self):
        m = tetrahedron()
        assert m.is_closed()
        assert len(m.boundary_edges()) == 0
        assert m.euler_characteristic() == 2

    def test_edge_lengths(self):
        m = unit_quad()
        lengths = m.edge_lengths()
        assert lengths.max() == pytest.approx(np.sqrt(2))
        assert sorted(lengths)[:4] == pytest.approx([1, 1, 1, 1])


class TestGeometry:
    def test_quad_area(self):
        assert unit_quad().area() == pytest.approx(1.0)

    def test_area_is_half_the_cross_product_norms_to_the_bit(self):
        # area() used to double the normals and halve the sum again;
        # power-of-two scalings are exact, so dropping them changed no bit.
        rng = np.random.default_rng(14)
        mesh = TriangleMesh(rng.normal(size=(200, 3)) * 37.0, rng.integers(0, 200, (500, 3)))
        doubled = np.linalg.norm(mesh.face_normals(normalize=False) * 2.0, axis=1)
        assert mesh.area() == float(0.5 * doubled.sum() / 2.0)

    def test_normals_unit_length(self):
        n = tetrahedron().face_normals()
        assert np.allclose(np.linalg.norm(n, axis=1), 1.0)

    def test_bounds(self):
        lo, hi = tetrahedron().bounds()
        assert np.array_equal(lo, [0, 0, 0])
        assert np.array_equal(hi, [1, 1, 1])

    def test_bounds_empty_rejected(self):
        with pytest.raises(VisualizationError):
            TriangleMesh.empty().bounds()

    def test_translate_scale(self):
        m = unit_quad().translated([1, 2, 3]).scaled(2.0)
        lo, hi = m.bounds()
        assert np.array_equal(lo, [2, 4, 6])
        assert np.array_equal(hi, [4, 6, 6])


class TestCleanup:
    def test_drop_degenerate(self):
        verts = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0]], dtype=float)
        faces = np.array([[0, 1, 2], [0, 0, 1], [1, 1, 1]])
        m = TriangleMesh(verts, faces).dropped_degenerate()
        assert m.n_faces == 1

    def test_merge(self):
        a = unit_quad()
        b = unit_quad().translated([5, 0, 0])
        m = TriangleMesh.merge([a, b])
        assert m.n_faces == 4
        assert m.n_vertices == 8

    def test_merge_with_empty(self):
        m = TriangleMesh.merge([TriangleMesh.empty(), unit_quad()])
        assert m.n_faces == 2

    def test_merge_all_empty(self):
        assert TriangleMesh.merge([TriangleMesh.empty()]).is_empty()
