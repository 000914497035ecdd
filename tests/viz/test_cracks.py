"""Tests for crack/gap metrics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import MetricError
from repro.viz import (
    TriangleMesh,
    crack_report,
    interface_gap,
    interior_boundary_edges,
    resampling_isosurface,
)

from tests.strategies import make_sphere_hierarchy


def open_quad_at(x: float) -> TriangleMesh:
    # Quad spans [2, 3] in y/z so none of its edges touch the domain faces.
    verts = np.array([[x, 2, 2], [x, 3, 2], [x, 3, 3], [x, 2, 3]], dtype=float)
    faces = np.array([[0, 1, 2], [0, 2, 3]])
    return TriangleMesh(verts, faces)


class TestInteriorBoundaryEdges:
    def test_interior_open_edges_found(self):
        mesh = open_quad_at(5.0)
        lo = np.zeros(3)
        hi = np.full(3, 10.0)
        edges = interior_boundary_edges(mesh, lo, hi, tol=0.1)
        assert len(edges) == 4

    def test_edges_on_domain_faces_excluded(self):
        # A quad whose open edges lie exactly on the y/z domain faces.
        verts = np.array([[5.0, 0, 0], [5.0, 10, 0], [5.0, 10, 10], [5.0, 0, 10]])
        faces = np.array([[0, 1, 2], [0, 2, 3]])
        mesh = TriangleMesh(verts, faces)
        edges = interior_boundary_edges(mesh, np.zeros(3), np.full(3, 10.0), tol=0.1)
        assert len(edges) == 0

    def test_closed_mesh_none(self):
        verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float)
        faces = np.array([[0, 2, 1], [0, 1, 3], [0, 3, 2], [1, 2, 3]])
        mesh = TriangleMesh(verts, faces)
        assert len(interior_boundary_edges(mesh, np.zeros(3) - 5, np.zeros(3) + 5, 0.1)) == 0


class TestInterfaceGap:
    def test_distance_between_parallel_quads(self):
        a = open_quad_at(5.0)
        b = open_quad_at(5.3)
        lo, hi = np.zeros(3), np.full(3, 10.0)
        mean_d, max_d = interface_gap(a, b, lo, hi, tol=0.1)
        # Surface sampling is sparse (vertices + centroids), so distances
        # exceed the 0.3 plane separation but stay within one quad edge.
        assert 0.3 <= mean_d <= 0.8
        assert max_d <= 1.0

    def test_empty_other_mesh(self):
        a = open_quad_at(5.0)
        lo, hi = np.zeros(3), np.full(3, 10.0)
        assert interface_gap(a, TriangleMesh.empty(), lo, hi, 0.1) == (0.0, 0.0)

    def test_no_open_edges(self):
        verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float) + 3.0
        faces = np.array([[0, 2, 1], [0, 1, 3], [0, 3, 2], [1, 2, 3]])
        closed = TriangleMesh(verts, faces)
        lo, hi = np.zeros(3), np.full(3, 10.0)
        assert interface_gap(closed, open_quad_at(5.0), lo, hi, 0.1) == (0.0, 0.0)


class TestCrackReport:
    def test_level_count_checked(self):
        h = make_sphere_hierarchy(8)
        res = resampling_isosurface(h, "f", 0.55)
        res.level_meshes.pop()
        with pytest.raises(MetricError):
            crack_report(res, h)

    def test_open_edge_length_positive_with_cracks(self):
        h = make_sphere_hierarchy(16)
        report = crack_report(resampling_isosurface(h, "f", 0.55), h)
        if report.open_edge_count:
            assert report.open_edge_length > 0
