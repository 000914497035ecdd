"""Marching cubes and face normals against the algorithms they replaced.

``marching_cubes`` emits every triangle in one gather from a padded table
and numbers vertices through a dense edge map; ``TriangleMesh.face_normals``
works on coordinate columns. The replaced versions — a Python loop over the
configurations present, an ``np.unique`` over every triangle corner, and
``np.cross`` over gathered corner rows — live on here as byte oracles: the
vertices, the faces, their order and every normal must come out with the
same bytes.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings

from repro.viz import TriangleMesh, marching_cubes, render_mesh
from repro.viz import dual_cell, mc_tables as tables, pipelines
from repro.viz.marching_cubes import _interp_t
from repro.viz.mesh import _length

from tests.oracles.common import _reference_render
from tests.strategies import make_sphere_hierarchy, mc_cases


# ----------------------------------------------------------------------
# The oracles
# ----------------------------------------------------------------------
def _reference_face_normals(mesh: TriangleMesh, normalize: bool = True) -> np.ndarray:
    """Per-face normals as ``np.cross`` of gathered corner rows."""
    a = mesh.vertices[mesh.faces[:, 0]]
    b = mesh.vertices[mesh.faces[:, 1]]
    c = mesh.vertices[mesh.faces[:, 2]]
    n = np.cross(b - a, c - a)
    if normalize:
        norm = np.linalg.norm(n, axis=1, keepdims=True)
        norm[norm == 0.0] = 1.0
        n = n / norm
    return n


def _reference_marching_cubes(field, iso, spacing=1.0, origin=(0.0, 0.0, 0.0), cell_mask=None):
    """Marching cubes emitting one configuration group at a time, numbering
    vertices with ``np.unique`` and dropping degenerate faces by the
    ``np.cross`` normals."""
    arr = np.asarray(field, dtype=np.float64)
    dx = np.array([float(spacing)] * 3) if np.isscalar(spacing) else np.asarray(spacing, float)
    org = np.asarray(origin, dtype=np.float64)
    nx, ny, nz = arr.shape
    cx, cy, cz = nx - 1, ny - 1, nz - 1

    valid_vert = np.isfinite(arr)
    inside = np.where(valid_vert, arr > iso, False)
    config = np.zeros((cx, cy, cz), dtype=np.uint16)
    cell_valid = np.ones((cx, cy, cz), dtype=bool)
    for c, (di, dj, dk) in enumerate(tables.CORNER_OFFSETS):
        sl = (slice(di, cx + di), slice(dj, cy + dj), slice(dk, cz + dk))
        config |= inside[sl].astype(np.uint16) << c
        cell_valid &= valid_vert[sl]
    if cell_mask is not None:
        cell_valid &= np.asarray(cell_mask, dtype=bool)
    active = cell_valid & (config != 0) & (config != 255)
    if not active.any():
        return TriangleMesh.empty()

    cells = np.nonzero(active)
    cell_cfg = config[cells]
    ci, cj, ck = (c.astype(np.int64) for c in cells)
    cell_edges = np.empty((ci.size, 12), dtype=np.int64)
    for e, (di, dj, dk, axis) in enumerate(tables.EDGE_ORIGIN_AXIS):
        cell_edges[:, e] = (((ci + di) * ny + (cj + dj)) * nz + (ck + dk)) * 3 + axis
    tri_chunks = []
    for cfg in np.unique(cell_cfg):
        tris = tables.TRI_TABLE[cfg]
        if not tris:
            continue
        rows = np.nonzero(cell_cfg == cfg)[0]
        tri_chunks.append(cell_edges[rows][:, np.asarray(tris, dtype=np.int64)].reshape(-1, 3))
    all_tris = np.concatenate(tri_chunks)

    used_edges, face_idx = np.unique(all_tris, return_inverse=True)
    axis = used_edges % 3
    rest = used_edges // 3
    k0 = rest % nz
    rest //= nz
    j0 = rest % ny
    i0 = rest // ny
    v0 = arr[i0, j0, k0]
    v1 = arr[i0 + (axis == 0), j0 + (axis == 1), k0 + (axis == 2)]
    t = _interp_t(v0, v1, iso)
    base = np.stack([i0, j0, k0], axis=1).astype(np.float64)
    step = np.zeros((used_edges.size, 3))
    step[np.arange(used_edges.size), axis] = t
    mesh = TriangleMesh(org + (base + step) * dx, face_idx.reshape(-1, 3))

    f = mesh.faces
    distinct = (f[:, 0] != f[:, 1]) & (f[:, 1] != f[:, 2]) & (f[:, 0] != f[:, 2])
    areas = 0.5 * np.linalg.norm(_reference_face_normals(mesh, normalize=False), axis=1)
    return TriangleMesh(mesh.vertices, f[distinct & (areas > 0.0)])


def assert_same_mesh(got: TriangleMesh, expected: TriangleMesh) -> None:
    assert got.vertices.tobytes() == expected.vertices.tobytes()
    assert got.faces.tobytes() == expected.faces.tobytes()
    assert got.faces.shape == expected.faces.shape


def assert_same_normals(mesh: TriangleMesh) -> None:
    for normalize in (False, True):
        got = mesh.face_normals(normalize=normalize)
        expected = _reference_face_normals(mesh, normalize=normalize)
        assert got.shape == expected.shape and got.flags.c_contiguous
        assert got.tobytes() == expected.tobytes()


class TestMarchingCubesOracle:
    @settings(max_examples=300, deadline=None)
    @given(mc_cases())
    def test_meshes_and_normals_are_byte_identical(self, case):
        field, iso, kwargs = case
        mesh = marching_cubes(field, iso, **kwargs)
        assert_same_mesh(mesh, _reference_marching_cubes(field, iso, **kwargs))
        assert_same_normals(mesh)

    def test_degenerate_faces_are_dropped_alike(self):
        # Integer values with iso 0: every vertex at 0 sits exactly on the
        # surface, so whole fans of faces collapse onto grid vertices.
        rng = np.random.default_rng(7)
        field = rng.integers(-1, 2, (11, 9, 13)).astype(float)
        mesh = marching_cubes(field, 0.0)
        expected = _reference_marching_cubes(field, 0.0)
        assert_same_mesh(mesh, expected)
        tris = mesh.vertices[mesh.faces]
        assert mesh.n_faces and (np.linalg.norm(np.cross(
            tris[:, 1] - tris[:, 0], tris[:, 2] - tris[:, 0]), axis=1) > 0).all()

    def test_triangle_order_within_a_large_configuration_group(self):
        # Up to 230 cells share one configuration: the order they come out
        # in is the row-major order of the cells, as the loop had it.
        n = 40
        ax = np.linspace(-1, 1, n)
        x, y, z = np.meshgrid(ax, ax, ax, indexing="ij")
        field = np.sin(6 * x) + np.sin(5 * y) + np.sin(4 * z)
        field[:, :, 30:] = np.nan
        mesh = marching_cubes(field, 0.25, spacing=2 / (n - 1), origin=(-1, -1, -1))
        assert mesh.n_faces > 10_000
        assert_same_mesh(mesh, _reference_marching_cubes(
            field, 0.25, spacing=2 / (n - 1), origin=(-1, -1, -1)))
        assert_same_normals(mesh)


class TestFaceNormalsOracle:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_meshes(self, seed):
        # Repeated indices and coincident vertices make zero normals.
        rng = np.random.default_rng(seed)
        verts = rng.normal(size=(30, 3)) * 10.0 ** rng.integers(-8, 8)
        verts[::5] = verts[1::5]
        assert_same_normals(TriangleMesh(verts, rng.integers(0, 30, (200, 3))))

    def test_empty_mesh(self):
        assert TriangleMesh.empty().face_normals().shape == (0, 3)

    @pytest.mark.parametrize("exponent", [-170, -160, -155, -150, -30, 0, 30, 150, 154, 160])
    def test_column_length_is_the_row_norm(self, exponent):
        # Squares of 1e±155 and beyond under- and overflow: the column
        # sum must round, flush and saturate exactly as the row norm does.
        rng = np.random.default_rng(exponent + 1000)
        rows = rng.normal(size=(20_000, 3)) * 10.0 ** rng.uniform(
            exponent - 4, exponent + 4, (20_000, 3))
        rows[::7, rng.integers(3)] = 0.0
        with np.errstate(over="ignore"):
            got = _length(*np.ascontiguousarray(rows.T))
            assert got.tobytes() == np.linalg.norm(rows, axis=1).tobytes()

    @pytest.mark.parametrize("scale", [1e-82, 1e-78, 1e-76, 1.0, 1e76, 1e78, 1e82])
    def test_normals_area_and_cleanup_near_under_and_overflow(self, scale):
        rng = np.random.default_rng(int(np.log10(scale)) + 100)
        mesh = TriangleMesh(rng.normal(size=(60, 3)) * scale, rng.integers(0, 60, (300, 3)))
        f = mesh.faces
        distinct = (f[:, 0] != f[:, 1]) & (f[:, 1] != f[:, 2]) & (f[:, 0] != f[:, 2])
        with np.errstate(over="ignore", invalid="ignore"):
            assert_same_normals(mesh)
            areas = 0.5 * np.linalg.norm(_reference_face_normals(mesh, normalize=False), axis=1)
            assert mesh.area() == float(areas.sum())
            for min_area in (0.0, 1e-3 * scale * scale, scale * scale):
                expected = f[distinct & (areas > min_area)]
                assert mesh.dropped_degenerate(min_area).faces.tobytes() == expected.tobytes()


# ----------------------------------------------------------------------
# Through the pipelines and the renderer
# ----------------------------------------------------------------------
@pytest.fixture
def oracle_checked(monkeypatch):
    """Every ``marching_cubes`` the pipelines call is checked against the
    oracle on the way; the fixture is the list of meshes compared."""
    seen = []

    def checked(field, iso, **kwargs):
        mesh = marching_cubes(field, iso, **kwargs)
        assert_same_mesh(mesh, _reference_marching_cubes(field, iso, **kwargs))
        seen.append(mesh)
        return mesh

    monkeypatch.setattr(pipelines, "marching_cubes", checked)
    monkeypatch.setattr(dual_cell, "marching_cubes", checked)
    return seen


@pytest.mark.parametrize("method", ["resampling", "dual+redundant"])
def test_two_level_render_is_byte_identical(oracle_checked, method):
    hierarchy = make_sphere_hierarchy()
    if method == "resampling":
        result = pipelines.resampling_isosurface(hierarchy, "f", 0.55)
    else:
        result = pipelines.dual_cell_isosurface(hierarchy, "f", 0.55, gap_fix="redundant")
    assert len(oracle_checked) == 2 and all(m.n_faces for m in oracle_checked)
    merged = TriangleMesh.merge(result.level_meshes)
    assert_same_normals(merged)
    window = (np.zeros(3), np.full(3, 2.0))
    for axis in (0, 1, 2):
        kwargs = dict(axis=axis, size=(72, 64), bounds=window)
        assert render_mesh(merged, **kwargs).tobytes() == _reference_render(merged, **kwargs).tobytes()
