"""``render_mesh`` against the shape-group rasteriser it replaced, at scale.

The renderer broadcasts each group of same-shape faces as ``(gy, gx, n)``
over contiguous per-face rows. The version before it broadcast the same
expressions as ``(n, gy, gx)`` over strided columns; it lives on here as a
second byte oracle beside ``_reference_render`` (``tests/oracles/common.py``).
That one walks one face at a time, so it is exact but slow, and its
hypothesis meshes have at most 50 faces: no shape group there is ever
large. This one is fast enough for the meshes the paper's experiment
renders — tens of thousands of faces, groups of thousands.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings

from repro.viz import TriangleMesh, marching_cubes, render_mesh

from tests.oracles.common import _reference_render
from tests.strategies import same_shape_meshes


def _group_render(mesh, axis=0, size=(256, 256), bounds=None,
                  light=(0.5, 0.6, 0.62), background=0.0, ambient=0.25):
    """The face-outermost rasteriser: ``(n, gy, gx)`` broadcasts over
    ``pix.T[:, corners]`` columns, gathers by ``[:, idx]``."""
    h, w = size
    img = np.full((h, w), float(background))
    if mesh.is_empty():
        return img
    verts = mesh.vertices
    lo, hi = mesh.bounds() if bounds is None else bounds
    uv_axes = [a for a in range(3) if a != axis]
    span = np.where(hi - lo > 0, hi - lo, 1.0)
    last_pixel = np.array([[h - 1], [w - 1]])

    pix = (verts[:, uv_axes] - lo[uv_axes]) / span[uv_axes] * last_pixel[:, 0]
    corners = mesh.faces.T
    tri = pix.T[:, corners]
    a = tri[:, 0]
    (aby, abx), (acy, acx) = tri[:, 1] - a, tri[:, 2] - a
    det = aby * acx - abx * acy

    lvec = np.asarray(light, dtype=np.float64)
    lvec = lvec / np.linalg.norm(lvec)
    shade = ambient + (1.0 - ambient) * np.abs(mesh.face_normals() @ lvec)

    box_lo, box_hi = tri.min(axis=1), tri.max(axis=1)
    extent = (box_hi - box_lo).max(axis=0)
    pad = 1e-6 * (1.0 + extent)
    first, last = np.ceil(box_lo - pad), np.floor(box_hi + pad)
    visible = (det != 0.0) & (
        (first <= last) & (last >= 0) & (first <= last_pixel)).all(axis=0)
    wide = np.flatnonzero((np.abs(det) < 1e-6 * extent * (1.0 + extent)) | (extent > 1e5))
    first[:, wide], last[:, wide] = np.floor(box_lo[:, wide]), np.ceil(box_hi[:, wide])
    visible[wide] = det[wide] != 0.0
    live = np.flatnonzero(visible)
    if live.size == 0:
        return img
    first = np.clip(first[:, live], 0, last_pixel).astype(np.int64)
    last = np.clip(last[:, live], 0, last_pixel).astype(np.int64)
    ny, nx = last - first + 1

    shape_key = ny * (w + 1) + nx
    by_shape = np.argsort(shape_key, kind="stable")
    cuts = np.flatnonzero(np.diff(shape_key[by_shape])) + 1
    face = live[by_shape]
    terms = np.stack([*a, aby, abx, acy, acx, det, *verts[:, axis][corners]])[:, face]
    first = first[:, by_shape]
    pixel_ids, depths, faces = [], [], []
    for start, stop in zip(np.r_[0, cuts], np.r_[cuts, len(face)]):
        gy, gx = ny[by_shape[start]], nx[by_shape[start]]
        ay, ax, g_aby, g_abx, g_acy, g_acx, g_det = terms[:7, start:stop, None, None]
        rows = first[0, start:stop, None, None] + np.arange(gy)[:, None]
        cols = first[1, start:stop, None, None] + np.arange(gx)
        dy = rows - ay
        dx = cols - ax
        w1 = (dy * g_acx - dx * g_acy) / g_det
        w2 = (g_aby * dx - g_abx * dy) / g_det
        w0 = 1.0 - w1 - w2
        hit = np.flatnonzero(np.minimum(np.minimum(w0, w1), w2) >= -1e-9)
        member, cell = divmod(hit, gy * gx)
        row, col = divmod(cell, gx)
        g = start + member
        pixel_ids.append((first[0, g] + row) * w + first[1, g] + col)
        w0, w1, w2 = w0.ravel()[hit], w1.ravel()[hit], w2.ravel()[hit]
        depths.append(w0 * terms[7, g] + w1 * terms[8, g] + w2 * terms[9, g])
        faces.append(face[g])
    pixel_id, z, face = map(np.concatenate, (pixel_ids, depths, faces))

    nearest = np.full(h * w, -np.inf)
    np.maximum.at(nearest, pixel_id, z)
    top = z == nearest[pixel_id]
    winner = np.full(h * w, mesh.n_faces)
    np.minimum.at(winner, pixel_id[top], face[top])
    painted = winner < mesh.n_faces
    img.reshape(-1)[painted] = shade[winner[painted]]
    return img


@pytest.fixture(scope="module")
def sphere() -> TriangleMesh:
    ax = np.linspace(-1, 1, 64)
    x, y, z = np.meshgrid(ax, ax, ax, indexing="ij")
    mesh = marching_cubes(np.sqrt(x * x + y * y + z * z), 0.6)
    assert mesh.n_faces == 13484
    return mesh


@pytest.mark.parametrize("window", [None, (np.zeros(3), np.full(3, 63.0))],
                         ids=["own-box", "grid-window"])
@pytest.mark.parametrize("axis", [0, 1, 2])
def test_sphere_at_256_matches_both_oracles(sphere, axis, window):
    kwargs = dict(axis=axis, size=(256, 256), bounds=window)
    image = render_mesh(sphere, **kwargs)
    assert (image > 0).sum() > 10_000
    assert image.tobytes() == _group_render(sphere, **kwargs).tobytes()
    assert image.tobytes() == _reference_render(sphere, **kwargs).tobytes()


@settings(max_examples=40, deadline=None)
@given(same_shape_meshes())
def test_large_same_shape_groups_match_both_oracles(case):
    mesh, kwargs = case
    image = render_mesh(mesh, **kwargs).tobytes()
    assert image == _group_render(mesh, **kwargs).tobytes()
    assert image == _reference_render(mesh, **kwargs).tobytes()
