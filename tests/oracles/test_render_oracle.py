"""``render_mesh`` against ``_reference_render`` (``tests/oracles/common.py``),
the one-face-at-a-time rasteriser it replaced: every image byte of seven
kinds of generated mesh, of an iso-surface, and of a sliver painted
outside its tight box."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.viz import TriangleMesh, marching_cubes, render_mesh

from tests.oracles.common import _reference_render


MESH_KINDS = ("uniform", "lattice", "quarter-lattice", "coplanar", "slivers", "far-outside",
              "near-lattice")


def _generated_case(seed, kind, h, w, axis, own_window):
    """A mesh of the named kind and the render arguments that make its
    image coordinates equal its physical ones (so "lattice" means pixel
    centres on vertices and edges)."""
    rng = np.random.default_rng(seed)
    n_verts, n_faces = int(rng.integers(3, 40)), int(rng.integers(1, 50))
    row_axis, col_axis = (a for a in range(3) if a != axis)
    lo, hi = np.zeros(3), np.ones(3)
    hi[row_axis], hi[col_axis] = h - 1, w - 1
    reach = max(h, w)
    faces = None
    if kind == "uniform":  # partly outside the window
        verts = rng.uniform(-0.2, 1.2, (n_verts, 3)) * hi
    elif kind == "lattice":
        verts = rng.integers(-2, reach + 2, (n_verts, 3)).astype(float)
    elif kind == "quarter-lattice":
        verts = rng.integers(-8, 4 * reach + 8, (n_verts, 3)) / 4.0
    elif kind == "coplanar":  # every face at one depth: all overlaps are ties
        verts = rng.integers(-2, reach + 2, (n_verts, 3)).astype(float)
        verts[:, axis] = 0.5
    elif kind == "slivers":  # |det| from ~1e-14 up, along random and lattice lines
        start = rng.uniform(0, 1, (n_faces, 3)) * hi
        along = rng.uniform(-1, 1, (n_faces, 3)) * rng.choice([1, 5, 30], (n_faces, 1))
        if rng.integers(2):
            start, along = np.round(start), np.round(along)
        off = 10.0 ** rng.uniform(-14, -3, (n_faces, 1)) * rng.normal(size=(n_faces, 3))
        third = start + rng.uniform(0.2, 0.8, (n_faces, 1)) * along + off
        verts = np.stack([start, start + along, third], axis=1).reshape(-1, 3)
        faces = np.arange(3 * n_faces).reshape(n_faces, 3)
    elif kind == "far-outside":  # large faces, many wholly outside
        verts = rng.uniform(-3, 4, (n_verts, 3)) * hi
    else:  # "near-lattice": sub-pixel faces within 1e-10..0.5 px of pixel centres
        centre = rng.integers(0, reach, (n_faces, 1, 3)).astype(float)
        size = 10.0 ** rng.uniform(-10, -0.3, (n_faces, 1, 1))
        verts = (centre + size * rng.normal(size=(n_faces, 3, 3))).reshape(-1, 3)
        faces = np.arange(3 * n_faces).reshape(n_faces, 3)
    if faces is None:  # repeated indices make degenerate faces
        faces = rng.integers(0, len(verts), (n_faces, 3))
    return TriangleMesh(verts, faces), dict(
        axis=axis, size=(h, w), bounds=None if own_window else (lo, hi))


class TestAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(MESH_KINDS), st.integers(2, 64),
           st.integers(2, 64), st.sampled_from([0, 1, 2]), st.booleans())
    def test_images_are_byte_identical(self, seed, kind, h, w, axis, own_window):
        mesh, kwargs = _generated_case(seed, kind, h, w, axis, own_window)
        assert render_mesh(mesh, **kwargs).tobytes() == _reference_render(mesh, **kwargs).tobytes()

    def test_isosurface_image(self):
        ax = np.linspace(-1, 1, 24)
        x, y, z = np.meshgrid(ax, ax, ax, indexing="ij")
        mesh = marching_cubes(np.sqrt(x * x + y * y + z * z) + 0.2 * x * y, 0.6)
        for axis in (0, 1, 2):
            for bounds in (None, (np.full(3, -1.0), np.full(3, 1.0))):
                kwargs = dict(axis=axis, size=(96, 80), bounds=bounds, background=0.1)
                assert (render_mesh(mesh, **kwargs).tobytes()
                        == _reference_render(mesh, **kwargs).tobytes())

    def test_sliver_painting_outside_its_tight_box(self):
        # |det| ~ 1e-17 px^2: the weights are rounding noise, and the
        # reference paints pixel (3, 1), a row below the face's own rows
        # (2.46..2.64). Faces like this one keep the floor..ceil box.
        verts = np.array([
            [2.4597587085128785, 0.45975870851287864, 0.5095451291667785],
            [2.636456553749524, 0.636456553749524, 0.9355100792268508],
            [2.5964567689011164, 0.5964567689011165, 0.3574547742171649]])
        mesh = TriangleMesh(verts, np.array([[0, 1, 2]]))
        kwargs = dict(axis=2, size=(8, 8), bounds=(np.zeros(3), np.array([7.0, 7.0, 1.0])))
        expected = _reference_render(mesh, **kwargs)
        assert np.argwhere(expected > 0).tolist() == [[3, 1]]
        assert render_mesh(mesh, **kwargs).tobytes() == expected.tobytes()
