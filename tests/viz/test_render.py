"""Tests for the software renderer."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import VisualizationError
from repro.viz import TriangleMesh, marching_cubes, render_mesh


def big_quad(depth: float, shade_offset: float = 0.0) -> TriangleMesh:
    verts = np.array(
        [[depth, 0, 0], [depth, 10, 0], [depth, 10, 10], [depth, 0, 10]], dtype=float
    )
    faces = np.array([[0, 1, 2], [0, 2, 3]])
    return TriangleMesh(verts, faces)


class TestBasics:
    def test_empty_mesh_background(self):
        img = render_mesh(TriangleMesh.empty(), size=(32, 32), background=0.25)
        assert (img == 0.25).all()

    def test_quad_covers_image(self):
        img = render_mesh(big_quad(1.0), axis=0, size=(32, 32))
        assert (img > 0).mean() > 0.9

    def test_image_range(self):
        img = render_mesh(big_quad(1.0), axis=0, size=(16, 16))
        assert img.min() >= 0.0 and img.max() <= 1.0

    def test_determinism(self):
        a = render_mesh(big_quad(1.0), size=(32, 32))
        b = render_mesh(big_quad(1.0), size=(32, 32))
        assert np.array_equal(a, b)

    def test_view_axes(self):
        n = 16
        ax = np.linspace(-1, 1, n)
        x, y, z = np.meshgrid(ax, ax, ax, indexing="ij")
        mesh = marching_cubes(np.sqrt(x * x + y * y + z * z), 0.6)
        for axis in (0, 1, 2):
            img = render_mesh(mesh, axis=axis, size=(48, 48))
            assert (img > 0).sum() > 100


class TestZBuffer:
    def test_nearer_surface_wins(self):
        # Camera looks along +x from above: larger x is nearer.
        near = big_quad(5.0)
        far = big_quad(1.0)
        # Tilt the far quad so its shade differs.
        v = far.vertices.copy()
        v[:, 0] += 0.3 * v[:, 1]
        far_tilted = TriangleMesh(v, far.faces)
        img_near_only = render_mesh(near, axis=0, size=(32, 32))
        both = TriangleMesh.merge([far_tilted, near])
        img_both = render_mesh(both, axis=0, size=(32, 32), bounds=near.bounds())
        # The near flat quad hides the tilted one almost everywhere.
        assert np.abs(img_both - img_near_only).mean() < 0.05


class TestBoundsAndShading:
    def test_fixed_bounds_framing(self):
        mesh = big_quad(1.0)
        lo = np.array([0.0, -10.0, -10.0])
        hi = np.array([2.0, 20.0, 20.0])
        img = render_mesh(mesh, axis=0, size=(64, 64), bounds=(lo, hi))
        # Mesh occupies roughly the central third of the frame.
        cover = (img > 0).mean()
        assert 0.05 < cover < 0.35

    def test_flat_quad_uniform_shade(self):
        img = render_mesh(big_quad(1.0), axis=0, size=(32, 32))
        vals = img[img > 0]
        assert vals.std() < 1e-12

    def test_ambient_floor(self):
        img = render_mesh(big_quad(1.0), axis=0, size=(16, 16), ambient=0.5)
        assert img[img > 0].min() >= 0.5


class TestValidation:
    def test_bad_axis(self):
        with pytest.raises(VisualizationError):
            render_mesh(big_quad(1.0), axis=3)

    def test_tiny_image(self):
        with pytest.raises(VisualizationError):
            render_mesh(big_quad(1.0), size=(1, 10))

    @pytest.mark.parametrize("axis", [True, 1.0, "0", None])
    def test_axis_must_be_an_integer(self, axis):
        # True equals 1, so it passed the membership test and ended in a
        # bare ValueError; 1.0 in an IndexError.
        with pytest.raises(VisualizationError, match="axis"):
            render_mesh(big_quad(1.0), axis=axis, size=(16, 16))

    @pytest.mark.parametrize("size", ["ab", (4, 4, 4), (16,), 16, (16.0, 16), ("16", "16")])
    def test_size_must_be_two_integers(self, size):
        # "ab" was a bare ValueError; (4, 4, 4) rendered a 4x4 image.
        with pytest.raises(VisualizationError, match="size"):
            render_mesh(big_quad(1.0), size=size)

    @pytest.mark.parametrize("light", [
        (0, 0, 0), (np.nan, 0.6, 0.62), (np.inf, 0.0, 0.0), (1e-200, 0.0, 0.0),
        (1.0, 1.0), (1.0, 1.0, 1.0, 1.0), "abc", None,
    ])
    def test_light_must_have_a_finite_nonzero_length(self, light):
        # (0, 0, 0) painted every pixel of a face NaN.
        with pytest.raises(VisualizationError, match="light"):
            render_mesh(big_quad(1.0), size=(16, 16), light=light)

    @pytest.mark.parametrize("ambient", [-0.1, 1.5, np.nan, "0.5", None])
    def test_ambient_must_be_in_unit_interval(self, ambient):
        # 1.5 made every pixel of the quad 1.5, outside the promised [0, 1].
        with pytest.raises(VisualizationError, match="ambient"):
            render_mesh(big_quad(1.0), size=(16, 16), ambient=ambient)

    @pytest.mark.parametrize("ambient", [0, 0.0, 1, 1.0, np.float32(0.5)])
    def test_ambient_at_the_ends_stays_in_range(self, ambient):
        img = render_mesh(big_quad(1.0), size=(16, 16), ambient=ambient)
        assert 0.0 <= img.min() and img.max() <= 1.0

    def test_arguments_are_checked_for_an_empty_mesh_too(self):
        with pytest.raises(VisualizationError, match="light"):
            render_mesh(TriangleMesh.empty(), size=(16, 16), light=(0, 0, 0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("bounds", [None, (np.zeros(3), np.full(3, 10.0))])
    def test_non_finite_vertex(self, bad, bounds):
        # One bad vertex used to blank the whole image (NaN, bounds=None)
        # or render through a trail of RuntimeWarnings (inf).
        quad = big_quad(1.0)
        verts = np.vstack([quad.vertices, [[bad, 5.0, 5.0]]])
        mesh = TriangleMesh(verts, np.vstack([quad.faces, [[0, 1, 4]]]))
        with pytest.raises(VisualizationError, match="non-finite"):
            render_mesh(mesh, size=(16, 16), bounds=bounds)

    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_short_bounds(self, axis):
        # Was an IndexError down axis 0 and silently accepted down axis 2.
        with pytest.raises(VisualizationError, match="length-3"):
            render_mesh(big_quad(1.0), axis=axis, size=(16, 16),
                        bounds=(np.zeros(2), np.ones(2)))

    @pytest.mark.parametrize("bounds", [
        (np.zeros(3), np.ones(4)),
        (np.zeros((3, 1)), np.ones((3, 1))),
        (np.zeros(3),),
        (np.zeros(3), np.ones(3), np.ones(3)),
        (np.zeros(3), np.array([1.0, np.nan, 1.0])),
        (np.array([-np.inf, 0.0, 0.0]), np.ones(3)),
        (np.zeros(3), np.array([1.0, 1.0, -1.0])),   # hi < lo
        ("abc", "def"),
    ])
    def test_bad_bounds(self, bounds):
        with pytest.raises(VisualizationError, match="bounds"):
            render_mesh(big_quad(1.0), size=(16, 16), bounds=bounds)

    def test_flat_window_is_allowed(self):
        # hi == lo is what a flat mesh's own bounding box gives.
        flat = big_quad(1.0)
        lo, hi = flat.bounds()
        assert lo[0] == hi[0]
        assert (render_mesh(flat, size=(16, 16), bounds=(lo, hi)) > 0).all()


# ----------------------------------------------------------------------
# The rasteriser against its oracle
# ----------------------------------------------------------------------
def _reference_render(mesh, axis=0, size=(256, 256), bounds=None,
                      light=(0.5, 0.6, 0.62), background=0.0, ambient=0.25):
    """The rasteriser ``render_mesh`` replaced, spelled out one face at a
    time: every integer of ``floor(min)..ceil(max)`` (each end clamped into
    the window) is a candidate, and an inside sample takes a pixel only when
    it is strictly nearer than what the pixel holds — faces go in index
    order, so equal depths keep the lowest face."""
    h, w = size
    img = np.full((h, w), float(background))
    if mesh.is_empty():
        return img
    row_axis, col_axis = (a for a in range(3) if a != axis)
    lo, hi = mesh.bounds() if bounds is None else bounds
    span = np.where(hi - lo > 0, hi - lo, 1.0)
    py = (mesh.vertices[:, row_axis] - lo[row_axis]) / span[row_axis] * (h - 1)
    px = (mesh.vertices[:, col_axis] - lo[col_axis]) / span[col_axis] * (w - 1)
    lvec = np.asarray(light, dtype=np.float64)
    lvec = lvec / np.linalg.norm(lvec)
    shade = ambient + (1.0 - ambient) * np.abs(mesh.face_normals() @ lvec)
    nearest = np.full((h, w), -np.inf)
    for k, corners in enumerate(mesh.faces):
        (ay, by, cy), (ax, bx, cx) = py[corners], px[corners]
        za, zb, zc = mesh.vertices[corners, axis]
        det = (by - ay) * (cx - ax) - (bx - ax) * (cy - ay)
        if det == 0.0:
            continue
        y0, y1 = np.clip([np.floor(min(ay, by, cy)), np.ceil(max(ay, by, cy))], 0, h - 1)
        x0, x1 = np.clip([np.floor(min(ax, bx, cx)), np.ceil(max(ax, bx, cx))], 0, w - 1)
        box = (slice(int(y0), int(y1) + 1), slice(int(x0), int(x1) + 1))
        pyc, pxc = np.mgrid[box].astype(np.float64)
        with np.errstate(all="ignore"):  # a 1e-300 det overflows the weights
            w1 = ((pyc - ay) * (cx - ax) - (pxc - ax) * (cy - ay)) / det
            w2 = ((by - ay) * (pxc - ax) - (bx - ax) * (pyc - ay)) / det
            w0 = 1.0 - w1 - w2
            z = w0 * za + w1 * zb + w2 * zc
        eps = -1e-9
        wins = (w0 >= eps) & (w1 >= eps) & (w2 >= eps) & (z > nearest[box])
        nearest[box][wins] = z[wins]
        img[box][wins] = shade[k]
    return img


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


# ----------------------------------------------------------------------
# What decides a pixel
# ----------------------------------------------------------------------
WINDOW = (np.zeros(3), np.array([1.0, 8.0, 8.0]))


def _view(mesh: TriangleMesh) -> np.ndarray:
    """9x9 image down axis 0 whose pixel (r, c) is the point y=r, z=c."""
    return render_mesh(mesh, axis=0, size=(9, 9), bounds=WINDOW)


class TestPixelRule:
    # A face's shade is read off a pixel only it covers, in the same image:
    # the shading matmul may round a face differently in another mesh.
    def test_equal_depth_goes_to_the_lowest_face_index(self):
        # Two faces meeting in the ridge y=4 (rows 0..4 and 4..8), both at
        # depth 1 exactly there — every weight on the ridge is a multiple
        # of 1/8 — and falling away at different slopes.
        ridge = [[1.0, 4, 0], [1.0, 4, 8]]
        left = TriangleMesh(np.array(ridge + [[0.0, 0, 4]]), np.array([[0, 1, 2]]))
        right = TriangleMesh(np.array(ridge + [[0.5, 8, 4]]), np.array([[1, 0, 2]]))
        for first, second, winner_row in ((left, right, 3), (right, left, 5)):
            img = _view(TriangleMesh.merge([first, second]))
            assert img[3, 4] != img[5, 4]
            # Ridge pixels (4, 0..8) lie on both faces at the same depth.
            assert (img[4] == img[winner_row, 4]).all()
            assert (img[3, 1:8] == img[3, 4]).all() and (img[5, 1:8] == img[5, 4]).all()

    def test_pixel_on_a_shared_vertex_or_edge_is_painted_by_the_lowest_face(self):
        # A four-sided pyramid: apex on pixel (4, 4), the ridge between
        # sides 3 and 0 through pixel (2, 2), between sides 1 and 2 through
        # (6, 6); every weight there is a multiple of 1/4.
        verts = np.array([[0.0, 0, 0], [0.0, 0, 8], [0.0, 8, 8], [0.0, 8, 0], [1.0, 4, 4]])
        sides = np.array([[0, 1, 4], [1, 2, 4], [2, 3, 4], [3, 0, 4]])
        own_pixel = [(1, 4), (4, 7), (7, 4), (4, 1)]
        for shift in range(4):
            order = np.roll(np.arange(4), shift)
            img = _view(TriangleMesh(verts, sides[order]))
            shades = [img[pixel] for pixel in own_pixel]
            assert len(set(shades)) == 4
            earliest = order.tolist().index
            assert img[4, 4] == shades[order[0]]
            assert img[2, 2] == shades[min(3, 0, key=earliest)]
            assert img[6, 6] == shades[min(1, 2, key=earliest)]

    def test_face_outside_the_window_paints_nothing(self):
        visible = big_quad(1.0)
        window = (np.zeros(3), np.full(3, 10.0))
        alone = render_mesh(visible, axis=0, size=(16, 16), bounds=window)
        for offset in ([0, 10.5, 0], [0, -10.5, 0], [0, 0, 30], [0, -11, -11], [5, 1e3, 0]):
            outside = visible.translated(np.array(offset, dtype=float))
            img = render_mesh(outside, axis=0, size=(16, 16), bounds=window, background=0.5)
            assert (img == 0.5).all(), offset
            both = TriangleMesh.merge([outside, visible])
            assert np.array_equal(render_mesh(both, axis=0, size=(16, 16), bounds=window), alone)

    def test_peak_memory_of_a_render(self):
        # Scales with the faces, not with faces x candidates x a dozen
        # temporaries: 94 MB before the tight-candidate rasteriser.
        ax = np.linspace(-1, 1, 64)
        x, y, z = np.meshgrid(ax, ax, ax, indexing="ij")
        mesh = marching_cubes(np.sqrt(x * x + y * y + z * z), 0.6)
        assert mesh.n_faces == 13484
        tracemalloc.start()
        try:
            img = render_mesh(mesh, size=(256, 256))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (img > 0).sum() > 10_000
        assert peak <= 32e6, f"{peak / 1e6:.1f} MB"
