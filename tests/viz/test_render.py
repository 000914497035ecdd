"""Tests for the software renderer."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

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
