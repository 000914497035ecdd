"""Orthographic z-buffer mesh renderer (pure NumPy).

The paper's SSIM numbers are computed on rendered iso-surface images; with
no graphics stack offline, this module rasterizes triangle meshes into
grayscale images deterministically:

* orthographic projection along a chosen axis,
* flat Lambert shading (two-sided) with a fixed light direction,
* a z-buffer over the pixel centres each face covers — no per-triangle
  Python loop. Every candidate gets the inside test; only the samples
  inside get a pixel id, a depth and a face index.

What decides a pixel is contract (``tests/oracles/test_render_oracle.py``
compares bytes with the one-candidate-at-a-time algorithm, kept as the
oracle in ``tests/oracles/common.py``):

* **Candidates.** Pixel centres are the integers. A face's candidates are
  the integers of ``[ceil(min - pad), floor(max + pad)]`` per image axis,
  cut to the window; ``pad = 1e-6 * (1 + E)`` pixels, ``E`` the longer side
  of the face's bounding box, is far more than the inside tolerance can
  reach. A face whose weights cannot be trusted that far — near-degenerate,
  ``|det| < 1e-6 * E * (1 + E)`` with ``det`` twice its signed pixel area,
  or longer than 1e5 pixels — takes every integer of
  ``[floor(min), ceil(max)]``, each end clamped into the window.
* **Inside.** A candidate belongs to a face when its three barycentric
  weights are all ``>= -1e-9``; faces with ``det == 0`` own no pixel.
* **Ties.** The largest depth wins a pixel (the camera looks down the
  view axis from above); among equal depths the lowest face index wins,
  so a pixel centre on a shared edge or vertex is painted once.

Determinism matters: Table 2 / Figures 9-13 compare images of original vs
decompressed data, so any renderer bias cancels out as long as the mapping
from mesh to pixels is fixed.

Layout is what the render's time goes to, more than its arithmetic. Every
per-face quantity is a contiguous row with the faces innermost: ``pix`` is
``(image axis, vertex)``, ``tri`` ``(image axis, corner, face)``, and every
gather is ``np.take(..., axis=1)`` — a slice mixed with a fancy index
(``p[:, idx]``) costs about six times as much. Faces of one box shape are
broadcast as ``(gy, gx, n)``, so each ufunc's inner loop runs over the
group's ``n`` faces rather than over a face's two to five pixel columns.
Only the order of the inside samples depends on the layout, and the
z-buffer does not: a maximum and a minimum are the same in any order.
"""

from __future__ import annotations

import numbers
import operator

import numpy as np

from repro.errors import VisualizationError
from repro.viz.mesh import TriangleMesh

__all__ = ["render_mesh"]

#: Barycentric weights down to this count as inside.
_INSIDE = -1e-9
#: Pixels added around a face's bounding box, per (1 + E) of its size.
_PAD = 1e-6
#: ``|det|`` below this times ``E * (1 + E)`` marks a near-degenerate face.
_SLIVER = 1e-6
#: Faces longer than this many pixels keep the floor..ceil candidates.
_LONG = 1e5


def _window(bounds, mesh: TriangleMesh) -> np.ndarray:
    """The physical window as rows ``lo, hi``, checked when the caller gave it."""
    if bounds is None:
        return np.array(mesh.bounds())
    try:
        window = np.array(bounds, dtype=np.float64)
    except (TypeError, ValueError):  # ragged, or not numbers
        window = np.empty(0)
    if window.shape != (2, 3) or not np.isfinite(window).all() or (window[1] < window[0]).any():
        raise VisualizationError(
            f"bounds must be two finite length-3 vectors (lo, hi) with hi >= lo, got {bounds!r}")
    return window


def _image_size(size) -> tuple[int, int]:
    """``(height, width)`` as two integers, each at least 2."""
    try:
        h, w = (operator.index(n) for n in size)
    except (TypeError, ValueError):  # not a pair, or not integers
        raise VisualizationError(
            f"size must be two integers (height, width), got {size!r}") from None
    if h < 2 or w < 2:
        raise VisualizationError(f"image size too small: {size}")
    return h, w


def _unit_light(light) -> np.ndarray:
    """The light direction normalized; it must have a finite, nonzero length."""
    try:
        lvec = np.asarray(light, dtype=np.float64)
    except (TypeError, ValueError):  # ragged, or not numbers
        lvec = np.empty(0)
    norm = np.linalg.norm(lvec) if lvec.shape == (3,) else np.nan
    if not (np.isfinite(lvec).all() and np.isfinite(norm) and norm > 0.0):
        raise VisualizationError(
            f"light must be a finite length-3 vector with a nonzero norm, got {light!r}")
    return lvec / norm


def render_mesh(
    mesh: TriangleMesh,
    axis: int = 0,
    size: tuple[int, int] = (256, 256),
    bounds: tuple[np.ndarray, np.ndarray] | None = None,
    light: tuple[float, float, float] = (0.5, 0.6, 0.62),
    background: float = 0.0,
    ambient: float = 0.25,
) -> np.ndarray:
    """Render an orthographic grayscale view of ``mesh``.

    Parameters
    ----------
    mesh:
        Input surface.
    axis:
        View axis (0/1/2); the camera looks down decreasing coordinates.
    size:
        Output image ``(height, width)``.
    bounds:
        Physical window ``(lo, hi)`` mapped onto the image; defaults to the
        mesh bounding box. Pass the *domain* bounds when comparing images
        of different meshes so the framing is identical.
    light:
        Light direction (normalized internally).
    background:
        Background gray level.
    ambient:
        Ambient term; shade = ambient + (1 - ambient) * |n . l|.

    Returns
    -------
    numpy.ndarray
        ``size`` float64 image in [0, 1].

    Raises
    ------
    VisualizationError
        For a bad ``axis`` or ``size``, a ``light`` that is not a finite
        length-3 vector with a nonzero norm, an ``ambient`` outside
        [0, 1], a vertex that is not finite, or ``bounds`` that are not two
        finite length-3 vectors with ``hi >= lo``.
    """
    if isinstance(axis, bool) or not isinstance(axis, numbers.Integral) or axis not in (0, 1, 2):
        raise VisualizationError(f"axis must be 0, 1 or 2, got {axis!r}")
    h, w = _image_size(size)
    lvec = _unit_light(light)
    if not (isinstance(ambient, numbers.Real) and 0.0 <= ambient <= 1.0):
        raise VisualizationError(f"ambient must be a number in [0, 1], got {ambient!r}")
    img = np.full((h, w), float(background))
    if mesh.is_empty():
        return img
    verts = mesh.vertices
    if not np.isfinite(verts).all():
        raise VisualizationError("mesh has non-finite vertices")
    lo, hi = _window(bounds, mesh)
    uv_axes = [a for a in range(3) if a != axis]
    span = np.where(hi - lo > 0, hi - lo, 1.0)
    last_pixel = np.array([[h - 1], [w - 1]])

    # Pixel coordinates as contiguous rows: v from uv_axes[0], u from
    # uv_axes[1]. ``tri`` is (image axis, corner, face).
    pix = (verts.T[uv_axes] - lo[uv_axes, None]) / span[uv_axes, None] * last_pixel
    corners = mesh.faces.T
    tri = np.take(pix, corners, axis=1)
    a = tri[:, 0]
    (aby, abx), (acy, acx) = tri[:, 1] - a, tri[:, 2] - a
    det = aby * acx - abx * acy

    # Flat two-sided Lambert shade per face.
    shade = ambient + (1.0 - ambient) * np.abs(mesh.face_normals() @ lvec)

    # Candidate pixel ranges per face (module docstring).
    box_lo, box_hi = tri.min(axis=1), tri.max(axis=1)
    extent = (box_hi - box_lo).max(axis=0)
    pad = _PAD * (1.0 + extent)
    first, last = np.ceil(box_lo - pad), np.floor(box_hi + pad)
    visible = (det != 0.0) & (
        (first <= last) & (last >= 0) & (first <= last_pixel)).all(axis=0)
    wide = np.flatnonzero(
        (np.abs(det) < _SLIVER * extent * (1.0 + extent)) | (extent > _LONG))
    first[:, wide] = np.floor(np.take(box_lo, wide, axis=1))
    last[:, wide] = np.ceil(np.take(box_hi, wide, axis=1))
    visible[wide] = det[wide] != 0.0
    live = np.flatnonzero(visible)
    if live.size == 0:
        return img
    first = np.clip(np.take(first, live, axis=1), 0, last_pixel).astype(np.int64)
    last = np.clip(np.take(last, live, axis=1), 0, last_pixel).astype(np.int64)
    ny, nx = last - first + 1

    # Faces with one box shape are one broadcast of their per-face terms
    # over that shape's pixel grid; only its inside samples get a depth.
    # The stable sort keeps face order within a shape whatever the key's
    # dtype, and on 16 bits it is a radix sort.
    shape_key = ny * (w + 1) + nx
    by_shape = np.argsort(shape_key.astype(np.min_scalar_type(shape_key.max())), kind="stable")
    cuts = np.flatnonzero(np.diff(np.take(shape_key, by_shape))) + 1
    face = np.take(live, by_shape)
    terms = np.stack([*a, aby, abx, acy, acx, det, *np.take(verts[:, axis], corners)])
    terms = np.take(terms, face, axis=1)
    first = np.take(first, by_shape, axis=1)
    pixel_ids, depths, faces = [], [], []
    for start, stop in zip(np.r_[0, cuts], np.r_[cuts, len(face)]):
        gy, gx = ny[by_shape[start]], nx[by_shape[start]]
        ay, ax, g_aby, g_abx, g_acy, g_acx, g_det, za, zb, zc = terms[:, start:stop]
        top_row, left_col = first[:, start:stop]
        # Barycentric test at pixel centers, laid out (gy, gx, face): the
        # face axis is innermost, so every pass runs over the whole group.
        rows = top_row + np.arange(gy)[:, None, None]
        cols = left_col + np.arange(gx)[:, None]
        dy = rows - ay
        dx = cols - ax
        w1 = (dy * g_acx - dx * g_acy) / g_det
        w2 = (g_aby * dx - g_abx * dy) / g_det
        w0 = 1.0 - w1 - w2
        hit = np.flatnonzero(np.minimum(np.minimum(w0, w1), w2) >= _INSIDE)
        cell, member = divmod(hit, stop - start)
        row, col = divmod(cell, gx)
        pixel_ids.append((top_row[member] + row) * w + left_col[member] + col)
        w0, w1, w2 = w0.ravel()[hit], w1.ravel()[hit], w2.ravel()[hit]
        depths.append(w0 * za[member] + w1 * zb[member] + w2 * zc[member])
        faces.append(face[start + member])
    pixel_id, z, face = map(np.concatenate, (pixel_ids, depths, faces))

    # Z-buffer: camera at +axis looking down, so the *largest* coordinate
    # wins a pixel, and among the samples that equal it the lowest face.
    nearest = np.full(h * w, -np.inf)
    np.maximum.at(nearest, pixel_id, z)
    top = z == nearest[pixel_id]
    winner = np.full(h * w, mesh.n_faces)
    np.minimum.at(winner, pixel_id[top], face[top])
    painted = winner < mesh.n_faces
    img.reshape(-1)[painted] = shade[winner[painted]]
    return img
