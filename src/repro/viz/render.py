"""Orthographic z-buffer mesh renderer (pure NumPy).

The paper's SSIM numbers are computed on rendered iso-surface images; with
no graphics stack offline, this module rasterizes triangle meshes into
grayscale images deterministically:

* orthographic projection along a chosen axis,
* flat Lambert shading (two-sided) with a fixed light direction,
* a z-buffer over the pixel centres each face covers — no per-triangle
  Python loop. Every candidate gets the inside test; only the samples
  inside get a pixel id, a depth and a face index.

What decides a pixel is contract (``tests/viz/test_render.py`` keeps the
one-candidate-at-a-time algorithm as the oracle and compares bytes):

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
"""

from __future__ import annotations

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
        For a bad ``axis`` or ``size``, a vertex that is not finite, or
        ``bounds`` that are not two finite length-3 vectors with
        ``hi >= lo``.
    """
    if axis not in (0, 1, 2):
        raise VisualizationError(f"axis must be 0, 1 or 2, got {axis}")
    h, w = int(size[0]), int(size[1])
    if h < 2 or w < 2:
        raise VisualizationError(f"image size too small: {size}")
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

    # Pixel coordinates, rows first: v from uv_axes[0], u from uv_axes[1].
    # ``tri`` is (image axis, corner, face).
    pix = (verts[:, uv_axes] - lo[uv_axes]) / span[uv_axes] * last_pixel[:, 0]
    corners = mesh.faces.T
    tri = pix.T[:, corners]
    a = tri[:, 0]
    (aby, abx), (acy, acx) = tri[:, 1] - a, tri[:, 2] - a
    det = aby * acx - abx * acy

    # Flat two-sided Lambert shade per face.
    lvec = np.asarray(light, dtype=np.float64)
    lvec = lvec / np.linalg.norm(lvec)
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
    first[:, wide], last[:, wide] = np.floor(box_lo[:, wide]), np.ceil(box_hi[:, wide])
    visible[wide] = det[wide] != 0.0
    live = np.flatnonzero(visible)
    if live.size == 0:
        return img
    first = np.clip(first[:, live], 0, last_pixel).astype(np.int64)
    last = np.clip(last[:, live], 0, last_pixel).astype(np.int64)
    ny, nx = last - first + 1

    # Faces with one box shape are one broadcast of their per-face terms
    # over that shape's pixel grid; only its inside samples get a depth.
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
        # Barycentric test at pixel centers.
        dy = rows - ay
        dx = cols - ax
        w1 = (dy * g_acx - dx * g_acy) / g_det
        w2 = (g_aby * dx - g_abx * dy) / g_det
        w0 = 1.0 - w1 - w2
        hit = np.flatnonzero(np.minimum(np.minimum(w0, w1), w2) >= _INSIDE)
        member, cell = divmod(hit, gy * gx)
        row, col = divmod(cell, gx)
        g = start + member
        pixel_ids.append((first[0, g] + row) * w + first[1, g] + col)
        w0, w1, w2 = w0.ravel()[hit], w1.ravel()[hit], w2.ravel()[hit]
        depths.append(w0 * terms[7, g] + w1 * terms[8, g] + w2 * terms[9, g])
        faces.append(face[g])
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
