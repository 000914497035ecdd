"""What two or more oracle modules share: the one-face-at-a-time
rasteriser ``render_mesh`` replaced (``_reference_render``; the render,
render-group and marching-cubes oracles compare images against it), the
byte-equality checks of decoded arrays (``assert_same`` for lists, the
decode and rebuild oracles; ``same_arrays`` for selections) and a read's
outcome, its arrays or the refusal it raised (``outcome``,
``same_outcome``; the hierarchy and cross-path oracles)."""

from __future__ import annotations

import numpy as np

from repro.errors import CompressionError


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


def assert_same(batched, reference):
    assert len(batched) == len(reference)
    for got, want in zip(batched, reference):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def outcome(fn):
    """``fn()``'s result, or the type and message of what it raised."""
    try:
        return fn()
    except CompressionError as exc:
        return (type(exc), str(exc))


def same_arrays(got: dict, want: dict) -> None:
    assert list(got) == list(want)
    for key, arr in want.items():
        assert got[key].dtype == arr.dtype and got[key].shape == arr.shape
        assert got[key].tobytes() == arr.tobytes(), key


def same_outcome(got, want) -> None:
    if isinstance(want, tuple):
        assert got == want
    else:
        same_arrays(got, want)
