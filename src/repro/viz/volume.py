"""Volume rendering and slicing (the paper's §3.1 alternatives).

The paper motivates its focus on iso-surfaces by noting they are *more
sensitive* to compression error than volume rendering or slicing. These
axis-aligned implementations make that claim testable:

* :func:`slice_image` — a 2-D slice through the uniform composite;
* :func:`max_intensity_projection` — brightest-sample projection;
* :func:`volume_render` — front-to-back emission/absorption compositing
  with a linear transfer function (pure NumPy cumulative products).

All three consume the uniform composite (via
:func:`repro.amr.uniform.flatten_to_uniform`) so they apply unchanged to
original and decompressed hierarchies.
"""

from __future__ import annotations

import numpy as np

from repro.errors import VisualizationError
from repro.util.validation import check_array

__all__ = ["slice_image", "max_intensity_projection", "volume_render", "normalize_field"]


def normalize_field(field: np.ndarray, lo: float | None = None, hi: float | None = None) -> np.ndarray:
    """Affinely map a field to [0, 1] (clipping outside ``lo``/``hi``).

    Pass the *original* data's range when normalizing decompressed data so
    both images use the identical transfer function.
    """
    arr = check_array("field", field).astype(np.float64, copy=False)
    lo_v = float(arr.min()) if lo is None else float(lo)
    hi_v = float(arr.max()) if hi is None else float(hi)
    if hi_v <= lo_v:
        return np.zeros_like(arr)
    return np.clip((arr - lo_v) / (hi_v - lo_v), 0.0, 1.0)


def slice_image(field: np.ndarray, axis: int = 0, index: int | None = None) -> np.ndarray:
    """Extract one 2-D slice (defaults to the middle plane)."""
    arr = check_array("field", field, ndim=3)
    if not 0 <= axis <= 2:
        raise VisualizationError(f"axis must be 0..2, got {axis}")
    n = arr.shape[axis]
    idx = n // 2 if index is None else int(index)
    if not 0 <= idx < n:
        raise VisualizationError(f"slice index {idx} out of range [0, {n})")
    return np.take(arr, idx, axis=axis).astype(np.float64, copy=True)


# kept: the brightest-sample projection, a third 2-D view beside slices and volume renders
def max_intensity_projection(field: np.ndarray, axis: int = 0) -> np.ndarray:
    """Maximum-intensity projection along ``axis``."""
    arr = check_array("field", field, ndim=3)
    if not 0 <= axis <= 2:
        raise VisualizationError(f"axis must be 0..2, got {axis}")
    return arr.max(axis=axis).astype(np.float64)


def volume_render(
    field: np.ndarray,
    axis: int = 0,
    opacity_scale: float = 4.0,
    emission_gamma: float = 1.0,
) -> np.ndarray:
    """Front-to-back emission/absorption volume rendering.

    The field must already be normalized to [0, 1]
    (:func:`normalize_field`). Each sample emits ``v ** emission_gamma``
    and absorbs with per-sample opacity
    ``alpha = 1 - exp(-opacity_scale * v / n_samples)`` — the standard
    discretized absorption model. Returns a [0, 1] image.
    """
    arr = check_array("field", field, ndim=3).astype(np.float64, copy=False)
    if not 0 <= axis <= 2:
        raise VisualizationError(f"axis must be 0..2, got {axis}")
    if opacity_scale <= 0:
        raise VisualizationError(f"opacity_scale must be > 0, got {opacity_scale}")
    if arr.min() < 0.0 or arr.max() > 1.0:
        raise VisualizationError("volume_render expects a [0, 1]-normalized field")
    vol = np.moveaxis(arr, axis, 0)
    n = vol.shape[0]
    alpha = 1.0 - np.exp(-opacity_scale * vol / n)
    emission = vol**emission_gamma
    # Front-to-back compositing: transmittance before sample k is the
    # cumulative product of (1 - alpha) over samples 0..k-1.
    one_minus = 1.0 - alpha
    trans = np.cumprod(one_minus, axis=0)
    trans_before = np.concatenate([np.ones((1,) + vol.shape[1:]), trans[:-1]], axis=0)
    image = (trans_before * alpha * emission).sum(axis=0)
    peak = image.max()
    if peak > 0:
        image = image / peak
    return image
