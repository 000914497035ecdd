"""Scalar-to-color mapping and binary PPM output (matplotlib-free).

Gives the 2-D outputs (slices, volume renders, Figure 2 timestep panels) a
perceptually-ordered color map. The map is an analytic approximation of a
dark-blue -> teal -> yellow ramp (viridis-like monotone luminance) built
from smooth polynomial channel curves — no lookup data files.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.errors import FormatError
from repro.util.validation import check_array

__all__ = ["apply_colormap", "write_ppm"]


# kept: colour images of slices and volume renders (paper Figure 2 panels)
def apply_colormap(image: np.ndarray) -> np.ndarray:
    """Map a [0, 1] grayscale image to RGB uint8 (viridis-like ramp).

    Values outside [0, 1] are clipped.
    """
    arr = check_array("image", image, ndim=2).astype(np.float64, copy=False)
    t = np.clip(arr, 0.0, 1.0)
    # Smooth channel polynomials fitted to a dark-violet->teal->yellow ramp.
    r = 0.28 + t * (-1.33 + t * (4.63 + t * (-2.58)))
    g = 0.00 + t * (1.40 + t * (-0.90 + t * 0.40))
    b = 0.33 + t * (1.00 + t * (-2.48 + t * 1.18))
    rgb = np.stack([r, g, b], axis=-1)
    return np.clip(np.rint(rgb * 255.0), 0, 255).astype(np.uint8)


# kept: writes apply_colormap's RGB images (paper Figure 2 panels)
def write_ppm(path: str | Path, rgb: np.ndarray) -> Path:
    """Write an ``(h, w, 3)`` uint8 array as binary PPM (P6)."""
    arr = np.asarray(rgb)
    if arr.ndim != 3 or arr.shape[2] != 3:
        raise FormatError(f"PPM needs (h, w, 3), got {arr.shape}")
    if arr.dtype != np.uint8:
        raise FormatError(f"PPM needs uint8, got {arr.dtype}")
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    h, w = arr.shape[:2]
    with open(out, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode())
        fh.write(np.ascontiguousarray(arr).tobytes())
    return out
