"""Point-wise reconstruction-error metrics (PSNR and friends).

PSNR in the paper (Table 2, Figures 12/13) is computed on the *field data*
(original vs decompressed values), with the peak set to the original data's
value range — the standard convention of the SZ literature.
"""

from __future__ import annotations

import numpy as np

from repro.errors import MetricError
from repro.util.validation import check_array, check_same_shape

__all__ = ["max_abs_error", "mse", "psnr", "verify_error_bound"]


def _pair(original: np.ndarray, restored: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    a = check_array("original", original)
    b = check_array("restored", restored)
    check_same_shape("original", a, "restored", b)
    return a.astype(np.float64, copy=False), b.astype(np.float64, copy=False)


def max_abs_error(original: np.ndarray, restored: np.ndarray) -> float:
    """Largest absolute point-wise deviation."""
    a, b = _pair(original, restored)
    return float(np.abs(a - b).max())


def mse(original: np.ndarray, restored: np.ndarray) -> float:
    """Mean squared error."""
    a, b = _pair(original, restored)
    diff = a - b
    return float(np.mean(diff * diff))


def psnr(original: np.ndarray, restored: np.ndarray) -> float:
    """Peak signal-to-noise ratio in dB (peak = original value range).

    Identical arrays give ``inf``.
    """
    a, b = _pair(original, restored)
    value_range = float(a.max() - a.min())
    if value_range == 0.0:
        raise MetricError("PSNR undefined for constant original data")
    err = mse(a, b)
    if err == 0.0:
        return float("inf")
    return float(20.0 * np.log10(value_range) - 10.0 * np.log10(err))


def verify_error_bound(original: np.ndarray, restored: np.ndarray, eb: float, rtol: float = 1e-9) -> bool:
    """Whether ``|original - restored| <= eb`` holds everywhere (with a
    tiny relative tolerance for float rounding at exactly the bound)."""
    if eb <= 0:
        raise MetricError(f"error bound must be > 0, got {eb}")
    return max_abs_error(original, restored) <= eb * (1.0 + rtol)
