"""Input-validation helpers used across the package.

These raise early with precise messages instead of letting NumPy produce an
opaque broadcasting error deep inside a kernel.
"""

from __future__ import annotations

import numbers
from typing import Any, Sequence

import numpy as np

from repro.errors import ReproError

__all__ = [
    "check_int",
    "check_array",
    "check_same_shape",
    "as_tuple",
]


def check_int(name: str, value: Any, minimum: int) -> int:
    """Validate that ``value`` is an integer (not a bool) >= ``minimum``."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Integral):
        raise ReproError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ReproError(f"{name} must be >= {minimum}, got {value!r}")
    return int(value)


def check_array(
    name: str,
    arr: Any,
    *,
    ndim: int | None = None,
    dtype_kind: str | None = None,
    allow_empty: bool = False,
) -> np.ndarray:
    """Coerce ``arr`` to an ndarray and validate its rank / dtype kind.

    Parameters
    ----------
    name:
        Parameter name used in error messages.
    arr:
        Array-like input.
    ndim:
        Required number of dimensions, or ``None`` to skip the check.
    dtype_kind:
        Required ``dtype.kind`` string, e.g. ``"f"`` for floats. ``None``
        skips the check.
    allow_empty:
        Whether zero-size arrays are acceptable.
    """
    out = np.asarray(arr)
    if ndim is not None and out.ndim != ndim:
        raise ReproError(f"{name} must be {ndim}-D, got {out.ndim}-D shape {out.shape}")
    if dtype_kind is not None and out.dtype.kind != dtype_kind:
        raise ReproError(f"{name} must have dtype kind {dtype_kind!r}, got {out.dtype}")
    if not allow_empty and out.size == 0:
        raise ReproError(f"{name} must be non-empty")
    return out


def check_same_shape(a_name: str, a: np.ndarray, b_name: str, b: np.ndarray) -> None:
    """Validate that two arrays have identical shapes."""
    if a.shape != b.shape:
        raise ReproError(f"{a_name} shape {a.shape} != {b_name} shape {b.shape}")


def as_tuple(value: int | Sequence[int], ndim: int, name: str = "value") -> tuple[int, ...]:
    """Broadcast a scalar or sequence to an ``ndim``-tuple of ints."""
    if np.isscalar(value):
        return (int(value),) * ndim
    out = tuple(int(v) for v in value)  # type: ignore[union-attr]
    if len(out) != ndim:
        raise ReproError(f"{name} must have length {ndim}, got {len(out)}")
    return out
