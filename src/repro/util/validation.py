"""Input-validation helpers used across the package.

These raise early with precise messages instead of letting NumPy produce an
opaque broadcasting error deep inside a kernel.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.errors import ReproError

__all__ = [
    "check_dim",
    "check_positive",
    "check_array",
    "check_same_shape",
    "as_tuple",
]


# kept: refuses a dimensionality the data model does not support
def check_dim(ndim: int, *, allowed: Sequence[int] = (1, 2, 3)) -> int:
    """Validate a spatial dimensionality.

    Parameters
    ----------
    ndim:
        Number of spatial dimensions.
    allowed:
        Permitted values.

    Returns
    -------
    int
        The validated ``ndim``.
    """
    if ndim not in allowed:
        raise ReproError(f"dimensionality {ndim} not supported (allowed: {tuple(allowed)})")
    return int(ndim)


# kept: refuses a non-positive size, step or bound from a caller
def check_positive(name: str, value: float, *, strict: bool = True) -> float:
    """Validate that ``value`` is positive (or non-negative if not strict)."""
    if strict and not value > 0:
        raise ReproError(f"{name} must be > 0, got {value!r}")
    if not strict and not value >= 0:
        raise ReproError(f"{name} must be >= 0, got {value!r}")
    return value


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
