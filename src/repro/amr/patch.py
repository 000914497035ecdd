"""Cell-centered data patches (AMReX ``FArrayBox`` analogue).

A :class:`Patch` couples a :class:`~repro.amr.box.Box` with an ndarray of
cell-centered values of the same shape. Patches are the unit of storage,
compression, and per-patch parallelism.
"""

from __future__ import annotations

import numpy as np

from repro.amr.box import Box
from repro.errors import BoxError

__all__ = ["Patch"]


class Patch:
    """A box plus its cell-centered data.

    Parameters
    ----------
    box:
        Index-space extent of the patch.
    data:
        Array with ``data.shape == box.shape``. Stored as ``float64`` by
        default (scientific simulation output); integer arrays are kept
        as-is for mask-like patches.
    """

    __slots__ = ("box", "data")

    def __init__(self, box: Box, data: np.ndarray):
        arr = np.asarray(data)
        if arr.shape != box.shape:
            raise BoxError(f"data shape {arr.shape} != box shape {box.shape}")
        self.box = box
        self.data = arr

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    # kept: builds the constant patches docs and tests assemble levels from
    @classmethod
    def full(cls, box: Box, fill: float = 0.0, dtype: np.dtype | type = np.float64) -> "Patch":
        """Patch filled with a constant."""
        return cls(box, np.full(box.shape, fill, dtype=dtype))

    # ------------------------------------------------------------------
    # Views and extraction
    # ------------------------------------------------------------------
    def view(self, sub: Box) -> np.ndarray:
        """NumPy *view* of the data restricted to sub-box ``sub``.

        Raises if ``sub`` is not fully contained (views never allocate).
        """
        if not self.box.contains_box(sub):
            raise BoxError(f"{sub} not contained in patch box {self.box}")
        return self.data[sub.slices(self.box.lo)]

    def copy(self) -> "Patch":
        """Deep copy."""
        return Patch(self.box, self.data.copy())

    @property
    def nbytes(self) -> int:
        """Raw payload size in bytes."""
        return int(self.data.nbytes)

    # kept: operator need: a readable patch in tracebacks and the REPL
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Patch(box={self.box}, dtype={self.data.dtype})"
