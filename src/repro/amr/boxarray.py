"""Collections of boxes (AMReX-style ``BoxArray``).

A :class:`BoxArray` is the set of boxes that make up one AMR level. It
answers coverage questions ("is this cell inside the level?"), computes the
union cell count (used for the per-level *density* reported in Table 1 of
the paper), and checks the non-overlap invariant AMReX levels maintain.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.amr.box import Box
from repro.errors import BoxError

__all__ = ["BoxArray"]


class BoxArray:
    """Immutable ordered collection of same-dimension boxes."""

    def __init__(self, boxes: Iterable[Box]):
        self._boxes: tuple[Box, ...] = tuple(boxes)
        if self._boxes:
            ndim = self._boxes[0].ndim
            for b in self._boxes:
                if b.ndim != ndim:
                    raise BoxError("all boxes in a BoxArray must share dimensionality")

    # ------------------------------------------------------------------
    # Container protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._boxes)

    def __iter__(self) -> Iterator[Box]:
        return iter(self._boxes)

    # kept: the sequence protocol: a box list indexes like the list it wraps
    def __getitem__(self, i: int) -> Box:
        return self._boxes[i]

    # kept: the sequence protocol: two box lists compare by their boxes
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BoxArray):
            return NotImplemented
        return self._boxes == other._boxes

    # kept: operator need: a readable box list in tracebacks and the REPL
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BoxArray({len(self._boxes)} boxes, {self.cell_count()} cells)"

    # ------------------------------------------------------------------
    # Geometry queries
    # ------------------------------------------------------------------
    @property
    def ndim(self) -> int:
        """Dimensionality of the member boxes (0 boxes -> error)."""
        if not self._boxes:
            raise BoxError("empty BoxArray has no dimensionality")
        return self._boxes[0].ndim

    def bounding_box(self) -> Box:
        """Smallest box containing every member box."""
        if not self._boxes:
            raise BoxError("empty BoxArray has no bounding box")
        lo = tuple(min(b.lo[d] for b in self._boxes) for d in range(self.ndim))
        hi = tuple(max(b.hi[d] for b in self._boxes) for d in range(self.ndim))
        return Box(lo, hi)

    def cell_count(self) -> int:
        """Total number of cells in the *union* of the boxes.

        Uses a sweep over the bounding box mask for exactness; boxes in an
        AMR level normally do not overlap, but this method is correct either
        way and is what Table 1's per-level density is derived from.
        """
        if not self._boxes:
            return 0
        if self.is_disjoint():
            return sum(b.size for b in self._boxes)
        return int(self.mask(self.bounding_box()).sum())

    def is_disjoint(self) -> bool:
        """Whether no two boxes overlap (AMReX level invariant).

        Box ``i`` is tested against every later box in one array pass, and
        the first overlap ends the scan; an ``n x n`` table of every pair
        would cost more than it saves on the regrid's thousand-box arrays.
        """
        if len(self._boxes) < 2:
            return True
        lo = np.array([b.lo for b in self._boxes])
        hi = np.array([b.hi for b in self._boxes])
        for i in range(len(lo) - 1):
            if ((lo[i + 1:] <= hi[i]) & (lo[i] <= hi[i + 1:])).all(axis=1).any():
                return False
        return True

    # kept: AMReX box calculus: whether a box list covers an index
    def contains_point(self, point: Sequence[int]) -> bool:
        """Whether the union covers an index point."""
        return any(b.contains_point(point) for b in self._boxes)

    def mask(self, window: Box) -> np.ndarray:
        """Boolean occupancy mask of the union restricted to ``window``.

        The returned array has shape ``window.shape``; entry ``True`` means
        that cell belongs to some box in the array.
        """
        out = np.zeros(window.shape, dtype=bool)
        for b in self._boxes:
            ov = b.intersection(window)
            if ov is not None:
                out[ov.slices(window.lo)] = True
        return out

    # kept: AMReX box calculus: the boxes of a list that meet a target box
    def intersecting(self, target: Box) -> "BoxArray":
        """Sub-array of boxes that intersect ``target``."""
        return BoxArray(b for b in self._boxes if b.intersects(target))

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def refine(self, ratio: int | Sequence[int]) -> "BoxArray":
        """Refine every box (map to finer index space)."""
        return BoxArray(b.refine(ratio) for b in self._boxes)

    def coarsen(self, ratio: int | Sequence[int]) -> "BoxArray":
        """Coarsen every box (map to coarser index space)."""
        return BoxArray(b.coarsen(ratio) for b in self._boxes)

    # kept: AMReX box calculus: grow every box of a list
    def grow(self, n: int | Sequence[int]) -> "BoxArray":
        """Grow every box by ``n`` cells per face."""
        return BoxArray(b.grow(n) for b in self._boxes)

    def clamped(self, domain: Box) -> "BoxArray":
        """Intersect every box with ``domain``, dropping the disjoint ones."""
        clipped = (b.intersection(domain) for b in self._boxes)
        return BoxArray(b for b in clipped if b is not None)
