"""Integer index-space boxes (AMReX-style ``Box``).

A :class:`Box` describes a rectangular region of cell indices
``[lo, hi]`` (inclusive on both ends, matching AMReX convention). Boxes are
the unit of domain decomposition in patch-based AMR: every level stores its
data as a set of boxes, refinement maps boxes between levels, and coverage
queries intersect boxes.

All coordinates are integer cell indices; physical geometry (cell spacing,
origin) lives on :class:`repro.amr.level.AMRLevel`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from repro.errors import BoxError
from repro.util.validation import as_tuple

__all__ = ["Box"]


@dataclass(frozen=True)
class Box:
    """Closed integer box ``[lo, hi]`` in index space.

    Parameters
    ----------
    lo:
        Inclusive lower corner (one int per dimension).
    hi:
        Inclusive upper corner; must satisfy ``hi >= lo`` component-wise.

    Examples
    --------
    >>> b = Box((0, 0, 0), (7, 7, 7))
    >>> b.shape
    (8, 8, 8)
    >>> b.refine(2).shape
    (16, 16, 16)
    """

    lo: tuple[int, ...]
    hi: tuple[int, ...]

    def __post_init__(self) -> None:
        lo = tuple(int(v) for v in self.lo)
        hi = tuple(int(v) for v in self.hi)
        if len(lo) != len(hi):
            raise BoxError(f"lo has {len(lo)} dims but hi has {len(hi)}")
        if len(lo) == 0:
            raise BoxError("box must have at least one dimension")
        if any(h < l for l, h in zip(lo, hi)):
            raise BoxError(f"empty box: lo={lo} hi={hi}")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_shape(cls, shape: Sequence[int], lo: Sequence[int] | None = None) -> "Box":
        """Box with the given ``shape`` anchored at ``lo`` (default origin)."""
        shp = tuple(int(s) for s in shape)
        if any(s <= 0 for s in shp):
            raise BoxError(f"shape must be positive, got {shp}")
        anchor = tuple(int(v) for v in lo) if lo is not None else (0,) * len(shp)
        if len(anchor) != len(shp):
            raise BoxError("lo and shape dimensionality mismatch")
        return cls(anchor, tuple(a + s - 1 for a, s in zip(anchor, shp)))

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------
    @property
    def ndim(self) -> int:
        """Number of spatial dimensions."""
        return len(self.lo)

    @property
    def shape(self) -> tuple[int, ...]:
        """Number of cells along each dimension."""
        return tuple(h - l + 1 for l, h in zip(self.lo, self.hi))

    @property
    def size(self) -> int:
        """Total cell count."""
        out = 1
        for s in self.shape:
            out *= s
        return out

    # kept: AMReX box calculus: whether an index lies in a box
    def contains_point(self, point: Sequence[int]) -> bool:
        """Whether an index tuple lies inside this box."""
        if len(point) != self.ndim:
            raise BoxError(f"point dim {len(point)} != box dim {self.ndim}")
        return all(l <= int(p) <= h for l, p, h in zip(self.lo, point, self.hi))

    def contains_box(self, other: "Box") -> bool:
        """Whether ``other`` is fully inside this box."""
        self._check_dim(other)
        return all(sl <= ol and oh <= sh for sl, ol, oh, sh in zip(self.lo, other.lo, other.hi, self.hi))

    # kept: the pairwise oracle tests/amr/test_disjoint_oracle.py checks is_disjoint against
    def intersects(self, other: "Box") -> bool:
        """Whether the two boxes share at least one cell."""
        self._check_dim(other)
        return all(max(a, c) <= min(b, d) for a, b, c, d in zip(self.lo, self.hi, other.lo, other.hi))

    def intersection(self, other: "Box") -> "Box | None":
        """Overlap box, or ``None`` if disjoint."""
        self._check_dim(other)
        lo = tuple(max(a, c) for a, c in zip(self.lo, other.lo))
        hi = tuple(min(b, d) for b, d in zip(self.hi, other.hi))
        if any(h < l for l, h in zip(lo, hi)):
            return None
        return Box(lo, hi)

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def refine(self, ratio: int | Sequence[int]) -> "Box":
        """Map this box to the next finer level.

        Each cell becomes a ``ratio**ndim`` block of fine cells, so the
        refined box is ``[lo*r, (hi+1)*r - 1]`` — AMReX ``Box::refine``.
        """
        r = as_tuple(ratio, self.ndim, "ratio")
        if any(v < 1 for v in r):
            raise BoxError(f"refinement ratio must be >= 1, got {r}")
        return Box(
            tuple(l * v for l, v in zip(self.lo, r)),
            tuple((h + 1) * v - 1 for h, v in zip(self.hi, r)),
        )

    def coarsen(self, ratio: int | Sequence[int]) -> "Box":
        """Map to the next coarser level (floor division, AMReX semantics)."""
        r = as_tuple(ratio, self.ndim, "ratio")
        if any(v < 1 for v in r):
            raise BoxError(f"refinement ratio must be >= 1, got {r}")

        def fdiv(a: int, b: int) -> int:
            return a // b  # Python floor-div already matches AMReX coarsen

        return Box(
            tuple(fdiv(l, v) for l, v in zip(self.lo, r)),
            tuple(fdiv(h, v) for h, v in zip(self.hi, r)),
        )

    def shift(self, offset: Sequence[int]) -> "Box":
        """Translate by an integer offset."""
        off = as_tuple(offset, self.ndim, "offset")
        return Box(
            tuple(l + o for l, o in zip(self.lo, off)),
            tuple(h + o for h, o in zip(self.hi, off)),
        )

    # kept: AMReX box calculus: ghost-cell and buffer growth of a box
    def grow(self, n: int | Sequence[int]) -> "Box":
        """Grow (or shrink for negative ``n``) by ``n`` cells on every face."""
        g = as_tuple(n, self.ndim, "n")
        lo = tuple(l - v for l, v in zip(self.lo, g))
        hi = tuple(h + v for h, v in zip(self.hi, g))
        if any(b < a for a, b in zip(lo, hi)):
            raise BoxError(f"grow({g}) empties box {self}")
        return Box(lo, hi)

    # ------------------------------------------------------------------
    # Indexing helpers
    # ------------------------------------------------------------------
    def slices(self, origin: Sequence[int] | None = None) -> tuple[slice, ...]:
        """Slices selecting this box out of an array anchored at ``origin``.

        ``origin`` defaults to the box's own ``lo`` of the *enclosing* array
        being ``(0, ...)``; pass the enclosing box's ``lo`` to index into a
        patch array.
        """
        org = tuple(int(v) for v in origin) if origin is not None else (0,) * self.ndim
        return tuple(slice(l - o, h - o + 1) for l, o, h in zip(self.lo, org, self.hi))

    def split(self, axis: int, index: int) -> tuple["Box", "Box"]:
        """Split into two boxes along ``axis`` at cell ``index``.

        The first box ends at ``index`` (inclusive); the second starts at
        ``index + 1``. Used by the Berger–Rigoutsos clustering algorithm.
        """
        if not (0 <= axis < self.ndim):
            raise BoxError(f"axis {axis} out of range for {self.ndim}-D box")
        if not (self.lo[axis] <= index < self.hi[axis]):
            raise BoxError(f"split index {index} outside [{self.lo[axis]}, {self.hi[axis]})")
        hi1 = list(self.hi)
        hi1[axis] = index
        lo2 = list(self.lo)
        lo2[axis] = index + 1
        return Box(self.lo, tuple(hi1)), Box(tuple(lo2), self.hi)

    # kept: AMReX box calculus: tile a box into grids of at most a max size
    def chunk(self, max_shape: int | Sequence[int]) -> Iterator["Box"]:
        """Yield sub-boxes tiling this box with at most ``max_shape`` cells
        per dimension. Tiles on the high edge may be smaller."""
        ms = as_tuple(max_shape, self.ndim, "max_shape")
        if any(v < 1 for v in ms):
            raise BoxError(f"max_shape must be >= 1, got {ms}")
        starts = [range(l, h + 1, m) for l, h, m in zip(self.lo, self.hi, ms)]
        grids = np.meshgrid(*[np.asarray(list(s)) for s in starts], indexing="ij")
        for corner in zip(*[g.ravel() for g in grids]):
            lo = tuple(int(c) for c in corner)
            hi = tuple(min(int(c) + m - 1, h) for c, m, h in zip(corner, ms, self.hi))
            yield Box(lo, hi)

    def _check_dim(self, other: "Box") -> None:
        if other.ndim != self.ndim:
            raise BoxError(f"box dim mismatch: {self.ndim} vs {other.ndim}")

    # kept: operator need: a readable box in tracebacks and the REPL
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Box(lo={self.lo}, hi={self.hi})"
