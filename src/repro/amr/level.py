"""A single AMR refinement level.

An :class:`AMRLevel` owns the level's :class:`~repro.amr.boxarray.BoxArray`,
its physical cell spacing, and one list of :class:`~repro.amr.patch.Patch`
objects per named field (aligned with the box array). Levels are assembled
into an :class:`~repro.amr.hierarchy.AMRHierarchy`.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.amr.box import Box
from repro.amr.boxarray import BoxArray
from repro.amr.patch import Patch
from repro.errors import HierarchyError

__all__ = ["AMRLevel"]


class AMRLevel:
    """One refinement level of a patch-based AMR dataset.

    Parameters
    ----------
    index:
        Level number; 0 is the coarsest.
    boxes:
        The level's box array (disjoint boxes in this level's index space).
    dx:
        Physical cell spacing per dimension at this level.
    fields:
        Mapping from field name to a list of patches, one per box and in the
        same order as ``boxes``.
    """

    def __init__(
        self,
        index: int,
        boxes: BoxArray,
        dx: Sequence[float],
        fields: Mapping[str, Iterable[Patch]] | None = None,
    ):
        if index < 0:
            raise HierarchyError(f"level index must be >= 0, got {index}")
        if len(boxes) == 0:
            raise HierarchyError(f"level {index} has no boxes")
        if not boxes.is_disjoint():
            raise HierarchyError(f"level {index} boxes overlap")
        self.index = int(index)
        self.boxes = boxes
        self.dx = tuple(float(v) for v in dx)
        if len(self.dx) != boxes.ndim:
            raise HierarchyError(f"dx has {len(self.dx)} entries for {boxes.ndim}-D boxes")
        self._fields: dict[str, list[Patch]] = {}
        if fields:
            for name, patches in fields.items():
                self.add_field(name, patches)

    # ------------------------------------------------------------------
    # Field management
    # ------------------------------------------------------------------
    @property
    def field_names(self) -> tuple[str, ...]:
        """Names of the fields stored on this level."""
        return tuple(self._fields)

    def add_field(self, name: str, patches: Iterable[Patch]) -> None:
        """Attach a field; patches must align 1:1 with the box array."""
        plist = list(patches)
        if len(plist) != len(self.boxes):
            raise HierarchyError(
                f"field {name!r}: {len(plist)} patches for {len(self.boxes)} boxes"
            )
        for patch, box in zip(plist, self.boxes):
            if patch.box != box:
                raise HierarchyError(f"field {name!r}: patch box {patch.box} != level box {box}")
        self._fields[name] = plist

    def patches(self, field: str) -> list[Patch]:
        """Patches of ``field`` in box-array order."""
        try:
            return self._fields[field]
        except KeyError:
            raise HierarchyError(
                f"level {self.index} has no field {field!r} (have {self.field_names})"
            ) from None

    # ------------------------------------------------------------------
    # Assembly
    # ------------------------------------------------------------------
    def to_array(self, field: str, window: Box | None = None, fill: float = np.nan) -> np.ndarray:
        """Assemble the field over ``window`` (default: bounding box).

        Cells not covered by any box get ``fill`` — the standard way to feed
        a partially-covered level into masked marching cubes.
        """
        win = window if window is not None else self.boxes.bounding_box()
        out = np.full(win.shape, fill, dtype=np.float64)
        for patch in self.patches(field):
            ov = patch.box.intersection(win)
            if ov is not None:
                out[ov.slices(win.lo)] = patch.view(ov)
        return out

    def cell_count(self) -> int:
        """Cells stored on this level (union of boxes)."""
        return self.boxes.cell_count()

    @property
    def ndim(self) -> int:
        """Spatial dimensionality."""
        return self.boxes.ndim

    # kept: operator need: a readable level in tracebacks and the REPL
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"AMRLevel(index={self.index}, boxes={len(self.boxes)}, "
            f"cells={self.cell_count()}, fields={list(self._fields)})"
        )
