"""Coverage masks: which coarse cells are shadowed by finer data.

Patch-based AMR keeps coarse data underneath refined regions (the "0D" point
in Figure 3 of the paper). These helpers compute, per patch, the boolean
mask of such *redundant* cells — used by the AMR-aware codec to optionally
exclude them from compression (paper §2.2) and by the dual-cell pipeline's
"switching cells" gap fix (paper §2.4, Figure 8 top).
"""

from __future__ import annotations

import numpy as np

from repro.amr.box import Box
from repro.amr.boxarray import BoxArray
from repro.amr.hierarchy import AMRHierarchy

__all__ = ["patch_covered_mask", "level_covered_masks"]


def patch_covered_mask(
    patch_box: Box,
    fine_boxes: BoxArray,
    ref_ratio: tuple[int, ...] | int,
) -> np.ndarray:
    """Mask (shape ``patch_box.shape``) of cells covered by ``fine_boxes``.

    ``fine_boxes`` are in the finer level's index space; they are coarsened
    by ``ref_ratio`` before intersecting the patch.
    """
    coarse = fine_boxes.coarsen(ref_ratio)
    return coarse.mask(patch_box)


def level_covered_masks(hierarchy: AMRHierarchy, level: int) -> list[np.ndarray]:
    """Per-patch redundant-cell masks for ``level`` of a hierarchy.

    Returns one boolean array per box of the level, aligned with the level's
    box array. The finest level always gets all-``False`` masks.
    """
    lev = hierarchy[level]
    if level + 1 >= hierarchy.n_levels:
        return [np.zeros(b.shape, dtype=bool) for b in lev.boxes]
    fine_boxes = hierarchy[level + 1].boxes
    ratio = hierarchy.ref_ratios[level]
    return [patch_covered_mask(b, fine_boxes, ratio) for b in lev.boxes]
