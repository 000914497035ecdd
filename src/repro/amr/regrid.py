"""Berger–Rigoutsos tagged-cell clustering.

The standard grid-generation algorithm of block-structured AMR (and the one
AMReX uses): recursively split the bounding box of the tagged cells at
signature holes or inflection points until every box is "efficient" (tagged
cells / box cells above a target) or minimal. Produces the disjoint set of
boxes that becomes a refinement level.

Reference: Berger & Rigoutsos, "An algorithm for point clustering and grid
generation", IEEE Trans. SMC 21(5), 1991.
"""

from __future__ import annotations

import numpy as np

from repro.amr.box import Box
from repro.amr.boxarray import BoxArray
from repro.errors import ReproError

__all__ = ["cluster_tags", "boxes_from_mask"]


def _bounding_box(tags: np.ndarray) -> Box | None:
    """Tight bounding box of the ``True`` region, or ``None`` if empty."""
    coords = np.nonzero(tags)
    if coords[0].size == 0:
        return None
    lo = tuple(int(c.min()) for c in coords)
    hi = tuple(int(c.max()) for c in coords)
    return Box(lo, hi)


def _signatures(tags: np.ndarray) -> list[np.ndarray]:
    """Per-axis tag counts (the Berger–Rigoutsos "signatures")."""
    sigs = []
    for axis in range(tags.ndim):
        other = tuple(a for a in range(tags.ndim) if a != axis)
        sigs.append(tags.sum(axis=other, dtype=np.int64))
    return sigs


def _find_hole(sig: np.ndarray) -> int | None:
    """Index of a zero entry strictly inside the signature, or None."""
    inside = np.nonzero(sig[1:-1] == 0)[0]
    if inside.size == 0:
        return None
    # Prefer the hole closest to the center for balanced splits.
    center = (len(sig) - 2) / 2.0
    best = inside[np.argmin(np.abs(inside - center))]
    return int(best) + 1


def _find_inflection(sig: np.ndarray) -> int | None:
    """Split index from the largest zero-crossing jump of the Laplacian."""
    if len(sig) < 4:
        return None
    lap = sig[:-2] - 2 * sig[1:-1] + sig[2:]  # second difference, len n-2
    # Zero crossings between consecutive Laplacian entries.
    sign_change = np.nonzero(lap[:-1] * lap[1:] < 0)[0]
    if sign_change.size == 0:
        return None
    jumps = np.abs(lap[sign_change + 1] - lap[sign_change])
    best = sign_change[np.argmax(jumps)]
    # lap[i] corresponds to sig index i+1; split between i+1 and i+2.
    return int(best) + 1


def cluster_tags(
    tags: np.ndarray,
    *,
    efficiency: float = 0.7,
    max_boxes: int = 1024,
    min_width: int = 2,
    blocking_factor: int = 1,
) -> BoxArray:
    """Cluster a boolean tag mask into boxes (Berger–Rigoutsos).

    Parameters
    ----------
    tags:
        Boolean mask in the *coarse* level's index space; ``True`` cells must
        be covered by the returned boxes.
    efficiency:
        Minimum fraction of tagged cells per accepted box.
    max_boxes:
        Safety cap on recursion breadth.
    min_width:
        Boxes narrower than this along any axis are accepted as-is.
    blocking_factor:
        Round accepted boxes outward so ``lo`` and ``shape`` are multiples of
        this factor (AMReX ``blocking_factor``), clipped to the mask domain.

    Returns
    -------
    BoxArray
        Disjoint boxes covering every tagged cell.
    """
    mask = np.asarray(tags, dtype=bool)
    if mask.ndim < 1:
        raise ReproError("tags must be an array")
    if not 0.0 < efficiency <= 1.0:
        raise ReproError(f"efficiency must be in (0, 1], got {efficiency}")
    bbox = _bounding_box(mask)
    if bbox is None:
        return BoxArray([])
    accepted: list[Box] = []
    stack = [bbox]
    while stack:
        if len(accepted) + len(stack) > max_boxes:
            accepted.extend(stack)
            break
        box = stack.pop()
        sub = mask[box.slices()]
        n_tag = int(sub.sum())
        if n_tag == 0:
            continue
        tight = _bounding_box(sub)
        assert tight is not None
        box = tight.shift(box.lo)
        sub = mask[box.slices()]
        eff = sub.sum() / box.size
        small = any(s <= min_width for s in box.shape)
        if eff >= efficiency or small:
            accepted.append(box)
            continue
        split = _choose_split(sub)
        if split is None:
            accepted.append(box)
            continue
        axis, local_idx = split
        left, right = box.split(axis, box.lo[axis] + local_idx)
        stack.append(left)
        stack.append(right)
    if blocking_factor > 1:
        domain = Box.from_shape(mask.shape)
        accepted = _apply_blocking(accepted, blocking_factor, domain)
    boxes = _make_disjoint(accepted)
    return BoxArray(boxes)


def _choose_split(sub: np.ndarray) -> tuple[int, int] | None:
    """Pick (axis, local split index) for a tag sub-mask, or None."""
    sigs = _signatures(sub)
    # 1) Holes, longest axis first.
    axes = sorted(range(sub.ndim), key=lambda a: -sub.shape[a])
    for axis in axes:
        hole = _find_hole(sigs[axis])
        if hole is not None and 0 < hole < sub.shape[axis]:
            return axis, hole - 1
    # 2) Inflection points.
    best: tuple[int, int] | None = None
    for axis in axes:
        idx = _find_inflection(sigs[axis])
        if idx is not None and 0 < idx < sub.shape[axis]:
            best = (axis, idx - 1)
            break
    if best is not None:
        return best
    # 3) Bisect the longest axis if it is splittable.
    axis = axes[0]
    if sub.shape[axis] >= 2:
        return axis, sub.shape[axis] // 2 - 1
    return None


def _apply_blocking(boxes: list[Box], factor: int, domain: Box) -> list[Box]:
    """Round boxes outward to the blocking factor, clipped to ``domain``."""
    out = []
    for b in boxes:
        lo = tuple((l // factor) * factor for l in b.lo)
        hi = tuple(((h // factor) + 1) * factor - 1 for h in b.hi)
        rounded = Box(lo, hi).intersection(domain)
        if rounded is not None:
            out.append(rounded)
    return out


def _make_disjoint(boxes: list[Box]) -> list[Box]:
    """Remove overlaps between boxes by rasterize-and-recluster.

    Splitting during Berger–Rigoutsos keeps boxes disjoint, but blocking
    rounding can reintroduce overlaps; rebuilding from the union mask is a
    simple, always-correct fix at the modest sizes used here.
    """
    if not boxes:
        return []
    probe = BoxArray(boxes)
    if probe.is_disjoint():
        return boxes
    window = probe.bounding_box()
    mask = probe.mask(window)
    rebuilt = _greedy_boxes(mask)
    return [b.shift(window.lo) for b in rebuilt]


def _greedy_boxes(mask: np.ndarray) -> list[Box]:
    """Greedy maximal-run decomposition of a boolean mask into boxes."""
    remaining = mask.copy()
    out: list[Box] = []
    while remaining.any():
        seed = tuple(int(c[0]) for c in np.nonzero(remaining))
        lo = list(seed)
        hi = list(seed)
        # Grow greedily along each axis while the slab stays fully tagged.
        for axis in range(mask.ndim):
            while hi[axis] + 1 < mask.shape[axis]:
                probe = [slice(l, h + 1) for l, h in zip(lo, hi)]
                probe[axis] = slice(hi[axis] + 1, hi[axis] + 2)
                if remaining[tuple(probe)].all():
                    hi[axis] += 1
                else:
                    break
        box = Box(tuple(lo), tuple(hi))
        out.append(box)
        remaining[box.slices()] = False
    return out


# kept: the exact decomposition of a mask, the lossless end of cluster_tags' efficiency knob
def boxes_from_mask(mask: np.ndarray) -> BoxArray:
    """Exact disjoint box decomposition of a boolean mask (greedy runs)."""
    return BoxArray(_greedy_boxes(np.asarray(mask, dtype=bool)))
