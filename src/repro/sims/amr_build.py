"""Build two-level patch-based hierarchies from full-resolution fields.

The synthetic simulations synthesize every field at the *fine* resolution,
then this module:

1. derives the coarse level by conservative averaging (so coarse data under
   refined regions is exactly what AMReX's ``average_down`` would store —
   the "redundant" data of Figure 3),
2. chooses the refined region by clustering a tag mask whose tagged
   fraction is calibrated (bisection) so the fine level's share of the
   domain matches the Table 1 density target; a pass whose tagged
   blocks alone already cover too much is decided without clustering,
3. cuts the fine fields into patches over the clustered boxes.
"""

from __future__ import annotations

import numbers
from typing import Mapping, Sequence

import numpy as np

from repro.amr.box import Box
from repro.amr.boxarray import BoxArray
from repro.amr.hierarchy import AMRHierarchy
from repro.amr.level import AMRLevel
from repro.amr.patch import Patch
from repro.amr.regrid import cluster_tags
from repro.errors import ReproError
from repro.util.validation import check_int

__all__ = [
    "average_pool",
    "calibrated_boxes",
    "two_level_hierarchy",
    "nested_calibrated_boxes",
    "multi_level_hierarchy",
]


def average_pool(fine: np.ndarray, ratio: int) -> np.ndarray:
    """Conservative block-mean downsampling by an integer ratio."""
    if any(s % ratio for s in fine.shape):
        raise ReproError(f"shape {fine.shape} not divisible by ratio {ratio}")
    shp = []
    for s in fine.shape:
        shp.extend((s // ratio, ratio))
    view = fine.reshape(shp)
    return view.mean(axis=tuple(range(1, 2 * fine.ndim, 2)))


def _block_floor(tags: np.ndarray, factor: int) -> int:
    """Cells of the ``factor``-aligned blocks that hold a tag.

    Blocks start at index 0 and the last one on each axis is clipped at
    the top edge, as ``cluster_tags`` rounds its boxes: every box it
    returns is a union of such blocks, and together they cover every tag.
    """
    blocks = tags
    for axis, n in enumerate(tags.shape):
        blocks = np.logical_or.reduceat(blocks, np.arange(0, n, factor), axis=axis)
    cells = blocks.astype(np.int64)
    for n in reversed(tags.shape):
        cells = cells @ np.minimum(factor, n - np.arange(0, n, factor))
    return int(cells)


def calibrated_boxes(
    score: np.ndarray,
    target_fraction: float,
    *,
    tolerance: float = 0.02,
    max_iter: int = 24,
    blocking_factor: int = 4,
    efficiency: float = 0.7,
) -> BoxArray:
    """Boxes covering ~``target_fraction`` of the domain, highest score first.

    Bisection on the tag quantile: clustering inflates coverage (boxes are
    rectangular, tags are not), so the tagged fraction that produces the
    desired *covered* fraction is found iteratively — mirroring how one
    would tune an AMR refinement threshold to hit a storage budget.
    ``tolerance`` is a number >= 0, ``max_iter`` and ``blocking_factor``
    integers >= 1 and ``efficiency`` a real number in ``(0, 1]``; each is
    checked before any work.

    A pass is clustered only when it can matter. Its *floor*, the share of
    the domain in ``blocking_factor``-aligned blocks holding a tag, is a
    lower bound on the covered share, since ``cluster_tags`` covers every
    tag with whole (clipped) blocks. A pass whose floor overshoots the
    target by more than ``tolerance`` is decided without clustering (too
    much is covered: the bracket's top moves down) and set aside. After
    the loop a set-aside pass is clustered only if its floor's error does
    not exceed the best error found, ties going to the earlier pass, so
    the result is the box list clustering every pass would choose.
    """
    if not 0.0 < target_fraction < 1.0:
        raise ReproError(f"target_fraction must be in (0, 1), got {target_fraction}")
    if isinstance(tolerance, bool) or not isinstance(tolerance, numbers.Real) or not tolerance >= 0:
        raise ReproError(f"tolerance must be a number >= 0, got {tolerance!r}")
    max_iter = check_int("max_iter", max_iter, 1)
    blocking_factor = check_int("blocking_factor", blocking_factor, 1)
    if (isinstance(efficiency, bool) or not isinstance(efficiency, numbers.Real)
            or not 0.0 < efficiency <= 1.0):
        raise ReproError(f"efficiency must be a real number in (0, 1], got {efficiency!r}")
    domain = Box.from_shape(score.shape)
    lo_q, hi_q = 0.0, 1.0  # tagged-fraction bisection bracket
    best: BoxArray | None = None
    best_err, best_pass = np.inf, -1
    # (pass, quantile cut, floor error); the cut, not the mask, is kept
    # so that set-aside passes hold no domain-sized arrays.
    set_aside: list[tuple[int, float, float]] = []
    # Two cuts can tag the same cells (a coarse score has few distinct
    # quantiles): each distinct mask is clustered once per call, keyed by
    # its packed bits (one bit a cell, not a domain-sized array).
    clustered: dict[bytes, tuple[BoxArray, float]] = {}

    def cluster(tags: np.ndarray) -> tuple[BoxArray, float]:
        """The pass's boxes and the share of the domain they cover."""
        key = np.packbits(tags).tobytes()
        if key not in clustered:
            # Clustered boxes are disjoint and inside the mask's domain.
            boxes = cluster_tags(tags, efficiency=efficiency, blocking_factor=blocking_factor)
            clustered[key] = boxes, sum(b.size for b in boxes) / domain.size
        return clustered[key]

    for i in range(max_iter):
        frac = 0.5 * (lo_q + hi_q)
        if frac <= 0.0 or frac >= 1.0:
            break
        cut = np.quantile(score, 1.0 - frac)
        tags = score > cut
        if not tags.any():
            lo_q = frac
            continue
        floor_err = _block_floor(tags, blocking_factor) / domain.size - target_fraction
        if floor_err > tolerance:
            set_aside.append((i, cut, floor_err))
            hi_q = frac
            continue
        boxes, covered = cluster(tags)
        err = abs(covered - target_fraction)
        if err < best_err:
            best, best_err, best_pass = boxes, err, i
        if err <= tolerance:
            break
        if covered > target_fraction:
            hi_q = frac
        else:
            lo_q = frac
    # A set-aside pass errs by at least its floor's error.
    for i, cut, floor_err in set_aside:
        if floor_err > best_err:
            continue
        boxes, covered = cluster(score > cut)
        err = abs(covered - target_fraction)
        if err < best_err or (err == best_err and i < best_pass):
            best, best_err, best_pass = boxes, err, i
    if best is None or len(best) == 0:
        raise ReproError("refinement calibration produced no boxes")
    return best


def two_level_hierarchy(
    fine_fields: Mapping[str, np.ndarray],
    fine_boxes_coarse_space: BoxArray,
    dx_coarse: float,
    ref_ratio: int = 2,
) -> AMRHierarchy:
    """Assemble a two-level hierarchy from fine-resolution fields.

    Parameters
    ----------
    fine_fields:
        Field name -> array at fine resolution over the whole domain.
    fine_boxes_coarse_space:
        Refined region as boxes in coarse index space.
    dx_coarse:
        Coarse cell spacing (isotropic).
    ref_ratio:
        Refinement ratio (fine arrays must be ``ratio *`` coarse shape).
    """
    names = list(fine_fields)
    if not names:
        raise ReproError("need at least one field")
    fine_shape = fine_fields[names[0]].shape
    for name in names:
        if fine_fields[name].shape != fine_shape:
            raise ReproError("all fine fields must share a shape")
    coarse_shape = tuple(s // ref_ratio for s in fine_shape)
    domain = Box.from_shape(coarse_shape)
    coarse_level = AMRLevel(0, BoxArray([domain]), (dx_coarse,) * len(coarse_shape))
    for name in names:
        coarse_level.add_field(name, [Patch(domain, average_pool(fine_fields[name], ref_ratio))])
    fine_boxes = fine_boxes_coarse_space.clamped(domain).refine(ref_ratio)
    dx_fine = dx_coarse / ref_ratio
    fine_level = AMRLevel(1, fine_boxes, (dx_fine,) * len(coarse_shape))
    for name in names:
        arr = fine_fields[name]
        fine_level.add_field(name, [Patch(b, arr[b.slices()].copy()) for b in fine_boxes])
    return AMRHierarchy(domain, [coarse_level, fine_level], ref_ratio)


def nested_calibrated_boxes(
    score: np.ndarray,
    outer: BoxArray,
    target_fraction: float,
    *,
    tolerance: float = 0.03,
    blocking_factor: int = 4,
) -> BoxArray:
    """Boxes covering ~``target_fraction`` of the domain *inside* ``outer``.

    ``score`` and ``outer`` live in the same index space. Candidate boxes
    are clipped piecewise against the outer boxes, so the result nests
    properly (the requirement for a third AMR level). ``blocking_factor``
    is an integer >= 1, checked before any work.
    """
    blocking_factor = check_int("blocking_factor", blocking_factor, 1)
    domain = Box.from_shape(score.shape)
    outer_mask = outer.mask(domain)
    masked = np.where(outer_mask, score, -np.inf)
    if not np.isfinite(masked).any():
        raise ReproError("outer region is empty")
    raw = calibrated_boxes(
        np.where(outer_mask, score, score.min() - 1.0),
        target_fraction,
        tolerance=tolerance,
        blocking_factor=blocking_factor,
    )
    # Every candidate x outer overlap in one array pass; ``np.nonzero`` keeps
    # them candidate-major, the order the pieces are listed in.
    r_lo = np.array([b.lo for b in raw])[:, None]
    r_hi = np.array([b.hi for b in raw])[:, None]
    lo = np.maximum(r_lo, np.array([b.lo for b in outer]))
    hi = np.minimum(r_hi, np.array([b.hi for b in outer]))
    hit = np.nonzero((lo <= hi).all(axis=2))
    pieces = [Box(l, h) for l, h in zip(lo[hit].tolist(), hi[hit].tolist())]
    if not pieces:
        raise ReproError("nested calibration produced no boxes")
    return BoxArray(pieces)


def multi_level_hierarchy(
    fine_fields: Mapping[str, np.ndarray],
    level_boxes: Sequence[BoxArray],
    dx_coarse: float,
    ref_ratio: int = 2,
) -> AMRHierarchy:
    """Assemble an n-level hierarchy from finest-resolution fields.

    Parameters
    ----------
    fine_fields:
        Field name -> array at the *finest* level's resolution.
    level_boxes:
        Refined regions for levels ``1 .. n-1``; ``level_boxes[k]`` is the
        box array of level ``k+1`` expressed in level ``k+1``'s own index
        space (i.e. already refined). Must nest under the previous level.
    dx_coarse:
        Level-0 cell spacing.
    ref_ratio:
        Uniform refinement ratio between consecutive levels.
    """
    names = list(fine_fields)
    if not names:
        raise ReproError("need at least one field")
    n_levels = len(level_boxes) + 1
    finest_shape = fine_fields[names[0]].shape
    ndim = len(finest_shape)
    total_ratio = ref_ratio ** (n_levels - 1)
    if any(s % total_ratio for s in finest_shape):
        raise ReproError(
            f"finest shape {finest_shape} not divisible by ratio^{n_levels - 1}"
        )
    coarse_shape = tuple(s // total_ratio for s in finest_shape)
    levels = []
    for lev_idx in range(n_levels):
        pool = ref_ratio ** (n_levels - 1 - lev_idx)
        dx = dx_coarse / (ref_ratio**lev_idx)
        if lev_idx == 0:
            boxes = BoxArray([Box.from_shape(coarse_shape)])
        else:
            boxes = level_boxes[lev_idx - 1]
        level = AMRLevel(lev_idx, boxes, (dx,) * ndim)
        for name in names:
            data = fine_fields[name] if pool == 1 else average_pool(fine_fields[name], pool)
            level.add_field(name, [Patch(b, data[b.slices()].copy()) for b in boxes])
        levels.append(level)
    return AMRHierarchy(Box.from_shape(coarse_shape), levels, ref_ratio)
