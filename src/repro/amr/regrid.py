"""Berger–Rigoutsos tagged-cell clustering.

The standard grid-generation algorithm of block-structured AMR (and the one
AMReX uses): recursively split the bounding box of the tagged cells at
signature holes or inflection points until every box is "efficient" (tagged
cells / box cells above a target) or minimal. Produces the disjoint set of
boxes that becomes a refinement level.

The recursion is driven by per-axis signatures alone, and each box on the
LIFO stack carries its own. A visit reads the tag count off their total
and the tight bounds off their first and last nonzero entries; the trimmed
signatures are exactly the tight box's (trimming tag-free slabs changes no
other axis' counts), so they feed the hole and inflection search directly.
The mask itself is summed once for the root, then once per split over the
smaller half only (two passes over it, whatever its dimension): the larger
half's signatures are the parent's minus the smaller's. Boxes travel
through the stack, the blocking rounding and the overlap repair as
``(lo, hi)`` int tuples; :class:`Box` objects are made once, for the
returned :class:`BoxArray`.

Reference: Berger & Rigoutsos, "An algorithm for point clustering and grid
generation", IEEE Trans. SMC 21(5), 1991.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from repro.amr.box import Box
from repro.amr.boxarray import BoxArray
from repro.errors import ReproError
from repro.util.validation import check_int

__all__ = ["cluster_tags"]

#: An inclusive index box ``(lo, hi)`` as plain int tuples.
Span = tuple[tuple[int, ...], tuple[int, ...]]


def _tag_mask(tags: np.ndarray) -> np.ndarray:
    """``tags`` as a boolean mask; tags are boolean or integer (nonzero = tagged)."""
    arr = np.asarray(tags)
    if arr.ndim < 1:
        raise ReproError("tags must be an array of at least one dimension")
    if arr.dtype.kind not in "biu":
        raise ReproError(f"tags must be boolean or integer, got dtype {arr.dtype}")
    return arr.astype(bool, copy=False)


def _signatures(sub: np.ndarray) -> list[list[int]]:
    """Per-axis tag counts of ``sub`` (the Berger–Rigoutsos "signatures")."""
    if sub.ndim == 1:
        return [sub.tolist()]
    last = sub.sum(axis=tuple(range(sub.ndim - 1)))
    return _signatures(sub.sum(axis=-1)) + [last.tolist()]


def _half_signatures(
    mask: np.ndarray, sigs: list[list[int]], axis: int, cut: int, left: Span, right: Span
) -> tuple[list[list[int]], list[list[int]]]:
    """Signatures of the two halves of a split box whose own are ``sigs``.

    Only the smaller half is summed: the larger half's counts are the box's
    minus the smaller half's, and along ``axis`` a slice of the box's.
    """
    left_small = 2 * (cut + 1) <= len(sigs[axis])
    lo, hi = left if left_small else right
    small = _signatures(mask[tuple(slice(l, h + 1) for l, h in zip(lo, hi))])
    large = [[a - b for a, b in zip(whole, part)] for whole, part in zip(sigs, small)]
    large[axis] = sigs[axis][cut + 1:] if left_small else sigs[axis][:cut + 1]
    return (small, large) if left_small else (large, small)


def _find_hole(sig: list[int]) -> int | None:
    """Last index of the left half of a split at the interior zero entry
    closest to the center, or None."""
    center = (len(sig) - 2) / 2.0
    best, best_dist = None, math.inf
    for i in range(1, len(sig) - 1):
        if sig[i] == 0 and abs(i - 1 - center) < best_dist:
            best, best_dist = i - 1, abs(i - 1 - center)
    return best


def _find_inflection(sig: list[int]) -> int | None:
    """Last index of the left half of a split at the largest zero-crossing
    jump of the signature's Laplacian, or None."""
    n = len(sig)
    if n < 4:
        return None
    lap = [sig[i] - 2 * sig[i + 1] + sig[i + 2] for i in range(n - 2)]
    best, best_jump = None, 0
    for i in range(n - 3):
        if lap[i] * lap[i + 1] < 0 and abs(lap[i + 1] - lap[i]) > best_jump:
            best, best_jump = i, abs(lap[i + 1] - lap[i])
    return best


def _choose_split(sigs: list[list[int]]) -> tuple[int, int] | None:
    """Pick (axis, last local index of the left half) from a tight box's
    signatures, or None."""
    # 1) Holes, longest axis first.
    axes = sorted(range(len(sigs)), key=lambda a: -len(sigs[a]))
    for axis in axes:
        hole = _find_hole(sigs[axis])
        if hole is not None:
            return axis, hole
    # 2) Inflection points.
    for axis in axes:
        idx = _find_inflection(sigs[axis])
        if idx is not None:
            return axis, idx
    # 3) Bisect the longest axis if it is splittable.
    axis = axes[0]
    if len(sigs[axis]) >= 2:
        return axis, len(sigs[axis]) // 2 - 1
    return None


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
        Boolean (or integer, nonzero = tagged) mask of at least one
        dimension in the *coarse* level's index space; tagged cells must be
        covered by the returned boxes.
    efficiency:
        Minimum fraction of tagged cells per accepted box, a real number in
        ``(0, 1]``.
    max_boxes:
        Safety cap on recursion breadth, an integer >= 1.
    min_width:
        Boxes no wider than this (an integer >= 0) along some axis are
        accepted as-is.
    blocking_factor:
        Round accepted boxes outward so ``lo`` and ``shape`` are multiples of
        this integer >= 1 (AMReX ``blocking_factor``), clipped to the mask
        domain.

    Returns
    -------
    BoxArray
        Disjoint boxes covering every tagged cell.

    Raises
    ------
    ReproError
        A float or object tag array, a 0-d one, or an argument outside its
        contract (bools are not integers here); raised before any work.
    """
    mask = _tag_mask(tags)
    if isinstance(efficiency, bool) or not isinstance(efficiency, numbers.Real):
        raise ReproError(f"efficiency must be a real number, got {efficiency!r}")
    if not 0.0 < efficiency <= 1.0:
        raise ReproError(f"efficiency must be in (0, 1], got {efficiency}")
    max_boxes = check_int("max_boxes", max_boxes, 1)
    min_width = check_int("min_width", min_width, 0)
    factor = check_int("blocking_factor", blocking_factor, 1)
    accepted: list[Span] = []
    top = tuple(s - 1 for s in mask.shape)
    stack = [((0,) * mask.ndim, top, _signatures(mask))]
    while stack:
        if len(accepted) + len(stack) > max_boxes:
            accepted.extend((lo, hi) for lo, hi, _ in stack)
            break
        lo, hi, sigs = stack.pop()
        n_tag = sum(sigs[0])
        if n_tag == 0:
            continue
        # Trim tag-free slabs: tight bounds and the tight box's signatures.
        tlo, thi, size = [], [], 1
        for axis, sig in enumerate(sigs):
            first = next(i for i, v in enumerate(sig) if v)
            last = len(sig) - next(i for i, v in enumerate(reversed(sig)) if v)
            sigs[axis] = sig[first:last]
            tlo.append(lo[axis] + first)
            thi.append(lo[axis] + last - 1)
            size *= last - first
        box = (tuple(tlo), tuple(thi))
        if n_tag / size >= efficiency or any(len(s) <= min_width for s in sigs):
            accepted.append(box)
            continue
        split = _choose_split(sigs)
        if split is None:
            accepted.append(box)
            continue
        axis, cut = split
        left_hi, right_lo = list(thi), list(tlo)
        left_hi[axis] = tlo[axis] + cut
        right_lo[axis] = tlo[axis] + cut + 1
        left, right = (box[0], tuple(left_hi)), (tuple(right_lo), box[1])
        left_sigs, right_sigs = _half_signatures(mask, sigs, axis, cut, left, right)
        stack.append((*left, left_sigs))
        stack.append((*right, right_sigs))
    if factor > 1:
        accepted = [
            (
                tuple(l // factor * factor for l in lo),
                tuple(min((h // factor + 1) * factor - 1, t) for h, t in zip(hi, top)),
            )
            for lo, hi in accepted
        ]
    return BoxArray(Box(lo, hi) for lo, hi in _make_disjoint(accepted))


def _make_disjoint(spans: list[Span]) -> list[Span]:
    """Remove overlaps between boxes by rasterize-and-recluster.

    Splitting during Berger–Rigoutsos keeps boxes disjoint, but blocking
    rounding can reintroduce overlaps; rebuilding from the union mask is a
    simple, always-correct fix at the modest sizes used here. The union is
    painted over the boxes' bounding window either way: the boxes are
    disjoint exactly when it holds as many cells as their sizes add up to.
    """
    if not spans:
        return []
    ndim = len(spans[0][0])
    origin = tuple(min(lo[d] for lo, _ in spans) for d in range(ndim))
    top = tuple(max(hi[d] for _, hi in spans) for d in range(ndim))
    union = np.zeros(tuple(t - o + 1 for o, t in zip(origin, top)), dtype=bool)
    total = 0
    for lo, hi in spans:
        union[tuple(slice(l - o, h - o + 1) for l, h, o in zip(lo, hi, origin))] = True
        total += math.prod(h - l + 1 for l, h in zip(lo, hi))
    if int(np.count_nonzero(union)) == total:
        return spans
    return [
        (tuple(l + o for l, o in zip(lo, origin)), tuple(h + o for h, o in zip(hi, origin)))
        for lo, hi in _greedy_boxes(union)
    ]


def _greedy_boxes(mask: np.ndarray) -> list[Span]:
    """Greedy maximal-run decomposition of a boolean mask into boxes.

    Seeds are taken in C order. Every cell a box clears lies at or after
    its seed in that order, so the next seed is searched for from the
    last one on, not from the start of the mask.
    """
    remaining = np.array(mask, dtype=bool, order="C")
    flat = remaining.reshape(-1)
    shape = mask.shape
    out: list[Span] = []
    pos = 0
    while pos < flat.size:
        pos += int(flat[pos:].argmax())
        if not flat[pos]:
            break
        lo = list(np.unravel_index(pos, shape))
        hi = list(lo)
        # Grow greedily along each axis while the slab stays fully tagged:
        # the run of full slabs past ``hi`` is counted in one pass per axis.
        for axis in range(mask.ndim):
            probe = [slice(l, h + 1) for l, h in zip(lo, hi)]
            probe[axis] = slice(hi[axis] + 1, None)
            others = tuple(a for a in range(mask.ndim) if a != axis)
            full = remaining[tuple(probe)].all(axis=others)
            hi[axis] += int(full.argmin()) if not full.all() else full.size
        box = (tuple(int(v) for v in lo), tuple(int(v) for v in hi))
        out.append(box)
        remaining[tuple(slice(l, h + 1) for l, h in zip(*box))] = False
    return out
