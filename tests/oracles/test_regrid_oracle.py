"""The regrid against the code it replaced, kept here verbatim as oracles.

``reference_cluster_tags`` (with its helpers), ``reference_boxes_from_mask``
and ``reference_mask`` are the per-visit ``Box`` implementations of
Berger–Rigoutsos clustering, the greedy mask decomposition and
``BoxArray.mask``; ``reference_nesting`` is the pairwise nesting loop of
``AMRHierarchy._validate``. The signature-driven versions (``cluster_tags``,
``regrid._greedy_boxes``, ``BoxArray.mask`` and the nesting check) must
return equal ``BoxArray``s, in the same order, and raise the same first
nesting error.
The pinned digests are the box lists the generators produced before the
change.
"""

from __future__ import annotations

import hashlib
import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import repro.amr.hierarchy as hierarchy_module
from repro.amr import AMRHierarchy, AMRLevel, Box, BoxArray, cluster_tags
from repro.amr.regrid import _greedy_boxes as greedy_spans
from repro.errors import HierarchyError, ReproError
from repro.sims import NyxConfig, nyx_step_stream
from repro.sims.nyx import nyx_multilevel_hierarchy
from repro.sims.warpx import warpx_hierarchy

from tests.strategies import nesting_layouts, tag_masks, windowed_box_lists


def reference_mask(boxes: BoxArray, window: Box) -> np.ndarray:
    out = np.zeros(window.shape, dtype=bool)
    for b in boxes:
        ov = b.intersection(window)
        if ov is not None:
            out[ov.slices(window.lo)] = True
    return out


def reference_nesting(levels: list[AMRLevel], ratios: list[tuple[int, ...]]) -> None:
    for lev_idx, (coarse, fine) in enumerate(zip(levels, levels[1:])):
        ratio = ratios[lev_idx]
        for fbox in fine.boxes:
            cbox = fbox.coarsen(ratio)
            covered = reference_mask(coarse.boxes, cbox)
            if not covered.all():
                raise HierarchyError(
                    f"fine box {fbox} (level {fine.index}) not nested in level {coarse.index}"
                )


# ---------------------------------------------------------------------------
# The per-visit clustering the signature-driven one replaced, verbatim
# ---------------------------------------------------------------------------
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


def reference_cluster_tags(
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
    mask = reference_mask(probe, window)
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


def reference_boxes_from_mask(mask: np.ndarray) -> BoxArray:
    """Exact disjoint box decomposition of a boolean mask (greedy runs)."""
    return BoxArray(_greedy_boxes(np.asarray(mask, dtype=bool)))


# ---------------------------------------------------------------------------
# Clustering
# ---------------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(
    tag_masks(),
    st.sampled_from([1, 2, 3, 4]),
    st.floats(0.5, 0.9),
    st.one_of(st.just(1024), st.integers(1, 6)),
)
@example(np.zeros((5, 6), dtype=bool), 1, 0.7, 1024)
@example(np.ones((7, 5, 3), dtype=bool), 4, 0.7, 1024)
@example(np.eye(12, dtype=bool), 3, 0.9, 2)  # the cap keeps untrimmed stack boxes
def test_cluster_tags_matches_the_reference(tags, blocking, efficiency, max_boxes):
    kwargs = dict(efficiency=efficiency, max_boxes=max_boxes, blocking_factor=blocking)
    assert cluster_tags(tags, **kwargs) == reference_cluster_tags(tags, **kwargs)


@settings(max_examples=150, deadline=None)
@given(tag_masks())
def test_greedy_boxes_match_the_reference(mask):
    got = BoxArray(Box(lo, hi) for lo, hi in greedy_spans(mask))
    assert got == reference_boxes_from_mask(mask)


def test_integer_tags_cluster_like_their_boolean_mask():
    tags = np.zeros((9, 9), dtype=np.int32)
    tags[1:4, 2:7] = 3
    tags[6, 6] = -1
    assert cluster_tags(tags, blocking_factor=2) == reference_cluster_tags(tags != 0, blocking_factor=2)


@settings(max_examples=300, deadline=None)
@given(windowed_box_lists())
def test_mask_matches_the_reference(case):
    boxes, window = case
    assert np.array_equal(boxes.mask(window), reference_mask(boxes, window))


# ---------------------------------------------------------------------------
# The nesting check
# ---------------------------------------------------------------------------


def _error(call) -> str | None:
    try:
        call()
    except HierarchyError as exc:
        return str(exc)
    return None


@settings(max_examples=300, deadline=None)
@given(nesting_layouts())
def test_nesting_check_matches_the_reference(case):
    domain, levels, ratio = case
    ratios = [(ratio,) * domain.ndim] * 2
    expected = _error(lambda: reference_nesting(levels, ratios))
    assert _error(lambda: AMRHierarchy(domain, levels, ratio)) == expected


@pytest.mark.parametrize("pairs_per_pass", [1 << 18, 1])
def test_nesting_check_names_the_first_unnested_box(monkeypatch, pairs_per_pass):
    """Also when the fine boxes are compared in several chunks."""
    monkeypatch.setattr(hierarchy_module, "_PAIRS_PER_PASS", pairs_per_pass)
    domain = Box.from_shape((4, 4))
    coarse = AMRLevel(1, BoxArray([Box((0, 0), (3, 3)), Box((4, 4), (5, 5))]), (0.5, 0.5))
    fine = AMRLevel(2, BoxArray([Box((0, 0), (7, 7)), Box((12, 12), (13, 13)),
                                 Box((8, 8), (11, 11))]), (0.25, 0.25))
    levels = [AMRLevel(0, BoxArray([domain]), (1.0, 1.0)), coarse, fine]
    with pytest.raises(HierarchyError, match=r"fine box Box\(lo=\(12, 12\), hi=\(13, 13\)\) \(level 2\)"):
        AMRHierarchy(domain, levels, 2)
    with pytest.raises(HierarchyError, match=r"lo=\(12, 12\)"):
        reference_nesting(levels, [(2, 2), (2, 2)])


# ---------------------------------------------------------------------------
# Pinned box lists of the generators
# ---------------------------------------------------------------------------
def _box_digest(hierarchy) -> str:
    boxes = [(lev.index, b.lo, b.hi) for lev in hierarchy for b in lev.boxes]
    return hashlib.md5(repr(boxes).encode()).hexdigest()


@pytest.mark.parametrize("seed, digests", [
    (1, ["2f8130ea7869bf4dbade5bf62cf27516", "e497632161d0dce1c0af721a7226062b"]),
    (3, ["d33d697ec6317bae4e73649ff090e6fa", "de0bae23e2539ac989c3661ddc78d87a"]),
])
def test_benchmark_steps_box_lists(seed, digests):
    """The end-to-end benchmark's campaign: two Nyx steps at growth factors
    its seed draws (``benchmarks/e2e/workloads.py``)."""
    rng = random.Random(f"{seed}/steps")
    growth_range = tuple(sorted(rng.uniform(0.9, 1.0) for _ in range(2)))
    steps = nyx_step_stream(2, NyxConfig(coarse_n=32), growth_range=growth_range)
    assert [_box_digest(s.hierarchy) for s in steps] == digests


def test_three_level_nyx_box_list():
    hierarchy = nyx_multilevel_hierarchy(NyxConfig(coarse_n=32))
    assert [len(lev.boxes) for lev in hierarchy] == [1, 75, 924]
    assert _box_digest(hierarchy) == "cb0c71fb7f8909b6b20ec8d43d8d677d"


def test_warpx_box_list():
    assert _box_digest(warpx_hierarchy()) == "0271aa2a9dd88417d37e63279799aa6a"
