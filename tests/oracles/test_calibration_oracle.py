"""``calibrated_boxes`` against the full bisection it replaced, kept here
verbatim as an oracle.

``reference_calibrated_boxes`` clusters every bisection pass.
``calibrated_boxes`` clusters a pass only when the share of the domain in
tagged ``blocking_factor``-aligned blocks (its *floor*, a lower bound on
the covered share) does not already decide it; a pass it set aside is
clustered after the loop only if it could still be the best. Both must
return equal ``BoxArray``s, in the same order, and the new one must never
cluster more often.
"""

from __future__ import annotations

import random
import re
import sys
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import repro.sims.amr_build as amr_build
from repro.amr import BoxArray, cluster_tags
from repro.amr.box import Box
from repro.errors import ReproError
from repro.sims import NyxConfig, nyx_step_stream
from repro.sims.amr_build import _block_floor, calibrated_boxes
from repro.sims.nyx import nyx_hierarchy

from tests.strategies import score_fields


def reference_calibrated_boxes(
    score: np.ndarray,
    target_fraction: float,
    *,
    tolerance: float = 0.02,
    max_iter: int = 24,
    blocking_factor: int = 4,
    efficiency: float = 0.7,
) -> BoxArray:
    domain = Box.from_shape(score.shape)
    lo_q, hi_q = 0.0, 1.0  # tagged-fraction bisection bracket
    best: BoxArray | None = None
    best_err = np.inf
    for _ in range(max_iter):
        frac = 0.5 * (lo_q + hi_q)
        if frac <= 0.0 or frac >= 1.0:
            break
        cut = np.quantile(score, 1.0 - frac)
        tags = score > cut
        if not tags.any():
            lo_q = frac
            continue
        # Clustered boxes are disjoint and inside the mask's domain.
        boxes = cluster_tags(tags, efficiency=efficiency, blocking_factor=blocking_factor)
        covered = sum(b.size for b in boxes) / domain.size
        err = abs(covered - target_fraction)
        if err < best_err:
            best, best_err = boxes, err
        if err <= tolerance:
            break
        if covered > target_fraction:
            hi_q = frac
        else:
            lo_q = frac
    if best is None or len(best) == 0:
        raise ReproError("refinement calibration produced no boxes")
    return best


class CallCount:
    """``cluster_tags`` that counts its calls."""

    def __init__(self, fn):
        self.fn, self.calls = fn, 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.fn(*args, **kwargs)


@contextmanager
def counting(module):
    """Count the ``cluster_tags`` calls made through ``module``'s name."""
    spy = CallCount(module.cluster_tags)
    module.cluster_tags = spy
    try:
        yield spy
    finally:
        module.cluster_tags = spy.fn


# ---------------------------------------------------------------------------
# Score fields
# ---------------------------------------------------------------------------


def _nyx_score(config: NyxConfig) -> np.ndarray:
    """The baryon density ``nyx_hierarchy`` calibrates on: its level 0."""
    return nyx_hierarchy(config)[0].patches("baryon_density")[0].data


#: At ``coarse_n=8`` the bisection never converges (24 passes), and a pass
#: set aside ties the best clustered one: the earlier pass must win.
NYX_8 = _nyx_score(NyxConfig(coarse_n=8))


# ---------------------------------------------------------------------------
# Equal box lists, never more clustering
# ---------------------------------------------------------------------------
@settings(max_examples=300, deadline=None)
@given(
    score_fields(),
    st.floats(0.05, 0.8),
    st.floats(0.0, 0.05),
    st.one_of(st.integers(1, 6), st.just(24)),
    st.sampled_from([1, 2, 4]),
    st.one_of(st.just(0.7), st.floats(0.5, 1.0)),
)
@example(NYX_8, 0.407, 0.02, 24, 4, 0.7)
@example(np.zeros((10, 12, 9)), 0.3, 0.0, 24, 4, 0.7)  # nothing is ever tagged
@example(np.arange(1080.0).reshape(10, 12, 9), 0.3, 0.0, 3, 4, 0.7)
def test_calibrated_boxes_match_the_full_bisection(
    score, target, tolerance, max_iter, blocking, efficiency
):
    kwargs = dict(tolerance=tolerance, max_iter=max_iter,
                  blocking_factor=blocking, efficiency=efficiency)
    with counting(sys.modules[__name__]) as ref_calls:
        try:
            expected = reference_calibrated_boxes(score, target, **kwargs)
        except ReproError as exc:
            expected = exc
    with counting(amr_build) as calls:
        if isinstance(expected, ReproError):
            with pytest.raises(ReproError, match=re.escape(str(expected))):
                calibrated_boxes(score, target, **kwargs)
        else:
            assert calibrated_boxes(score, target, **kwargs) == expected
    assert calls.calls <= ref_calls.calls


@settings(max_examples=300, deadline=None)
@given(
    score_fields(),
    st.floats(0.01, 0.99),
    st.sampled_from([1, 2, 3, 4, 5]),
    st.floats(0.5, 1.0),
    st.one_of(st.just(1024), st.integers(1, 6)),
)
@example(np.arange(1080.0).reshape(10, 12, 9), 0.02, 4, 0.7, 1024)
def test_the_floor_never_exceeds_what_clustering_covers(
    score, frac, blocking, efficiency, max_boxes
):
    tags = score > np.quantile(score, 1.0 - frac)
    boxes = cluster_tags(tags, efficiency=efficiency, blocking_factor=blocking,
                         max_boxes=max_boxes)
    assert _block_floor(tags, blocking) <= sum(b.size for b in boxes)


def test_the_floor_counts_clipped_blocks():
    tags = np.zeros((10, 12, 9), dtype=bool)
    tags[9, 0, 8] = True  # the corner block, clipped to 2 x 4 x 1 cells
    tags[1, 5, 0] = True  # an interior block, 4 x 4 x 4
    assert _block_floor(tags, 4) == 2 * 4 * 1 + 4 * 4 * 4
    assert _block_floor(tags, 1) == 2
    assert _block_floor(np.ones(7, dtype=bool), 4) == 7


# ---------------------------------------------------------------------------
# The benchmark campaign's clustering calls
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("seed, most", [(1, 8), (3, 9)])
def test_benchmark_campaign_cluster_calls(seed, most):
    """The end-to-end benchmark's two Nyx steps at growth factors its seed
    draws (``benchmarks/e2e/workloads.py``); clustering every pass made 18
    calls at seed 1 and 19 at seed 3."""
    rng = random.Random(f"{seed}/steps")
    growth_range = tuple(sorted(rng.uniform(0.9, 1.0) for _ in range(2)))
    with counting(amr_build) as calls:
        for _ in nyx_step_stream(2, NyxConfig(coarse_n=32), growth_range=growth_range):
            pass
    assert calls.calls <= most


@pytest.mark.parametrize("seed, masks", [(0, 4), (3, 3), (42, 3)])
def test_each_distinct_mask_is_clustered_once(seed, masks):
    """At ``coarse_n=8`` (the fault simulator's corpus) the bisection runs
    all 24 passes, and most of them cut the 8^3 score where an earlier pass
    did: 19, 18 and 18 clusterings at these seeds were of 4, 3 and 3
    distinct masks."""
    score = _nyx_score(NyxConfig(coarse_n=8, seed=seed))
    with counting(amr_build) as calls:
        boxes = calibrated_boxes(score, 0.407, blocking_factor=4)
    assert calls.calls == masks
    assert boxes == reference_calibrated_boxes(score, 0.407, blocking_factor=4)
