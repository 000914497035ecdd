"""Property tests for the selection planner.

The planner's contract, checked exhaustively over randomized extent
layouts: every requested extent is covered by exactly one ranged read
(no gaps, no overlaps), reads are disjoint and tight (they start and end
on extent boundaries), no merged gap exceeds ``gap_cap``, and the total
fetched bytes never exceed the slack budget —
``extent_sum + floor(slack_frac * extent_sum)``. Then end-to-end: a plan
executed by the service returns bytes identical to direct
``decompress_selection`` on the same source.
"""

from __future__ import annotations

import asyncio
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ServeError
from repro.serve import (
    Extent,
    QueryService,
    coalesce_extents,
)

from tests.serve.conftest import assert_byte_identical, direct_truth
from tests.strategies import extent_layouts


# ----------------------------------------------------------------------
# Coverage, tightness and budget
# ----------------------------------------------------------------------


coalesce_params = st.tuples(
    st.integers(min_value=0, max_value=1 << 18),  # gap_cap
    st.floats(min_value=0.0, max_value=2.0, allow_nan=False),  # slack_frac
)


@given(extent_layouts(), coalesce_params)
@settings(max_examples=300, deadline=None)
def test_reads_exactly_cover_extents(extents, params):
    gap_cap, slack = params
    reads = coalesce_extents(extents, gap_cap=gap_cap, slack_frac=slack)
    real = [e for e in extents if e.length > 0]
    # Every real extent is fully inside exactly one read.
    for ext in real:
        owners = [
            r for r in reads if r.offset <= ext.offset and ext.end <= r.end
        ]
        assert len(owners) == 1, f"extent {ext} covered by {len(owners)} reads"
        assert ext in owners[0].extents
    # And each read's extent list is exactly the extents it covers.
    assert sum(len(r.extents) for r in reads) == len(real)


@given(extent_layouts(), coalesce_params)
@settings(max_examples=300, deadline=None)
def test_reads_disjoint_sorted_and_tight(extents, params):
    gap_cap, slack = params
    reads = coalesce_extents(extents, gap_cap=gap_cap, slack_frac=slack)
    for prev, nxt in zip(reads, reads[1:]):
        assert prev.end < nxt.offset, "reads overlap or touch (should have merged)"
    for r in reads:
        # Tight: a read starts at its first extent and ends at its last —
        # slack is only ever *between* extents, never padding the edges.
        assert r.offset == r.extents[0].offset
        assert r.end == r.extents[-1].end
        assert list(r.extents) == sorted(r.extents, key=lambda e: e.offset)


@given(extent_layouts(), coalesce_params)
@settings(max_examples=300, deadline=None)
def test_slack_budget_and_gap_cap_hold(extents, params):
    gap_cap, slack = params
    reads = coalesce_extents(extents, gap_cap=gap_cap, slack_frac=slack)
    extent_sum = sum(e.length for e in extents)
    fetched = sum(r.length for r in reads)
    assert fetched <= extent_sum + int(slack * extent_sum)
    # No single merged gap exceeds gap_cap.
    for r in reads:
        for a, b in zip(r.extents, r.extents[1:]):
            assert b.offset - a.end <= gap_cap


@given(extent_layouts(), coalesce_params)
@settings(max_examples=100, deadline=None)
def test_coalesce_is_order_independent(extents, params):
    gap_cap, slack = params
    reads = coalesce_extents(extents, gap_cap=gap_cap, slack_frac=slack)
    shuffled = list(extents)
    random.Random(7).shuffle(shuffled)
    assert coalesce_extents(shuffled, gap_cap=gap_cap, slack_frac=slack) == reads


def test_zero_slack_merges_only_touching_extents():
    extents = [
        Extent(0, 10, "stream", (0, 0, "f", 0), 0),
        Extent(10, 10, "stream", (0, 0, "f", 1), 0),  # touching: free
        Extent(21, 10, "stream", (0, 0, "f", 2), 0),  # gap 1: costs budget
    ]
    reads = coalesce_extents(extents, slack_frac=0.0)
    assert [(r.offset, r.length) for r in reads] == [(0, 20), (21, 10)]


def test_smallest_gaps_merge_first():
    extents = [
        Extent(0, 100, "stream", (0, 0, "f", 0), 0),
        Extent(150, 100, "stream", (0, 0, "f", 1), 0),  # gap 50
        Extent(260, 100, "stream", (0, 0, "f", 2), 0),  # gap 10
    ]
    # Budget of 0.1 * 300 = 30 bytes: only the 10-byte gap fits.
    reads = coalesce_extents(extents, slack_frac=0.1)
    assert [(r.offset, r.length) for r in reads] == [(0, 100), (150, 210)]


def test_overlapping_extents_rejected():
    extents = [
        Extent(0, 10, "stream", (0, 0, "f", 0), 0),
        Extent(5, 10, "stream", (0, 0, "f", 1), 0),
    ]
    with pytest.raises(ServeError, match="overlapping"):
        coalesce_extents(extents)


def test_bad_knobs_rejected():
    with pytest.raises(ServeError, match="gap_cap"):
        coalesce_extents([], gap_cap=-1)
    with pytest.raises(ServeError, match="slack_frac"):
        coalesce_extents([], slack_frac=-0.1)


def test_empty_and_zero_length_only_layouts():
    assert coalesce_extents([]) == []
    only_empty = [Extent(5, 0, "stream", (0, 0, "f", 0), 0)]
    assert coalesce_extents(only_empty) == []


@pytest.mark.parametrize("knob", [{"gap_cap": 0}, {"slack": 0.0}])
def test_service_plans_with_the_default_budget_only(series_path, knob):
    with pytest.raises(TypeError, match=next(iter(knob))):
        QueryService(series_path, **knob)


# ----------------------------------------------------------------------
# Plan-vs-direct byte identity on real sources
# ----------------------------------------------------------------------
def _run(coro):
    return asyncio.run(coro)


SELECTIONS = [
    {},
    {"levels": 0},
    {"levels": 1, "fields": "f"},
    {"patches": 0},
    {"levels": [0, 1], "patches": [0]},
]


@pytest.mark.parametrize("selectors", SELECTIONS)
def test_series_plan_execution_matches_direct(series_path, selectors):
    async def scenario():
        svc = QueryService(series_path, workers=2)
        try:
            plan = await svc.plan(**selectors)
            # The planner's slack guarantee, restated on a real layout.
            assert plan.fetched_bytes <= int(1.25 * plan.extent_bytes)
            served = await svc.query(**selectors)
            return served
        finally:
            svc.close()

    served = _run(scenario())
    assert_byte_identical(served, direct_truth(series_path, **selectors))


@pytest.mark.parametrize("selectors", SELECTIONS)
def test_grouped_snapshot_plan_execution_matches_direct(snapshot_path, selectors):
    async def scenario():
        svc = QueryService(snapshot_path, workers=2)
        try:
            plan = await svc.plan(**selectors)
            assert plan.fetched_bytes <= int(1.25 * plan.extent_bytes)
            if not selectors:
                # Full selection over a grouped snapshot must plan
                # shared-codebook batches, not per-patch decodes.
                assert plan.n_group_batches > 0
            served = await svc.query(**selectors)
            return served
        finally:
            svc.close()

    served = _run(scenario())
    assert_byte_identical(served, direct_truth(snapshot_path, **selectors))


def test_random_selections_match_direct(series_path):
    rng = random.Random(1234)

    async def scenario(selectors):
        svc = QueryService(series_path, workers=2)
        try:
            return await svc.query(**selectors)
        finally:
            svc.close()

    for _ in range(10):
        selectors = {}
        if rng.random() < 0.7:
            selectors["steps"] = rng.sample(range(4), rng.randint(1, 4))
        if rng.random() < 0.7:
            selectors["levels"] = rng.sample(range(2), rng.randint(1, 2))
        if rng.random() < 0.5:
            selectors["patches"] = [0]
        served = _run(scenario(selectors))
        assert_byte_identical(served, direct_truth(series_path, **selectors))


def test_plan_excludes_cached_patches(series_path):
    async def scenario():
        svc = QueryService(series_path, workers=2)
        try:
            first = await svc.plan(steps=0)
            assert first.extent_bytes > 0
            await svc.query(steps=0)
            warm = await svc.plan(steps=0)
            assert warm.extent_bytes == 0 and warm.n_reads == 0
        finally:
            svc.close()

    _run(scenario())
