"""Selection planning: minimal ranged reads for a selective query.

A selective query names a set of ``(step, level, field, patch)`` keys; the
container layout maps each key to one or two *payload extents* — the
patch's own codec stream, plus (for grouped streams) its member payload in
the owning ``RPGB`` group section. Serving the query therefore reduces to
fetching a set of byte extents from the series/snapshot file and decoding
them. This module turns that extent set into a **plan**:

* :func:`coalesce_extents` merges adjacent extents into the minimal set of
  ranged reads under an explicit *slack budget*: the bytes fetched beyond
  the extents themselves (the merged gaps) never exceed
  ``slack_frac * sum(extent lengths)``, and no single merged gap exceeds
  ``gap_cap``. That is what keeps a selective query at O(selection) bytes
  by construction — the 1.25x cold-cache gate in
  ``benchmarks/bench_serve.py`` is ``slack_frac=0.25`` restated.
* :func:`plan_step` builds the per-step plan: extents for every requested
  entry (stream + grouped payload), the coalesced reads, and the *decode
  batches* — grouped members of the same ``RPGB`` group are batched into
  one shared-codebook decode unit, so the codebook's decode tables are
  constructed once per group per query, not once per patch.

Planning is pure: these functions touch no file and do no I/O. The
:class:`~repro.serve.service.QueryService` feeds them index/group-header
data (cached across queries) and executes the returned reads through a
:mod:`repro.storage` backend.

Accounting surface: a :class:`QueryPlan` knows its ``extent_bytes`` (sum
of required extents), ``fetched_bytes`` (sum of coalesced read lengths,
i.e. bytes the query will actually touch), and ``slack_bytes`` (their
difference) — the bytes-touched-per-query metric the benchmarks gate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from repro.compression.container import GroupHandle, PatchIndexEntry
from repro.errors import ServeError

__all__ = [
    "Extent",
    "RangedRead",
    "DecodeBatch",
    "StepPlan",
    "QueryPlan",
    "coalesce_extents",
    "plan_step",
]

#: Default cap on a single merged gap (bytes). Coalescing across a larger
#: hole costs more than the seek/request it saves on every backend.
DEFAULT_GAP_CAP = 1 << 16
#: Default slack fraction: fetched bytes never exceed
#: ``(1 + DEFAULT_SLACK) * extent_bytes``.
DEFAULT_SLACK = 0.25


@dataclass(frozen=True)
class Extent:
    """One required byte span of the underlying file.

    ``kind`` is ``"stream"`` (a patch's own codec stream) or
    ``"group_payload"`` (a grouped member's entropy payload); ``key`` is
    the requesting ``(step, level, field, patch)``; ``crc32`` is the
    checksum the fetched bytes must match under ``verify``; ``group``
    names the owning RPGB group for payload extents (``None`` for plain
    streams).
    """

    offset: int
    length: int
    kind: str
    key: tuple
    crc32: int
    group: int | None = None

    @property
    def end(self) -> int:
        return self.offset + self.length


@dataclass(frozen=True)
class RangedRead:
    """One coalesced read: fetch ``[offset, offset + length)`` and slice
    out the member extents (all fully contained in the span)."""

    offset: int
    length: int
    extents: tuple[Extent, ...]

    # kept: the end offset the coalescer merges extents by
    @property
    def end(self) -> int:
        return self.offset + self.length


@dataclass(frozen=True)
class DecodeBatch:
    """One decode unit: either a single self-contained stream
    (``group is None``, one entry) or all requested members of one RPGB
    group decoded against the group's shared codebook in one task."""

    group: int | None
    entries: tuple[PatchIndexEntry, ...]


@dataclass
class StepPlan:
    """The plan for one ``(file, step)``: extents, coalesced reads, and
    decode batches. ``base`` is the segment's absolute offset in ``file``
    (0 for a standalone snapshot container)."""

    file: str
    step: int
    base: int
    extents: list[Extent] = field(default_factory=list)
    reads: list[RangedRead] = field(default_factory=list)
    batches: list[DecodeBatch] = field(default_factory=list)

    @property
    def extent_bytes(self) -> int:
        return sum(e.length for e in self.extents)

    @property
    def fetched_bytes(self) -> int:
        return sum(r.length for r in self.reads)


@dataclass
class QueryPlan:
    """A whole query's plan: one :class:`StepPlan` per selected step that
    missed the decoded-patch cache."""

    steps: list[StepPlan] = field(default_factory=list)

    @property
    def extent_bytes(self) -> int:
        """Sum of required payload extents — the O(selection) floor."""
        return sum(s.extent_bytes for s in self.steps)

    @property
    def fetched_bytes(self) -> int:
        """Bytes the coalesced reads will actually touch."""
        return sum(s.fetched_bytes for s in self.steps)

    @property
    def slack_bytes(self) -> int:
        """Gap bytes fetched beyond the extents (coalescing overhead)."""
        return self.fetched_bytes - self.extent_bytes

    @property
    def n_reads(self) -> int:
        return sum(len(s.reads) for s in self.steps)

    @property
    def n_group_batches(self) -> int:
        return sum(
            1 for s in self.steps for b in s.batches if b.group is not None
        )


def coalesce_extents(
    extents: Sequence[Extent],
    gap_cap: int = DEFAULT_GAP_CAP,
    slack_frac: float = DEFAULT_SLACK,
) -> list[RangedRead]:
    """Merge extents into the minimal ranged reads under a slack budget.

    The rules, in order:

    1. Extents are sorted by offset; overlapping extents are a planner
       contract violation (container spans are disjoint by construction)
       and raise :class:`~repro.errors.ServeError`.
    2. Touching extents (gap 0) always merge — that is free.
    3. Remaining inter-run gaps are merged greedily, smallest first,
       while (a) the gap is at most ``gap_cap`` bytes and (b) the running
       total of merged gap bytes stays within
       ``floor(slack_frac * sum(extent lengths))``.

    The result is deterministic, sorted, pairwise disjoint, and satisfies
    ``sum(read lengths) <= (1 + slack_frac) * sum(extent lengths)`` — the
    property ``tests/serve/test_planner.py`` checks exhaustively.
    """
    if gap_cap < 0:
        raise ServeError(f"gap_cap must be >= 0, got {gap_cap}")
    if slack_frac < 0:
        raise ServeError(f"slack_frac must be >= 0, got {slack_frac}")
    # Zero-length extents need no bytes (and would confuse gap math).
    ordered = sorted(
        (e for e in extents if e.length > 0), key=lambda e: (e.offset, e.end)
    )
    if not ordered:
        return []
    runs: list[list[Extent]] = [[ordered[0]]]
    for ext in ordered[1:]:
        prev = runs[-1][-1]
        if ext.offset < prev.end:
            raise ServeError(
                f"overlapping extents in plan: {prev.kind} {prev.key} "
                f"[{prev.offset}, {prev.end}) and {ext.kind} {ext.key} "
                f"[{ext.offset}, {ext.end}) — corrupt index?"
            )
        if ext.offset == prev.end:
            runs[-1].append(ext)  # touching: free merge
        else:
            runs.append([ext])
    # Greedy gap merging, smallest gaps first, under the slack budget.
    budget = int(slack_frac * sum(e.length for e in ordered))
    gaps = []  # (gap, run_index) — gap between runs[i] and runs[i+1]
    for i in range(len(runs) - 1):
        gaps.append((runs[i + 1][0].offset - runs[i][-1].end, i))
    merge_after = set()
    spent = 0
    for gap, i in sorted(gaps):
        if gap > gap_cap or spent + gap > budget:
            break
        merge_after.add(i)
        spent += gap
    reads: list[RangedRead] = []
    current: list[Extent] = []
    for i, run in enumerate(runs):
        current.extend(run)
        if i < len(runs) - 1 and i in merge_after:
            continue
        reads.append(
            RangedRead(
                offset=current[0].offset,
                length=current[-1].end - current[0].offset,
                extents=tuple(current),
            )
        )
        current = []
    return reads


def plan_step(
    file: str,
    step: int,
    base: int,
    entries: Iterable[PatchIndexEntry],
    group_offsets: Mapping[int, int],
    group_handles: Mapping[int, GroupHandle],
    gap_cap: int = DEFAULT_GAP_CAP,
    slack_frac: float = DEFAULT_SLACK,
) -> StepPlan:
    """Plan one step's requested entries into extents, reads, and batches.

    ``group_offsets`` maps gid -> the group section's offset *relative to
    the segment start*; ``group_handles`` maps gid -> the parsed
    :class:`~repro.compression.container.GroupHandle` (header + extent
    table), which the service caches across queries. Every grouped entry
    contributes two extents — its codec stream and its member payload —
    and joins its group's shared-codebook :class:`DecodeBatch`; plain
    entries contribute one extent and decode alone.
    """
    plan = StepPlan(file=file, step=step, base=base)
    by_group: dict[int, list[PatchIndexEntry]] = {}
    for e in entries:
        key = (step, e.level, e.field, e.patch)
        plan.extents.append(
            Extent(base + e.offset, e.length, "stream", key, e.crc32)
        )
        if e.group is None:
            plan.batches.append(DecodeBatch(group=None, entries=(e,)))
            continue
        try:
            handle = group_handles[e.group]
            group_off = group_offsets[e.group]
        except KeyError:
            raise ServeError(
                f"plan_step: group {e.group} of entry {e.describe()} has "
                "no loaded header; load group headers before planning"
            ) from None
        rel, length, crc = handle.member_extent(e.member)
        plan.extents.append(
            Extent(
                base + group_off + handle.header_len + rel,
                length,
                "group_payload",
                key,
                crc,
                group=e.group,
            )
        )
        by_group.setdefault(e.group, []).append(e)
    for gid in sorted(by_group):
        plan.batches.append(
            DecodeBatch(group=gid, entries=tuple(by_group[gid]))
        )
    plan.reads = coalesce_extents(plan.extents, gap_cap, slack_frac)
    return plan
