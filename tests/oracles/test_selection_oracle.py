"""Oracles for the warm query path: the catalog lookup and the batched
cache pass.

A warm query costs what it selects: ``ContainerReader.lookup`` visits the
catalog's ``(level, field)`` runs and only the entries it returns, each
step's catalog carries its entries' result and cache keys, and
``ServeCache.collect`` looks a step's selection up in one walk. The code
they replace is kept here verbatim as the oracle — the full catalog walk
(``_key_filter`` over ``ContainerReader.entries``), ``ServeCache.get`` and
``QueryService._gather`` with its per-patch ``get`` loop — and the new
path must agree with it exactly:

(a) the lookup against the walk, on hypothesis-drawn catalogs written
    through ``build_index_bytes`` (interleaved runs, gaps, unsorted and
    repeated patch numbers) under every selector form: equal entry lists,
    in order;
(b) ``collect`` against N ``get`` calls: equal values, misses, counters
    and recency, and so equal eviction order after later ``put`` calls;
(c) a scripted ``QueryService`` sequence on a cache small enough to evict
    — cold, warm, partly warm, two overlapping queries sharing one
    single-flight decode, ``partial=True``, ``verify=False`` and ``plan()``
    — against the same service running the walking ``_gather``: equal
    replies (keys, order, bytes), ``QueryInfo`` fields, plans and stats.
"""

from __future__ import annotations

import asyncio
import zlib
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.amr import AMRHierarchy, AMRLevel, Box, BoxArray, Patch
from repro.amr.io import write_sharded_series
from repro.compression.container import (
    HEADER_SIZE,
    ContainerReader,
    PatchIndexEntry,
    _normalize_selector,
    _selection,
    build_index_bytes,
    pack_footer,
    pack_header,
)
from repro.insitu.sharded import ShardedSeriesReader
from repro.serve import QueryService, ServeCache
from repro.serve.cache import _MISS
from repro.serve.planner import StepPlan
from repro.serve.service import QueryInfo
from repro.serve.source import _StepCatalog

FIELDS = ("a", "b", "c")


# ----------------------------------------------------------------------
# The walking implementation, verbatim
# ----------------------------------------------------------------------
def _key_filter(levels, fields, patches):
    """The three patch selectors (validated here) as one predicate over
    ``(level, field, patch)`` keys."""
    wants = [_normalize_selector(s, kind)
             for s, kind in ((levels, "level"), (fields, "field"), (patches, "patch"))]
    return lambda key: all(want is None or k in want for want, k in zip(wants, key))


def walk(reader: ContainerReader, levels, fields, patches) -> list[PatchIndexEntry]:
    """The entries ``ContainerReader.select`` chose by walking the catalog."""
    wanted = _key_filter(levels, fields, patches)
    return [e for e in reader.entries if wanted(e.key)]


class WalkCache(ServeCache):
    """``ServeCache`` read through the per-key ``get`` alone."""

    def get(self, key):
        """The cached value (refreshing its recency), or ``None`` on miss.

        ``None`` is never a stored value — entries are catalogs and
        arrays — so the sentinel collapses to ``None`` for callers.
        """
        entry = self._entries.get(key, _MISS)
        if entry is _MISS:
            self.misses += 1
            return None
        self.hits += 1
        self._entries.move_to_end(key)
        return entry[0]


class WalkService(QueryService):
    """``QueryService`` with the walking ``_gather`` over a ``WalkCache``
    (its planning deferred until the walk has registered every miss, the
    single-flight order the service keeps over grouped segments)."""

    def __init__(self, path, **kwargs):
        super().__init__(path, **kwargs)
        self._cache.__class__ = WalkCache  # the source shares this object

    async def _gather(
        self, steps, levels, fields, patches, verify: bool,
        info: QueryInfo, owned: dict | None = None, partial: bool = False,
    ) -> tuple[dict, dict, list[tuple[_StepCatalog, StepPlan]]]:
        want_steps = _normalize_selector(steps, "step")
        want_levels = _normalize_selector(levels, "level")
        want_fields = _normalize_selector(fields, "field")
        want_patches = _normalize_selector(patches, "patch")
        hits: dict[tuple, np.ndarray] = {}
        waits: dict[int, list[tuple[tuple, asyncio.Future]]] = {}
        missed: list[tuple[int, _StepCatalog, list[PatchIndexEntry]]] = []
        work: list[tuple[_StepCatalog, StepPlan]] = []
        for s in self._step_order:
            if want_steps is not None and s not in want_steps:
                continue
            cat = self._source.cached(s)
            if cat is None:

                async def load(healed, s=s):
                    return healed or await self._source.load_catalog(s, info)

                cat = await self._fail_over(s, load, info, owned, partial)
                if cat is None:
                    continue
            misses: list[PatchIndexEntry] = []
            for e in cat.reader.entries:
                if not (
                    (want_levels is None or e.level in want_levels)
                    and (want_fields is None or e.field in want_fields)
                    and (want_patches is None or e.patch in want_patches)
                ):
                    continue
                info.keys += 1
                key = (s, e.level, e.field, e.patch)
                pkey = ("patch", cat.file, s, e.level, e.field, e.patch, verify)
                cached = (
                    self._cache.get(pkey) if self._cache is not None else None
                )
                if cached is not None:
                    hits[key] = cached
                    info.cache_hits += 1
                    continue
                if owned is not None:
                    pending = self._inflight.get(pkey)
                    if pending is not None:
                        waits.setdefault(s, []).append((key, pending))
                        info.cache_hits += 1
                        continue
                    fut = asyncio.get_running_loop().create_future()
                    self._inflight[pkey] = fut
                    owned[key] = (pkey, fut)
                misses.append(e)
                info.cache_misses += 1
            if misses:
                missed.append((s, cat, misses))
        # Planning follows the walk, as in the service: every miss is
        # registered in flight before a step's group headers are awaited.
        for s, cat, misses in missed:

            async def plan(healed, cat=cat, misses=misses):
                return await self._plan_misses(healed or cat, misses, verify, info)

            planned = await self._fail_over(s, plan, info, owned, partial)
            if planned is None:
                continue
            cat, step_plan = planned
            info.extent_bytes += step_plan.extent_bytes
            info.group_batches += sum(
                1 for b in step_plan.batches if b.group is not None
            )
            work.append((cat, step_plan))
        return hits, waits, work


# ----------------------------------------------------------------------
# (a) the catalog lookup against the walk
# ----------------------------------------------------------------------
def forged_reader(keys: list[tuple[int, str, int]]) -> ContainerReader:
    """A container whose index lists ``keys`` in the given order (empty
    streams over an 8-byte payload: only the catalog is looked at)."""
    rows = [[lv, f, p, HEADER_SIZE + i % 8, 0, "sz-lr", 0] for i, (lv, f, p) in enumerate(keys)]
    meta = {
        "codec": "sz-lr", "error_bound": 1e-3, "mode": "abs", "fields": list(FIELDS),
        "exclude_covered": False, "original_bytes": 0,
    }
    n_levels = 1 + max((lv for lv, _, _ in keys), default=0)
    index = build_index_bytes(meta, n_levels, rows)
    head = pack_header() + bytes(8)
    return ContainerReader(head + index + pack_footer(len(head), len(index), zlib.crc32(index)))


_key = st.tuples(st.integers(0, 2), st.sampled_from(FIELDS), st.integers(0, 9))
#: Whole runs of one (level, field), patch numbers in any order, so that
#: long runs (the lookup's per-patch branch) are drawn as well as short ones.
_run = st.tuples(st.integers(0, 2), st.sampled_from(FIELDS), st.lists(st.integers(0, 14), max_size=12))
catalogs = st.one_of(
    st.lists(_key, max_size=40),
    st.lists(_run, max_size=8).map(lambda runs: [(lv, f, p) for lv, f, ps in runs for p in ps]),
)
levels = st.one_of(st.none(), st.integers(-1, 3), st.sets(st.integers(-1, 3), max_size=4))
fields = st.one_of(
    st.none(), st.sampled_from((*FIELDS, "zz")),
    st.sets(st.sampled_from((*FIELDS, "zz")), max_size=4),
)
patches = st.one_of(
    st.none(), st.integers(-1, 15), st.sets(st.integers(-1, 20), max_size=20),
    st.sets(st.integers(0, 14), min_size=1, max_size=3),
    st.lists(st.integers(0, 3), max_size=3), st.just(range(100)),
)


@settings(max_examples=400, deadline=None)
@given(keys=catalogs, levels=levels, fields=fields, patches=patches)
def test_lookup_equals_the_walk(keys, levels, fields, patches):
    reader = forged_reader(keys)
    got = [reader.entries[i] for i in reader.lookup(*_selection(levels, fields, patches))]
    assert got == walk(reader, levels, fields, patches)


def test_lookup_on_named_catalog_shapes():
    dense = [(lv, f, p) for lv in range(2) for f in FIELDS for p in range(5)]
    interleaved = [(0, f, p) for p in range(4) for f in FIELDS]
    unsorted_gaps = [(1, "b", 7), (1, "b", 2), (1, "b", 11), (0, "a", 3), (1, "b", 0)]
    repeated = [(0, "a", 1), (0, "a", 1), (0, "a", 0), (0, "b", 1), (0, "a", 1)]
    for keys in (dense, interleaved, unsorted_gaps, repeated, []):
        reader = forged_reader(keys)
        for sel in [
            (None, None, None), (0, None, None), (None, "b", None), (None, None, 1),
            (1, "b", {0, 7, 11, 99}), (1, "b", {2, 7}), (None, None, set()), ({5}, None, None),
            (None, ["a", "c"], range(100)), ([0, 1], {"a"}, [1, 0, -3]),
        ]:
            got = [reader.entries[i] for i in reader.lookup(*_selection(*sel))]
            assert got == walk(reader, *sel), (keys, sel)


def test_select_on_a_written_container_returns_the_walk(campaign):
    with ShardedSeriesReader.open(campaign) as series:
        reader = series.open_step(1)
        for sel in [(None, None, None), (1, "b", [3, 0]), (None, ["a", "c"], 2), (0, None, None)]:
            got = reader.select(*sel)
            want = walk(reader, *sel)
            assert list(got) == [e.key for e in want]


# ----------------------------------------------------------------------
# (b) the batched cache pass against N gets
# ----------------------------------------------------------------------
_op = st.one_of(
    st.tuples(st.just("put"), st.integers(0, 15), st.integers(0, 45)),
    st.tuples(st.just("get"), st.lists(st.integers(0, 19), max_size=12)),
)


def _collect_equals_gets(batched: ServeCache, oracle: WalkCache, pkeys: list) -> None:
    """``collect`` over every position of ``pkeys`` against one ``get`` each:
    the same hits (keyed ``("r", pkey)``, in order), the same missed
    positions, the same counters and the same recency."""
    keys = [("r", k) for k in pkeys]
    picked = list(range(len(pkeys)))
    got: dict = {}
    missed = batched.collect(picked, pkeys, keys, got)
    want: dict = {}
    want_missed = []
    for i in picked:
        value = oracle.get(pkeys[i])
        if value is None:
            want_missed.append(i)
        else:
            want[keys[i]] = value
    assert missed == want_missed
    assert list(got.items()) == list(want.items())
    assert batched.stats == oracle.stats


@settings(max_examples=300, deadline=None)
@given(ops=st.lists(_op, max_size=60))
def test_collect_is_n_gets(ops):
    batched, oracle = ServeCache(100), WalkCache(100)
    for op in ops:
        if op[0] == "put":
            _, k, n = op
            assert batched.put(k, f"v{k}.{n}", n) == oracle.put(k, f"v{k}.{n}", n)
        else:
            _collect_equals_gets(batched, oracle, op[1])
        assert batched.stats == oracle.stats
        assert list(batched._entries.items()) == list(oracle._entries.items())


def test_collect_counts_a_stored_falsy_value_as_a_hit():
    batched, oracle = ServeCache(10), WalkCache(10)
    for cache in (batched, oracle):
        cache.put("zero", 0, 1)
        cache.put("one", 1, 1)
    got: dict = {}
    keys = ["a", "b", "c", "d"]
    assert batched.collect([0, 1, 2, 3], ["zero", "gone", "one", "zero"], keys, got) == [1]
    assert got == {"a": 0, "c": 1, "d": 0}
    assert batched.stats["hits"] == 3 and batched.stats["misses"] == 1
    for k in ["zero", "gone", "one", "zero"]:
        oracle.get(k)
    assert batched.stats == oracle.stats
    assert list(batched._entries) == list(oracle._entries) == ["one", "zero"]


# ----------------------------------------------------------------------
# (c) the service against the walking _gather
# ----------------------------------------------------------------------
def _step(s: int) -> AMRHierarchy:
    """Two levels, three fields, four fine patches; data distinct per step."""
    rng = np.random.default_rng(s)
    dom = Box.from_shape((8, 8, 8))
    level0 = AMRLevel(0, BoxArray([dom]), (1.0,) * 3)
    fine = BoxArray([Box((4 * i, 0, 0), (4 * i + 3, 7, 7)) for i in range(4)])
    level1 = AMRLevel(1, fine, (0.5,) * 3)
    for name in FIELDS:
        level0.add_field(name, [Patch(dom, rng.normal(size=dom.shape).cumsum(0))])
        level1.add_field(name, [Patch(b, rng.normal(size=b.shape).cumsum(1)) for b in fine])
    return AMRHierarchy(dom, [level0, level1], 2)


@pytest.fixture(scope="module")
def campaign(tmp_path_factory):
    path = tmp_path_factory.mktemp("oracle") / "camp.rphm"
    write_sharded_series(path, [_step(s) for s in range(3)], "sz-lr", 1e-3,
                         n_shards=2, parallel="serial")
    return path


def _counters(svc: QueryService) -> dict:
    """The service's stats without the admission gate's duration EWMA
    (wall time, the one entry two identical runs do not repeat)."""
    stats = svc.stats
    stats["admission"].pop("ewma_ms")
    return stats


def _reply(out: dict) -> list:
    return [(key, arr.dtype.str, arr.shape, arr.tobytes()) for key, arr in out.items()]


async def _script(svc: QueryService) -> list:
    """Every query's reply and QueryInfo, every plan, and the stats after each."""
    seen = []

    async def query(**sel):
        out, info = await svc.query_info(**sel)
        seen.append((sel, _reply(out), asdict(info), _counters(svc)))
        return info

    await query(steps=0, fields="a")                                # cold
    await query(steps=0, fields="a")                                # warm
    await query(steps=[0, 1], fields=["a", "b"], patches=[0, 2, 9])  # partly warm
    plan = await svc.plan(steps=2, levels=1, fields="c")            # loads step 2's catalog
    seen.append(("plan", plan, _counters(svc)))
    first, second = await asyncio.gather(                           # one single-flight decode
        query(steps=2, levels=1, fields="c"),
        query(steps=2, levels=1, fields="c", patches=[3, 1]),
    )
    assert first.cache_misses == 4 and second.cache_misses == 0 and second.cache_hits == 2
    await query(levels=0)                                           # evicts
    evicted = await query(steps=0, fields="a")
    assert evicted.cache_misses > 0
    await query(steps=[1, 2], fields="b", partial=True)
    await query(steps=1, fields=["c"], patches={0, 1}, verify=False)
    await query(steps=1, fields=["c"], patches={0, 1}, verify=True)
    await query(steps=9, fields="a")                                # selects nothing
    seen.append(("plan", await svc.plan(fields=["a", "c"], patches={1}), _counters(svc)))
    return seen


def test_service_replies_equal_the_walking_gather(campaign):
    def run(cls):
        svc = cls(campaign, decode_mode="serial", cache_bytes=40_000)
        loop = asyncio.new_event_loop()
        try:
            return loop.run_until_complete(_script(svc)), svc._cache.stats
        finally:
            svc.close()
            loop.close()

    got, got_cache = run(QueryService)
    want, want_cache = run(WalkService)
    assert got_cache["evictions"] > 0
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g == w
    assert got_cache == want_cache
