"""Cache correctness: the LRU itself, and its observable effect on the
backend — stats must reconcile exactly with GET counts on a
``RangedBackend`` with ``readahead=1`` (every byte the service touches is
a byte the backend saw, and a warm query touches none)."""

from __future__ import annotations

import asyncio
import json
import random
import shutil
import zlib

import numpy as np
import pytest

from repro.compression.amr_codec import compress_hierarchy
from repro.compression.container import (
    FOOTER_SIZE,
    ContainerReader,
    build_index_bytes,
    pack_footer,
    unpack_footer,
)
from repro.errors import ServeError, TruncatedSeriesError
from repro.insitu.series import SeriesReader
from repro.serve import QueryService, ServeCache
from repro.storage import LocalFileBackend, RangedBackend

from tests.serve.conftest import (
    N_STEPS,
    assert_byte_identical,
    direct_truth,
    grouped_step_hierarchy,
)


# ----------------------------------------------------------------------
# ServeCache unit tests
# ----------------------------------------------------------------------
def test_budget_is_never_exceeded():
    cache = ServeCache(100)
    rng = random.Random(3)
    for i in range(200):
        cache.put(("patch", i), object(), rng.randint(0, 60))
        assert cache.current_bytes <= 100
        assert cache.current_bytes == sum(
            n for _, n in cache._entries.values()
        )
    assert cache.evictions > 0


def test_lru_eviction_order():
    cache = ServeCache(100)
    cache.put("a", "A", 40)
    cache.put("b", "B", 40)
    assert cache.get("a") == "A"  # refresh a: b is now LRU
    cache.put("c", "C", 40)  # over budget: evicts b
    assert "b" not in cache
    assert cache.get("a") == "A" and cache.get("c") == "C"
    assert cache.evictions == 1


def test_oversize_values_are_rejected_not_stored():
    cache = ServeCache(100)
    assert not cache.put("big", "X", 101)
    assert "big" not in cache and cache.rejected == 1
    assert cache.current_bytes == 0
    assert cache.put("fits", "Y", 100)


def test_get_put_counters():
    cache = ServeCache(100)
    assert cache.get("k") is None
    cache.put("k", "V", 10)
    assert cache.get("k") == "V"
    assert cache.get("j") is None
    assert cache.stats == {
        "hits": 1, "misses": 2, "evictions": 0, "puts": 1, "rejected": 0,
        "entries": 1, "current_bytes": 10, "max_bytes": 100,
    }


def test_invalid_parameters_rejected():
    with pytest.raises(ServeError, match="max_bytes"):
        ServeCache(0)
    cache = ServeCache(10)
    with pytest.raises(ServeError, match="charge"):
        cache.put("k", "V", -1)


# ----------------------------------------------------------------------
# Service-level reconciliation against backend request counts
# ----------------------------------------------------------------------
def _counted_service(path, **kwargs):
    backend = RangedBackend(LocalFileBackend(), readahead=1)
    return QueryService(path, backend=backend, workers=2, **kwargs), backend


def test_query_bytes_reconcile_with_backend(series_path):
    """With readahead=1 every GET is exactly one service read, so the
    per-query accounting must match the backend's meters byte for byte."""

    async def scenario():
        svc, backend = _counted_service(series_path)
        try:
            before = dict(backend.stats)
            _, cold = await svc.query_info(steps=[0, 1], levels=1)
            mid = dict(backend.stats)
            assert (
                mid["bytes_fetched"] - before["bytes_fetched"]
                == cold.fetched_bytes + cold.meta_bytes
            )
            assert cold.fetched_bytes > 0 and cold.meta_bytes > 0
            # Payload GETs are the planned coalesced reads; the rest of
            # the request delta is catalog/group-header metadata.
            assert mid["requests"] - before["requests"] >= cold.ranged_reads
            _, warm = await svc.query_info(steps=[0, 1], levels=1)
            after = dict(backend.stats)
            assert warm.fetched_bytes == 0 and warm.meta_bytes == 0
            assert warm.cache_hits == warm.keys
            assert after == mid, "warm query issued backend requests"
        finally:
            svc.close()

    asyncio.run(scenario())


def test_cache_disabled_refetches_exactly_the_extents(series_path):
    async def scenario():
        svc, backend = _counted_service(series_path, cache_bytes=None)
        try:
            _, first = await svc.query_info(steps=2)
            # Displace the RangedBackend reader's single readahead window
            # (it legitimately serves an immediate re-read GET-free).
            await svc.query(steps=3)
            before = dict(backend.stats)
            _, second = await svc.query_info(steps=2)
            after = dict(backend.stats)
            # Catalogs persist even with the cache off (plain per-step
            # table), so the repeat pays payload only — and all of it.
            assert second.meta_bytes == 0
            assert second.fetched_bytes == first.fetched_bytes > 0
            assert (
                after["bytes_fetched"] - before["bytes_fetched"]
                == second.fetched_bytes
            )
            assert svc.stats["cache"] is None
        finally:
            svc.close()

    asyncio.run(scenario())


def test_catalogs_outlive_a_cache_smaller_than_one_query(series_path):
    """Decoded patches are all the budget holds: a cache too small for one
    query's patches thrashes on them, but a step's catalog and group
    headers are parsed once, so every repeat query reads payload only."""
    budget = 64 << 10

    async def scenario():
        svc, _ = _counted_service(series_path, cache_bytes=budget)
        try:
            for s in range(N_STEPS):
                served, first = await svc.query_info(steps=s)
                assert first.meta_bytes > 0
                assert sum(a.nbytes for a in served.values()) > budget
            for _ in range(2):
                for s in range(N_STEPS):
                    _, again = await svc.query_info(steps=s)
                    assert again.cache_misses > 0 and again.fetched_bytes > 0
                    assert again.meta_bytes == 0
            assert svc.stats["cache"]["evictions"] > 0
        finally:
            svc.close()

    asyncio.run(scenario())


def test_thrashing_cache_stays_within_budget_and_correct(series_path):
    budget = 96 << 10

    async def scenario():
        svc, _ = _counted_service(series_path, cache_bytes=budget)
        try:
            rng = random.Random(5)
            served = []
            for _ in range(12):
                sel = {
                    "steps": rng.sample(range(N_STEPS), rng.randint(1, 2)),
                    "levels": rng.sample(range(2), rng.randint(1, 2)),
                }
                served.append((sel, await svc.query(**sel)))
                assert svc._cache.current_bytes <= budget
            stats = svc.stats["cache"]
            assert stats["evictions"] > 0, "budget never forced an eviction"
            assert stats["current_bytes"] <= budget
            return served
        finally:
            svc.close()

    for sel, served in asyncio.run(scenario()):
        assert_byte_identical(served, direct_truth(series_path, **sel))


def test_patch_cache_key_separates_verify_modes(series_path):
    """verify=False results must never satisfy a verify=True query (the
    unverified bytes were not crc-checked)."""

    async def scenario():
        svc, _ = _counted_service(series_path)
        try:
            await svc.query(steps=0, levels=0, verify=False)
            _, info = await svc.query_info(steps=0, levels=0, verify=True)
            assert info.cache_misses == info.keys  # no cross-mode hits
            _, again = await svc.query_info(steps=0, levels=0, verify=True)
            assert again.cache_hits == again.keys
        finally:
            svc.close()

    asyncio.run(scenario())


def _out_of_order_snapshot(path):
    """A written grouped snapshot whose index lists its rows shuffled out of
    key order (payload untouched: each row still names its bytes, group
    and member)."""
    blob = compress_hierarchy(grouped_step_hierarchy(), "sz-lr", 1e-3).tobytes()
    index_offset, index_length, _ = unpack_footer(blob[-FOOTER_SIZE:])
    index = json.loads(blob[index_offset : index_offset + index_length])
    rows = index["entries"]
    permuted = [rows[i] for i in np.random.default_rng(5).permutation(len(rows))]
    index_bytes = build_index_bytes(index, index["n_levels"], permuted, index.get("groups"))
    path.write_bytes(
        blob[:index_offset] + index_bytes
        + pack_footer(index_offset, len(index_bytes), zlib.crc32(index_bytes))
    )
    return path


def test_reply_is_in_key_order_on_an_out_of_order_catalog(tmp_path):
    """Replies come back sorted by key whatever order the catalog lists its
    entries in — cold (decoded), warm (all hits) and partly warm — and hold
    the bytes ``decompress_selection`` decodes."""
    path = _out_of_order_snapshot(tmp_path / "shuffled.rph2")
    with ContainerReader(path.read_bytes()) as reader:
        listed = [e.key for e in reader.entries]
    assert listed != sorted(listed)
    warm_sel = {"levels": 1, "patches": [3, 40, 7, 12, 59, 0, 25]}
    wider_sel = {"patches": range(0, 60, 2)}

    async def scenario():
        svc = QueryService(path, decode_mode="serial")
        try:
            replies = []
            for sel in (warm_sel, warm_sel, wider_sel, wider_sel):
                out, info = await svc.query_info(**sel)
                replies.append((sel, out, info))
            return replies
        finally:
            svc.close()

    replies = asyncio.run(scenario())
    (_, _, cold), (_, _, warm), (_, _, part), (_, _, rewarm) = replies
    assert cold.cache_misses == cold.keys > 0
    assert warm.cache_hits == warm.keys and rewarm.cache_hits == rewarm.keys
    assert 0 < part.cache_hits < part.keys
    for sel, out, _ in replies:
        assert list(out) == sorted(out)
        assert_byte_identical(out, direct_truth(path, **sel))


# ----------------------------------------------------------------------
# Recovered sources
# ----------------------------------------------------------------------
@pytest.fixture()
def torn_series(series_path, tmp_path):
    """The shared series with its footer+index torn off — only a
    recovery scan can serve it."""
    torn = tmp_path / "torn.rph2s"
    shutil.copy(series_path, torn)
    size = torn.stat().st_size
    with open(torn, "r+b") as f:
        f.truncate(size - 40)  # destroys the footer and part of the index
    return torn


def test_recovered_series_serves_identically(series_path, torn_series):
    with pytest.raises(TruncatedSeriesError):
        QueryService(torn_series)

    async def scenario():
        svc = QueryService(torn_series, recover=True, workers=2)
        try:
            assert svc.recovered
            assert svc.steps == tuple(range(N_STEPS))
            served = await svc.query(levels=1)
            _, warm = await svc.query_info(levels=1)
            assert warm.fetched_bytes == 0
            return served
        finally:
            svc.close()

    served = asyncio.run(scenario())
    # The sealed segments are bit-exact copies of the intact series', so
    # the intact file is valid ground truth for the recovered service.
    assert_byte_identical(served, direct_truth(series_path, levels=1))


def test_recovered_series_through_ranged_backend(torn_series):
    async def scenario():
        backend = RangedBackend(LocalFileBackend(), readahead=1 << 12)
        svc = QueryService(torn_series, backend=backend, recover=True, workers=2)
        try:
            return await svc.query(steps=1, levels=0)
        finally:
            svc.close()

    served = asyncio.run(scenario())
    with SeriesReader.open(torn_series, recover=True) as reader:
        truth = reader.select(steps=1, levels=0)
    assert_byte_identical(served, {k: v for k, v in truth.items()})
