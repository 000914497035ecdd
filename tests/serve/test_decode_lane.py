"""The concurrency shape of a thread-mode :class:`QueryService` is one
decode lane: whatever ``workers`` says, no two decodes of one service ever
run at once (a second GIL-bound decode thread only trades the interpreter
lock with the first), while everything that is *not* a decode keeps
overlapping it — storage reads run on the event loop's own executor, and
the loop stays free to serve hits and fire deadlines. ``workers`` sizes an
owned process pool; a handed-in pool is used as given, and a thread pool is
one lane whoever built it. And a service closed with decodes queued on that
lane answers every query still in flight with its result or with
``ServeError("query service is closed")``."""

from __future__ import annotations

import asyncio
import threading
import time

import pytest

from repro.amr.io import write_sharded_series
from repro.compression.amr_codec import decompress_selection
from repro.compression.container import _decode_run
from repro.errors import DeadlineExceeded, ReproError, ServeError
from repro.faults import FaultPlan, FaultyBackend
from repro.parallel import WorkerPool
from repro.serve import QueryService
from repro.storage import LocalFileBackend

from tests.serve.conftest import assert_byte_identical, direct_truth
from tests.strategies import many_patch_hierarchy

#: The eight cold selections of the campaign below: step x field x level.
COLD = [dict(steps=s, fields=f, levels=lev) for s in (0, 1) for f in "ab" for lev in (0, 1)]


@pytest.fixture(scope="module")
def campaign(tmp_path_factory):
    """Two steps, two fields, 16 coarse + 60 fine patches each, and the
    full decode."""
    manifest = write_sharded_series(
        tmp_path_factory.mktemp("serve-lane") / "camp.rphm",
        [many_patch_hierarchy(11), many_patch_hierarchy(12)],
        "sz-lr", 1e-3, n_shards=2, parallel="serial")
    return manifest, decompress_selection(manifest)


def _truth(full: dict, steps, fields, levels) -> dict:
    return {k: v for k, v in full.items() if k[:3] == (steps, levels, fields)}


class DecodeSpy:
    """Stands in for the ``_decode_run`` the service submits: counts the
    calls and the most that ever ran at once, and can hold every call on an
    ``Event`` until the test releases it."""

    def __init__(self, dwell: float = 0.0):
        self._lock = threading.Lock()
        self._dwell = dwell
        self.calls = self.running = self.peak = 0
        self.entered = threading.Event()
        self.release = threading.Event()
        self.release.set()

    def hold(self) -> None:
        self.entered.clear()
        self.release.clear()

    def __call__(self, task):
        with self._lock:
            self.calls += 1
            self.running += 1
            self.peak = max(self.peak, self.running)
        self.entered.set()
        try:
            assert self.release.wait(30), "the test never released the decode"
            time.sleep(self._dwell)
            return _decode_run(task)
        finally:
            with self._lock:
                self.running -= 1


@pytest.fixture
def spy(monkeypatch):
    spy = DecodeSpy(dwell=0.002)
    monkeypatch.setattr("repro.serve.service._decode_run", spy)
    yield spy
    spy.release.set()  # never leave a lane thread parked behind a failed test


async def _seen(event: threading.Event, timeout: float = 10.0) -> bool:
    """Wait for a thread-side event without blocking the loop."""
    return await asyncio.get_running_loop().run_in_executor(None, event.wait, timeout)


def _run(scenario):
    return asyncio.run(asyncio.wait_for(scenario, 120))


# ----------------------------------------------------------------------
# (a) one lane, whatever ``workers`` says
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workers", [2, 4, None])
def test_no_two_decodes_of_one_service_overlap(campaign, spy, workers):
    manifest, full = campaign

    async def scenario():
        svc = QueryService(manifest, workers=workers)
        try:
            served = await asyncio.gather(*[svc.query(**sel) for sel in COLD])
            lane = (svc._pool.mode, svc._pool.workers)
        finally:
            svc.close()
        assert spy.calls == len(COLD) and spy.peak == 1
        assert lane == ("thread", 1)
        for sel, got in zip(COLD, served):
            assert_byte_identical(got, _truth(full, **sel))

    _run(scenario())


@pytest.mark.parametrize("decode_mode", ["thread", "process"])
@pytest.mark.parametrize("workers", [True, 1.5, "2"])
def test_workers_that_are_not_a_count_are_refused(campaign, decode_mode, workers):
    """Refused before the source opens anything or a pool is built, in
    thread mode too, where ``workers`` sizes nothing."""
    manifest, _ = campaign
    with pytest.raises(ReproError, match="workers must be an integer"):
        QueryService(manifest, workers=workers, decode_mode=decode_mode)


def test_a_handed_in_pool_runs_as_given(campaign, spy):
    """The service decodes on the pool it is handed, not one of its own —
    and a handed-in thread pool is one lane, whatever its ``workers``."""
    manifest, full = campaign

    async def scenario():
        with WorkerPool("thread", workers=4) as pool:
            svc = QueryService(manifest, pool=pool, workers=1)
            try:
                assert svc._pool is pool and pool.workers == 1
                spy.hold()
                both = [asyncio.ensure_future(svc.query(**sel)) for sel in COLD[:2]]
                assert await _seen(spy.entered)
                await asyncio.sleep(0.05)  # the second decode is queued, not running
                assert spy.calls == 1
                spy.release.set()
                served = await asyncio.gather(*both)
                assert spy.calls == 2 and spy.peak == 1
            finally:
                svc.close()
            assert not pool.closed  # the caller's pool outlives the service
        for sel, got in zip(COLD, served):
            assert_byte_identical(got, _truth(full, **sel))

    _run(scenario())


# ----------------------------------------------------------------------
# (b) (c) what is not a decode still overlaps one
# ----------------------------------------------------------------------
def test_a_storage_read_runs_while_a_decode_is_blocked(campaign, spy):
    """Reads never were on the decode pool: query B fetches (through a
    backend that takes 5 ms per read) while query A's decode holds the lane."""
    manifest, full = campaign
    read_during_decode = threading.Event()

    def nap(seconds):
        if spy.entered.is_set() and not spy.release.is_set():
            read_during_decode.set()
        time.sleep(seconds)

    plan = FaultPlan(seed=1, sleep=nap)
    plan.latency(0.005)

    async def scenario():
        svc = QueryService(manifest, backend=FaultyBackend(LocalFileBackend(), plan), workers=2)
        try:
            spy.hold()
            a = asyncio.ensure_future(svc.query(**COLD[1]))  # step 0
            assert await _seen(spy.entered)  # A has every byte it needs; it is decoding
            b = asyncio.ensure_future(svc.query(**COLD[5]))  # step 1: other shard, cold
            assert await _seen(read_during_decode)
            assert not a.done() and spy.calls == 1  # B's decode waits its turn
            spy.release.set()
            assert_byte_identical(await a, _truth(full, **COLD[1]))
            assert_byte_identical(await b, _truth(full, **COLD[5]))
            assert spy.calls == 2 and spy.peak == 1
        finally:
            svc.close()

    _run(scenario())


def test_a_cache_hit_is_answered_while_a_decode_is_blocked(campaign, spy):
    manifest, full = campaign

    async def scenario():
        svc = QueryService(manifest, workers=2)
        try:
            warm = await svc.query(**COLD[0])
            spy.hold()
            cold = asyncio.ensure_future(svc.query(**COLD[7]))
            assert await _seen(spy.entered)
            hit, info = await asyncio.wait_for(svc.query_info(**COLD[0]), 5)
            assert info.cache_hits == info.keys == len(warm) and info.cache_misses == 0
            assert not cold.done()  # the loop answered around the decode
            assert_byte_identical(hit, warm)
            spy.release.set()
            assert_byte_identical(await cold, _truth(full, **COLD[7]))
        finally:
            svc.close()

    _run(scenario())


# ----------------------------------------------------------------------
# (d) a deadline that fires on a queued decode cancels it
# ----------------------------------------------------------------------
def test_deadline_on_a_queued_decode_cancels_it_and_a_retry_is_exact(campaign, spy):
    manifest, full = campaign

    async def scenario():
        svc = QueryService(manifest, workers=2)
        try:
            spy.hold()
            first = asyncio.ensure_future(svc.query(**COLD[1]))
            assert await _seen(spy.entered)
            with pytest.raises(DeadlineExceeded):
                await svc.query(**COLD[5], timeout=0.05)  # queued behind `first`
            assert svc.stats["deadline_exceeded"] == 1 and not first.done()
            spy.release.set()
            assert_byte_identical(await first, _truth(full, **COLD[1]))
            assert spy.calls == 1  # the queued decode was cancelled, never run
            assert_byte_identical(await svc.query(**COLD[5]), _truth(full, **COLD[5]))
            assert spy.calls == 2 and not svc._inflight
        finally:
            svc.close()

    _run(scenario())


# ----------------------------------------------------------------------
# (e) ``workers`` sizes an owned process pool
# ----------------------------------------------------------------------
def test_process_mode_owns_its_workers_and_rebuilds_them(campaign):
    manifest, full = campaign

    async def scenario():
        svc = QueryService(manifest, decode_mode="process", workers=2, cache_bytes=None)
        try:
            assert (svc._pool.mode, svc._pool.workers) == ("process", 2)
            first = await asyncio.gather(*[svc.query(**sel) for sel in COLD[:2]])
            for proc in list(svc._pool._executor._processes.values()):
                proc.kill()
            with pytest.raises(ServeError, match="decode worker pool"):
                await svc.query(**COLD[2])
            assert svc.stats["pool_rebuilds"] == 1
            assert (svc._pool.mode, svc._pool.workers) == ("process", 2)
            assert not svc._pool.broken
            first.append(await svc.query(**COLD[2]))
        finally:
            svc.close()
        for sel, got in zip(COLD, first):
            assert_byte_identical(got, _truth(full, **sel))

    _run(scenario())


# ----------------------------------------------------------------------
# (f) the replies are what ``decompress_selection`` gives
# ----------------------------------------------------------------------
@pytest.mark.parametrize("source", ["snapshot_path", "series_path", "sharded_path"])
def test_replies_are_byte_identical_on_every_source_kind(request, source):
    path = request.getfixturevalue(source)
    selections = [{}, dict(levels=1), dict(levels=0), dict(steps=0, levels=1, patches=0)]

    async def scenario():
        svc = QueryService(path, workers=4, cache_bytes=None)
        try:
            return await asyncio.gather(*[svc.query(**sel) for sel in selections])
        finally:
            svc.close()

    for sel, got in zip(selections, _run(scenario())):
        assert_byte_identical(got, direct_truth(path, **sel))


# ----------------------------------------------------------------------
# close() with decodes queued on the lane
# ----------------------------------------------------------------------
def test_queries_in_flight_at_close_end_in_a_result_or_a_typed_refusal(campaign, spy):
    """Twelve concurrent cold level-1 queries (four selections, each with an
    owner and two single-flight waiters), closed while the first decode
    runs and the rest are queued or not yet submitted: ``close()`` cancels
    the queued futures, and that must not reach a query as a cancellation
    it never asked for — nor as a bare "worker pool is closed"."""
    manifest, full = campaign
    selections = [sel for sel in COLD if sel["levels"] == 1] * 3

    async def scenario():
        svc = QueryService(manifest, workers=2)
        spy.hold()
        queries = [asyncio.ensure_future(svc.query(**sel)) for sel in selections]
        assert await _seen(spy.entered)
        await asyncio.sleep(0.05)  # the others fetch, submit and queue
        threading.Timer(0.05, spy.release.set).start()
        svc.close()  # waits for the running decode, cancels the queued ones
        return await asyncio.gather(*queries, return_exceptions=True)

    outcomes = _run(scenario())
    answered = 0
    for sel, outcome in zip(selections, outcomes):
        if isinstance(outcome, dict):
            answered += 1
            assert_byte_identical(outcome, _truth(full, **sel))
        else:
            assert type(outcome) is ServeError, repr(outcome)
            assert str(outcome) == "query service is closed"
    assert 0 < answered < len(selections)
