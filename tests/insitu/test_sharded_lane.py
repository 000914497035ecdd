"""The concurrency shape of ``ShardedSeriesWriter(parallel="thread")``.

One single-worker lane serves the whole campaign: the caller gets its
thread back while steps encode behind it, one at a time, in the order
they were appended. Two threads inside the encode at once bought nothing
(they trade the interpreter lock on every sub-millisecond NumPy/zlib
call), so the shape is contract — these tests fail the day a second
GIL-bound thread comes back.
"""

from __future__ import annotations

import hashlib
import threading
import time

import pytest

from repro.errors import StorageError
from repro.faults import FaultPlan, FaultyBackend
from repro.insitu import ShardedSeriesWriter, StreamingWriter
from repro.sims import NyxConfig, nyx_step_stream
from repro.storage import LocalFileBackend
from tests.integrity.conftest import campaign_steps

WAIT = 10.0  # seconds; every wait in this file is bounded by it


def _create(path, **options):
    options.setdefault("n_shards", 2)
    return ShardedSeriesWriter.create(path, "sz-lr", 1e-3, parallel="thread", **options)


def _spy(monkeypatch, before):
    """Run ``before(step)`` at the top of every shard writer's append."""
    real = StreamingWriter.append_step

    def append_step(self, hierarchy, time=None, step=None, fields=None):
        before(step)
        return real(self, hierarchy, time=time, step=step, fields=fields)

    monkeypatch.setattr(StreamingWriter, "append_step", append_step)


def test_appends_never_overlap_and_run_in_submission_order(tmp_path, monkeypatch):
    lock = threading.Lock()
    active, overlaps, order = [], [], []

    def before(step):
        with lock:
            overlaps.extend((other, step) for other in active)
            active.append(step)
            order.append(step)
        time.sleep(0.02)  # a second lane would walk in during this
        with lock:
            active.remove(step)

    _spy(monkeypatch, before)
    with _create(tmp_path / "camp.rphm", n_shards=3) as writer:
        for i, h in enumerate(campaign_steps()):
            writer.append_step(h, step=i)
    assert overlaps == []
    assert order == list(range(6))  # across shards, not just within one


def test_append_returns_early_and_the_window_bounds_the_queue(tmp_path, monkeypatch):
    started, release = threading.Event(), threading.Event()

    def before(step):
        started.set()
        assert release.wait(WAIT)

    _spy(monkeypatch, before)
    steps = campaign_steps()[:3]
    writer = _create(tmp_path / "camp.rphm", max_pending_steps=2)
    try:
        writer.append_step(steps[0])
        writer.append_step(steps[1])  # both returned ...
        assert started.wait(WAIT) and not release.is_set()  # ... mid-encode
        third = threading.Thread(target=writer.append_step, args=(steps[2],))
        third.start()
        third.join(0.2)
        assert third.is_alive()  # the window is full: it waits for a retire
        release.set()
        third.join(WAIT)
        assert not third.is_alive()
        writer.close()
    finally:
        release.set()
        writer.abort()
    assert writer.n_steps == 3


def _md5s(directory):
    return {
        p.name: hashlib.md5(p.read_bytes()).hexdigest()
        for p in sorted(directory.iterdir())
    }


def test_transient_fault_is_retried_on_the_lane_to_serial_bytes(tmp_path):
    steps = campaign_steps()[:4]
    (tmp_path / "serial").mkdir()
    with ShardedSeriesWriter.create(tmp_path / "serial" / "camp.rphm", "sz-lr", 1e-3,
                                    n_shards=2, parallel="serial", parity=1) as writer:
        for h in steps:
            writer.append_step(h)

    plan = FaultPlan()
    plan.nth(3, match="*.shard000.rph2s", kind="transient")
    main = threading.current_thread()
    naps = []

    def sleep(seconds):
        naps.append((seconds, threading.current_thread() is main))

    (tmp_path / "thread").mkdir()
    with _create(tmp_path / "thread" / "camp.rphm", parity=1, sleep=sleep,
                 backend=FaultyBackend(LocalFileBackend(), plan)) as writer:
        for h in steps:
            writer.append_step(h)
    assert plan.faults == 1, "the schedule never fired (test is vacuous)"
    assert naps == [(0.05, False)]  # one backoff, slept by the lane
    assert _md5s(tmp_path / "thread") == _md5s(tmp_path / "serial")


@pytest.mark.parametrize("ending", ["with", "close-close", "close-abort"])
def test_no_lane_thread_outlives_a_failed_campaign(tmp_path, monkeypatch, ending):
    def before(step):
        if step == 1:
            raise StorageError("injected lane failure")

    _spy(monkeypatch, before)
    threads = set(threading.enumerate())
    steps = campaign_steps()[:3]
    if ending == "with":
        with pytest.raises(StorageError, match="injected"):
            with _create(tmp_path / "camp.rphm") as writer:
                for h in steps:
                    writer.append_step(h)
    else:
        writer = _create(tmp_path / "camp.rphm")
        for h in steps:
            writer.append_step(h)
        with pytest.raises(StorageError, match="injected"):
            writer.close()  # the failure surfaces; the campaign is still open
        assert set(threading.enumerate()) - threads
        if ending == "close-close":
            writer.close()
        else:
            writer.abort()
    assert set(threading.enumerate()) - threads == set()


def test_a_lane_failure_raised_by_append_burns_no_number_or_slot(tmp_path, monkeypatch):
    def before(step):
        if step == 0:
            raise StorageError("injected lane failure")

    _spy(monkeypatch, before)
    steps = campaign_steps()[:2]
    with _create(tmp_path / "camp.rphm", max_pending_steps=1) as writer:
        assert writer.append_step(steps[0]) == 0
        with pytest.raises(StorageError, match="injected"):
            writer.append_step(steps[1])  # drains step 0's failure first
        assert writer.n_steps == 1  # the refused call submitted nothing
        assert writer.append_step(steps[1]) == 1
    shard0, shard1 = writer._writers
    assert [e.step for e in shard0._steps] == []
    assert [e.step for e in shard1._steps] == [1]  # the slot after step 0's


def test_a_campaign_hands_the_interpreter_lock_over_rarely(tmp_path):
    """Voluntary context switches of one small threaded campaign: a count,
    not a time. One lane and a waiting caller read tens on any runner. A
    lane per shard read thousands (~12 000 for the benchmark's campaign,
    a median of 2 300 for this one) whenever the scheduler had the lanes
    on two cores — every GIL release inside the encode was then a
    hand-off — and 100–160 while it still kept a young process on one, or
    inside a pytest session. So this bound is informational: it catches
    the spread case only. The gate that fails deterministically the day a
    second GIL-bound thread returns is the overlap spy in
    ``test_appends_never_overlap_and_run_in_submission_order``."""
    resource = pytest.importorskip("resource")
    steps = list(nyx_step_stream(2, NyxConfig(coarse_n=16))) * 3
    before = resource.getrusage(resource.RUSAGE_SELF).ru_nvcsw
    with _create(tmp_path / "camp.rphm") as writer:
        for s in steps:
            writer.append_step(s.hierarchy)
    switches = resource.getrusage(resource.RUSAGE_SELF).ru_nvcsw - before
    assert switches <= 1000, switches
