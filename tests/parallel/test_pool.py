"""Tests for the persistent worker pool: its ordered map and its submit."""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.errors import ReproError
from repro.parallel import EXECUTION_MODES, WorkerPool


def square(x: int) -> int:
    return x * x


class TestModes:
    @pytest.mark.parametrize("mode", ["serial", "thread"])
    def test_order_preserved(self, mode):
        with WorkerPool(mode, workers=3) as pool:
            assert pool.map(square, range(20)) == [x * x for x in range(20)]

    def test_process_mode(self):
        with WorkerPool("process", workers=2) as pool:
            assert pool.map(square, range(8)) == [x * x for x in range(8)]

    def test_empty_items(self):
        with WorkerPool("thread") as pool:
            assert pool.map(square, []) == []

    def test_single_item_short_circuits(self):
        with WorkerPool("process") as pool:
            assert pool.map(square, [3]) == [9]

    def test_unknown_mode_rejected(self):
        with pytest.raises(ReproError):
            WorkerPool("gpu")

    def test_bad_workers_rejected(self):
        """A negative count is refused in every mode, even where ``workers``
        sizes nothing; ``0`` means one per core."""
        for mode in EXECUTION_MODES:
            with pytest.raises(ReproError, match="workers must be"):
                WorkerPool(mode, workers=-1)
        with WorkerPool("thread", workers=0) as pool:
            assert pool.map(square, [1, 2]) == [1, 4]

    @pytest.mark.parametrize("mode", EXECUTION_MODES)
    @pytest.mark.parametrize("workers", [True, False, 1.5, 2.0, "2"])
    def test_workers_are_never_coerced(self, mode, workers, monkeypatch):
        """Only ``None`` or a non-bool int is a count: anything else is a
        typed refusal before an executor is built."""
        import repro.parallel.pool as pool_module

        built = []
        for name in ("ThreadPoolExecutor", "ProcessPoolExecutor"):
            monkeypatch.setattr(pool_module, name, lambda *a, **k: built.append(a or k))
        with pytest.raises(ReproError, match="workers must be an integer"):
            WorkerPool(mode, workers=workers)
        assert built == []

    def test_numpy_integers_are_counts(self):
        """Constructed, never submitted to: no process starts."""
        import numpy as np

        with WorkerPool("process", workers=np.int64(2)) as pool:
            assert pool.workers == 2 and type(pool.workers) is int

    def test_exception_propagates(self):
        def boom(x):
            raise ValueError("boom")

        with WorkerPool("thread", workers=2) as pool:
            with pytest.raises(ValueError):
                pool.map(boom, [1, 2])


def boom(x):
    raise ValueError("boom")


class TestWorkerPool:
    @pytest.mark.parametrize("mode", ["serial", "thread"])
    def test_map_order_preserved(self, mode):
        with WorkerPool(mode, workers=3) as pool:
            assert pool.map(square, range(20)) == [x * x for x in range(20)]

    def test_process_pool(self):
        with WorkerPool("process", workers=2) as pool:
            assert pool.map(square, range(8)) == [x * x for x in range(8)]

    def test_reused_across_map_calls(self):
        """The executor survives across maps — the churn fix."""
        with WorkerPool("thread", workers=2) as pool:
            for _ in range(3):
                assert pool.map(square, range(10)) == [x * x for x in range(10)]
            # pool still open after repeated use
            assert not pool.closed

    def test_serial_pool_maps_on_the_calling_thread(self):
        """A serial pool is a no-op pool: its map runs inline."""
        with WorkerPool("serial") as pool:
            assert pool.map(lambda _: threading.get_ident(), range(3)) == [
                threading.get_ident()] * 3

    def test_submit_serial_runs_inline(self):
        with WorkerPool("serial") as pool:
            fut = pool.submit(square, 7)
            assert fut.result() == 49
            fut = pool.submit(boom, 1)
            with pytest.raises(ValueError):
                fut.result()

    def test_submit_threaded(self):
        with WorkerPool("thread", workers=2) as pool:
            futs = [pool.submit(square, i) for i in range(6)]
            assert [f.result() for f in futs] == [i * i for i in range(6)]

    def test_closed_pool_rejected(self):
        pool = WorkerPool("thread", workers=1)
        pool.close()
        assert pool.closed
        with pytest.raises(ReproError):
            pool.map(square, [1])
        with pytest.raises(ReproError):
            pool.submit(square, 1)
        pool.close()  # idempotent

    def test_bad_args_rejected(self):
        with pytest.raises(ReproError):
            WorkerPool("gpu")
        with pytest.raises(TypeError):  # maps are unbatched: no chunksize
            WorkerPool("thread", chunksize=1)

    def test_workers_resolution(self):
        """``workers`` sizes process pools only: a thread pool is one lane."""
        with WorkerPool("thread", workers=None) as pool:
            assert pool.workers == 1
        with WorkerPool("serial", workers=7) as pool:
            assert pool.workers == 1
        with WorkerPool("process", workers=None) as pool:
            assert pool.workers == max(1, os.cpu_count() or 1)
        with WorkerPool("process", workers=2) as pool:
            assert pool.workers == 2

    def test_exception_propagates_from_map(self):
        with WorkerPool("thread", workers=2) as pool:
            with pytest.raises(ValueError):
                pool.map(boom, [1, 2])
            # the pool survives a failed map
            assert pool.map(square, [3]) == [9]


class OverlapSpy:
    """A task that records the most calls that ever ran at once."""

    def __init__(self):
        self._lock = threading.Lock()
        self.running = self.peak = 0

    def __call__(self, x: int) -> int:
        with self._lock:
            self.running += 1
            self.peak = max(self.peak, self.running)
        time.sleep(0.002)  # releases the GIL: a second thread would get in
        with self._lock:
            self.running -= 1
        return x * x


class TestOneLane:
    """``"thread"`` is one background lane whatever ``workers`` says: three
    callers handing one pool eight tasks each never see two run at once."""

    @pytest.mark.parametrize("workers", [2, 4, None])
    @pytest.mark.parametrize("entry", ["submit", "map", "map-one"])
    def test_a_thread_pool_never_runs_two_tasks_at_once(self, workers, entry):
        spy = OverlapSpy()
        with WorkerPool("thread", workers=workers) as pool:
            assert pool.workers == 1

            def caller(base: int) -> list[int]:
                items = range(base, base + 8)
                if entry == "map":
                    return pool.map(spy, items)
                if entry == "map-one":  # a lone item runs on the lane too
                    return [y for i in items for y in pool.map(spy, [i])]
                return [f.result() for f in [pool.submit(spy, i) for i in items]]

            with ThreadPoolExecutor(max_workers=3) as callers:
                results = list(callers.map(caller, (0, 8, 16)))
        assert results == [[i * i for i in range(b, b + 8)] for b in (0, 8, 16)]
        assert spy.peak == 1


class TestShutdownSemantics:
    def test_close_cancels_queued_futures(self):
        """Once ``closed`` reports True no queued task may still start:
        close() must pass cancel_futures so tasks submitted behind a
        running one are cancelled, not drained."""
        import threading
        from concurrent.futures import CancelledError

        release = threading.Event()
        started = threading.Event()
        ran = []

        def blocker():
            started.set()
            release.wait(timeout=30)

        def queued():
            ran.append(True)

        pool = WorkerPool("thread", workers=1)
        first = pool.submit(blocker)
        assert started.wait(timeout=30)
        second = pool.submit(queued)  # stuck behind the blocker

        closer = threading.Thread(target=pool.close)
        closer.start()
        release.set()  # let the running task finish; close() then returns
        closer.join(timeout=30)
        assert pool.closed and first.result(timeout=30) is None
        assert second.cancelled()
        with pytest.raises(CancelledError):
            second.result(timeout=1)
        assert not ran, "a queued task ran after the pool reported closed"

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="fork-only semantics")
    def test_process_pool_refuses_use_after_fork(self):
        """A forked child inherits the executor object but not its worker
        processes; using it would deadlock. The pool must refuse loudly."""
        pool = WorkerPool("process", workers=1)
        try:
            assert pool.map(square, [3, 4]) == [9, 16]  # parent: fine
            pid = os.fork()
            if pid == 0:  # child
                code = 1
                try:
                    pool.submit(square, 1)
                except ReproError as exc:
                    code = 0 if "fork" in str(exc) else 2
                except BaseException:
                    code = 3
                finally:
                    os._exit(code)
            _, status = os.waitpid(pid, 0)
            assert os.waitstatus_to_exitcode(status) == 0
            # The parent's handle keeps working after the fork.
            assert pool.map(square, [5]) == [25]
        finally:
            pool.close()

    def test_thread_pools_survive_fork_check(self):
        """The fork guard is process-mode only; thread pools recreate their
        workers lazily and stay usable by contract in the same process."""
        with WorkerPool("thread", workers=1) as pool:
            assert pool.map(square, [2]) == [4]
