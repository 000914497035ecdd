"""Ordered parallel map over threads or processes, plus a persistent pool.

SZ-L/R blocks and AMR patches are independent (paper §3.3), so their
compression is a pure map. This module provides the two primitives the
parallel paths need:

* :func:`parallel_map` — ordered map with a selectable executor and
  propagated worker exceptions. Historically it constructed (and tore
  down) an executor *per call*, which is pure overhead on workloads that
  map many times — an in-situ campaign calls it once per timestep. Pass a
  persistent :class:`WorkerPool` via ``pool=`` to amortize that cost;
  without one the per-call executor fallback keeps existing callers
  working unchanged.
* :class:`WorkerPool` — a context-managed executor that survives across
  ``parallel_map`` calls and timesteps. ``compress_hierarchy`` /
  ``decompress_hierarchy`` / ``decompress_selection`` and the in-situ
  :class:`~repro.insitu.writer.StreamingWriter` all accept one.

Thread mode frees the calling thread (a solver, an event loop); it is parallel
only while single kernel calls are long. On the paper's 8^3-32^3 patches a task
is thousands of sub-millisecond NumPy / zlib calls, and two such threads trade
the GIL on each and both finish later (``docs/performance.md`` § PR 23, § PR 24):
the sharded writer and the read service each own ONE worker thread. Process mode
trades startup and pickling cost for true parallelism on multi-core hosts.
"""

from __future__ import annotations

import os
import sys
from concurrent.futures import Executor, Future, ProcessPoolExecutor, ThreadPoolExecutor
from typing import Callable, Iterable, Sequence, TypeVar

from repro.errors import ReproError

__all__ = ["parallel_map", "resolve_workers", "WorkerPool", "EXECUTION_MODES"]

T = TypeVar("T")
R = TypeVar("R")

#: Supported execution modes.
EXECUTION_MODES = ("serial", "thread", "process")


def resolve_workers(workers: int | None) -> int:
    """Resolve a worker count: ``None`` or ``0`` means one per CPU core."""
    if workers is None or workers == 0:
        return max(1, os.cpu_count() or 1)
    if workers < 0:
        raise ReproError(f"workers must be >= 0 or None, got {workers}")
    return workers


class WorkerPool:
    """A persistent, context-managed executor for repeated parallel maps.

    Parameters
    ----------
    mode:
        ``"serial"`` (inline execution — a no-op pool, so call sites can
        take a pool unconditionally), ``"thread"``, or ``"process"``.
    workers:
        Executor size; ``None``/``0`` means one per CPU core.
    chunksize:
        Batch size for process-mode maps (amortizes IPC overhead).

    The pool is reusable across any number of :meth:`map` / :meth:`submit`
    calls until :meth:`close` (or the ``with`` block) releases it — unlike
    the per-call executors :func:`parallel_map` builds without one, the
    workers survive across calls and across timesteps:

    .. code-block:: python

        from repro.parallel import WorkerPool

        with WorkerPool("thread", workers=8) as pool:
            for step in stream:                      # one pool, N steps
                compress_hierarchy(step, "sz-lr", 1e-3, pool=pool)
    """

    def __init__(self, mode: str = "thread", workers: int | None = None, chunksize: int = 1):
        if mode not in EXECUTION_MODES:
            raise ReproError(f"unknown execution mode {mode!r} (have {EXECUTION_MODES})")
        if chunksize < 1:
            raise ReproError(f"chunksize must be >= 1, got {chunksize}")
        self._mode = mode
        self._workers = resolve_workers(workers)
        self._chunksize = int(chunksize)
        self._closed = False
        self._pid = os.getpid()
        self._executor: Executor | None = None
        if mode == "thread":
            self._executor = ThreadPoolExecutor(max_workers=self._workers)
        elif mode == "process":
            self._executor = ProcessPoolExecutor(max_workers=self._workers)

    @property
    def mode(self) -> str:
        """Execution mode this pool runs tasks in."""
        return self._mode

    @property
    def workers(self) -> int:
        """Resolved executor size (1 for serial pools)."""
        return self._workers if self._mode != "serial" else 1

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has released the executor."""
        return self._closed

    @property
    def broken(self) -> bool:
        """Whether the executor can no longer run tasks (a process-pool
        worker died, poisoning the pool). Serial and thread pools never
        break; a broken process pool fails every future with
        ``BrokenProcessPool`` until replaced — callers owning their pool
        (e.g. :class:`repro.serve.QueryService`) use this to rebuild."""
        return bool(getattr(self._executor, "_broken", False))

    def _check_open(self) -> None:
        if self._closed:
            raise ReproError("worker pool is closed")
        if self._mode == "process" and os.getpid() != self._pid:
            # A forked child inherits the executor object but not its
            # worker processes or queue threads — using it deadlocks or
            # silently targets the parent's workers. Refuse loudly.
            raise ReproError(
                f"process-mode worker pool created in pid {self._pid} used "
                f"from forked pid {os.getpid()}: executor handles do not "
                "survive os.fork(); create a new pool in the child"
            )

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
        """Apply ``fn`` to every item, preserving order (see
        :func:`parallel_map` for the contract)."""
        self._check_open()
        seq: Sequence[T] = list(items)
        if self._executor is None or len(seq) <= 1:
            return [fn(item) for item in seq]
        if self._mode == "process":
            return list(self._executor.map(fn, seq, chunksize=self._chunksize))
        return list(self._executor.map(fn, seq))

    def submit(self, fn: Callable[..., R], *args) -> Future:
        """Schedule one call; serial pools run it inline and return an
        already-resolved future (so pipelined callers like the streaming
        writer need no special casing)."""
        self._check_open()
        if self._executor is not None:
            return self._executor.submit(fn, *args)
        fut: Future = Future()
        try:
            fut.set_result(fn(*args))
        except BaseException as exc:  # propagate via .result(), like executors
            fut.set_exception(exc)
        return fut

    def close(self) -> None:
        """Shut the executor down (idempotent); the pool is unusable after.

        Waits for running tasks but *cancels* queued-not-yet-started ones
        (their futures raise ``CancelledError``): once :attr:`closed`
        reports True, no task can still start. Without ``cancel_futures``
        a task submitted from another thread just before close would run
        *after* the pool reported closed. On Python < 3.9 (no
        ``cancel_futures``) the legacy drain-the-queue behavior applies.
        """
        if self._closed:
            return
        self._closed = True
        if self._executor is not None:
            if sys.version_info >= (3, 9):
                self._executor.shutdown(wait=True, cancel_futures=True)
            else:  # pragma: no cover - the repo's floor is 3.10
                self._executor.shutdown(wait=True)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def parallel_map(
    fn: Callable[[T], R],
    items: Iterable[T],
    mode: str = "serial",
    workers: int = 2,
    chunksize: int = 1,
    pool: WorkerPool | None = None,
) -> list[R]:
    """Apply ``fn`` to every item, preserving order.

    Parameters
    ----------
    fn:
        Callable applied per item; must be picklable for ``"process"``.
    items:
        Work items.
    mode:
        ``"serial"``, ``"thread"``, or ``"process"``.
    workers:
        Executor size for the parallel modes.
    chunksize:
        Batch size for process mode (amortizes IPC overhead).
    pool:
        Optional persistent :class:`WorkerPool`. When given, the map runs
        on the pool's executor (its mode/size/chunksize govern;
        ``mode``/``workers``/``chunksize`` here are ignored) and nothing
        is constructed or torn down per call. Without one, behavior is
        the historical per-call executor.
    """
    if pool is not None:
        return pool.map(fn, items)
    if mode not in EXECUTION_MODES:
        raise ReproError(f"unknown execution mode {mode!r} (have {EXECUTION_MODES})")
    seq: Sequence[T] = list(items)
    if mode == "serial" or len(seq) <= 1:
        return [fn(item) for item in seq]
    if workers < 1:
        raise ReproError(f"workers must be >= 1, got {workers}")
    if mode == "thread":
        with ThreadPoolExecutor(max_workers=workers) as executor:
            return list(executor.map(fn, seq))
    with ProcessPoolExecutor(max_workers=workers) as executor:
        return list(executor.map(fn, seq, chunksize=max(1, chunksize)))
