"""A persistent worker pool and an ordered parallel map over it.

AMR patches are independent (paper §3.3), so their compression is a pure
map. :class:`WorkerPool` survives across maps and timesteps (every parallel
entry point takes ``pool=``); :func:`parallel_map` maps on one, propagating
worker exceptions.

``"thread"`` is ONE background lane whatever ``workers`` says: it frees the
calling thread (a solver, an event loop), and that is all it can do. On the
paper's 8^3-32^3 patches a task is thousands of sub-millisecond NumPy / zlib
calls, and a second GIL-bound thread only trades the interpreter lock with
the first, so both finish later (``docs/performance.md``, the writer-lane
and decode-lane sections). ``workers`` sizes ``"process"`` pools, the one
multi-core mode.
"""

from __future__ import annotations

import os
from concurrent.futures import Executor, Future, ProcessPoolExecutor, ThreadPoolExecutor
from typing import Callable, Iterable, Sequence, TypeVar

from repro.errors import ReproError

__all__ = ["parallel_map", "WorkerPool", "EXECUTION_MODES"]

T = TypeVar("T")
R = TypeVar("R")

#: Supported execution modes.
EXECUTION_MODES = ("serial", "thread", "process")


class WorkerPool:
    """A persistent, context-managed executor for repeated parallel maps.

    Parameters
    ----------
    mode:
        ``"serial"`` (inline execution — a no-op pool, so call sites can
        take a pool unconditionally), ``"thread"`` (one background lane:
        no two tasks ever run at once), or ``"process"``.
    workers:
        Process count of a ``"process"`` pool; ``None``/``0`` means one per
        CPU core. Validated in every mode (a negative count is refused),
        and sizes nothing else: :attr:`workers` is 1 for serial and thread
        pools.
    chunksize:
        Batch size for process-mode maps (amortizes IPC overhead).

    The pool is reusable across any number of :meth:`map` / :meth:`submit`
    calls until :meth:`close` (or the ``with`` block) releases it — the
    workers survive across calls and across timesteps:

    .. code-block:: python

        from repro.parallel import WorkerPool

        with WorkerPool("process", workers=8) as pool:
            for step in stream:                      # one pool, N steps
                compress_hierarchy(step, "sz-lr", 1e-3, pool=pool)
    """

    def __init__(self, mode: str = "thread", workers: int | None = None, chunksize: int = 1):
        if mode not in EXECUTION_MODES:
            raise ReproError(f"unknown execution mode {mode!r} (have {EXECUTION_MODES})")
        if chunksize < 1:
            raise ReproError(f"chunksize must be >= 1, got {chunksize}")
        if workers is not None and workers < 0:
            raise ReproError(f"workers must be >= 0 or None, got {workers}")
        self._mode = mode
        self._workers = (workers or os.cpu_count() or 1) if mode == "process" else 1
        self._chunksize = int(chunksize)
        self._closed = False
        self._pid = os.getpid()
        self._executor: Executor | None = None
        if mode == "thread":
            self._executor = ThreadPoolExecutor(max_workers=1)
        elif mode == "process":
            self._executor = ProcessPoolExecutor(max_workers=self._workers)

    @property
    def mode(self) -> str:
        """Execution mode this pool runs tasks in."""
        return self._mode

    @property
    def workers(self) -> int:
        """Tasks that can run at once: the process count of a process pool,
        else 1."""
        return self._workers

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
        :func:`parallel_map` for the contract). A thread pool runs every
        item on its lane, so a map never overlaps another caller's task; a
        process pool runs a lone item inline rather than pickle it."""
        self._check_open()
        seq: Sequence[T] = list(items)
        if self._executor is None or (self._mode == "process" and len(seq) <= 1):
            return [fn(item) for item in seq]
        return list(self._executor.map(fn, seq, chunksize=self._chunksize))

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
        *after* the pool reported closed.
        """
        if self._closed:
            return
        self._closed = True
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def parallel_map(
    fn: Callable[[T], R],
    items: Iterable[T],
    mode: str = "serial",
    workers: int | None = 2,
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
    mode, workers, chunksize:
        The :class:`WorkerPool` built for this call when no ``pool`` is
        given (``workers`` sizes process mode only; ``0`` = one per core).
    pool:
        Optional persistent :class:`WorkerPool`. When given, the map runs
        on it (its mode/size/chunksize govern; ``mode``/``workers``/
        ``chunksize`` here are ignored) and nothing is constructed or torn
        down per call.
    """
    if pool is not None:
        return pool.map(fn, items)
    with WorkerPool(mode, workers, chunksize) as own:
        return own.map(fn, items)
