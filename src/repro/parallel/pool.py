"""A persistent worker pool for ordered maps and pipelined tasks.

AMR patches are independent (paper §3.3), so their compression is a pure
map. :class:`WorkerPool` survives across maps and timesteps (every parallel
entry point takes ``pool=``); its :meth:`~WorkerPool.map` preserves order and
propagates worker exceptions, and :meth:`~WorkerPool.submit` feeds pipelined
callers such as the segment writer.

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
from repro.util.validation import check_int

__all__ = ["WorkerPool", "EXECUTION_MODES", "check_workers"]

T = TypeVar("T")
R = TypeVar("R")

#: Supported execution modes.
EXECUTION_MODES = ("serial", "thread", "process")


def check_workers(workers) -> int | None:
    """``workers`` as an ``int``, or ``None``; anything but ``None`` or a
    non-bool integer >= 0 is a :class:`~repro.errors.ReproError` (never
    coerced: ``True`` is not one process, ``"2"`` not two)."""
    return None if workers is None else check_int("workers", workers, minimum=0)


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
        CPU core. Validated in every mode before any executor is built
        (:func:`check_workers`), and sizes nothing else: :attr:`workers` is
        1 for serial and thread pools.

    The pool is reusable across any number of :meth:`map` / :meth:`submit`
    calls until :meth:`close` (or the ``with`` block) releases it — the
    workers survive across calls and across timesteps:

    .. code-block:: python

        from repro.parallel import WorkerPool

        with WorkerPool("process", workers=8) as pool:
            for step in stream:                      # one pool, N steps
                compress_hierarchy(step, "sz-lr", 1e-3, pool=pool)
    """

    def __init__(self, mode: str = "thread", workers: int | None = None):
        if mode not in EXECUTION_MODES:
            raise ReproError(f"unknown execution mode {mode!r} (have {EXECUTION_MODES})")
        workers = check_workers(workers)
        self._mode = mode
        self._workers = (workers or os.cpu_count() or 1) if mode == "process" else 1
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

    # kept: operator need: whether a pool has been closed
    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has released the executor."""
        return self._closed

    # kept: QueryService rebuilds a process pool a dead worker poisoned
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
        """Apply ``fn`` to every item, preserving order; the first worker
        exception propagates (``fn`` must be picklable for ``"process"``).
        A thread pool runs every item on its lane, so a map never overlaps
        another caller's task; a process pool runs a lone item inline
        rather than pickle it."""
        self._check_open()
        seq: Sequence[T] = list(items)
        if self._executor is None or (self._mode == "process" and len(seq) <= 1):
            return [fn(item) for item in seq]
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
