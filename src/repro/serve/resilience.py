"""Resilience primitives for the serving layer: deadlines, admission
control, and circuit breakers.

These are small, clock-injectable, loop-confined state machines; the
:class:`~repro.serve.service.QueryService` wires them into the query
path (it only ever touches them from its event loop, which is the
synchronization — none of them take locks):

* :class:`Deadline` — a monotonic-clock budget shared by every await a
  query makes; ``remaining()`` is what gets handed to ``wait_for``.
* :class:`AdmissionGate` — a bounded in-flight budget (query count plus
  estimated plan bytes) with a FIFO wait queue. When both the budget and
  the queue are full, the gate *sheds load*: the caller gets
  :class:`~repro.errors.Overloaded` immediately (with a retry-after
  hint) instead of piling onto the event loop and thrashing the cache.
* :class:`CircuitBreaker` — per-backend/shard failure isolation.
  ``threshold`` consecutive storage faults trip it open; while open,
  requests fast-fail with :class:`~repro.errors.CircuitOpenError` for
  ``cooldown`` seconds instead of re-paying timeouts against a dead
  backend; after the cooldown one *probe* request is let through
  (half-open) — its outcome closes the breaker or re-opens it.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from typing import Callable

from repro.errors import CircuitOpenError, DeadlineExceeded, Overloaded

__all__ = ["Deadline", "AdmissionGate", "CircuitBreaker"]


class Deadline:
    """An absolute monotonic-clock deadline for one query.

    Build with :meth:`of` from the user-facing ``timeout=`` (seconds
    from now) / ``deadline=`` (absolute ``time.monotonic()`` value)
    pair; ``None`` from both means no deadline.
    """

    __slots__ = ("at", "_clock")

    def __init__(self, at: float, clock: Callable[[], float] = time.monotonic):
        self.at = float(at)
        self._clock = clock

    @classmethod
    def of(
        cls,
        timeout: float | None,
        deadline: float | None,
        clock: Callable[[], float] = time.monotonic,
    ) -> "Deadline | None":
        if timeout is None and deadline is None:
            return None
        if timeout is not None and timeout < 0:
            raise DeadlineExceeded(f"timeout must be >= 0, got {timeout}")
        at = clock() + float(timeout) if timeout is not None else float(deadline)
        if deadline is not None:
            at = min(at, float(deadline))
        return cls(at, clock)

    def remaining(self) -> float:
        """Seconds left (clamped at 0)."""
        return max(0.0, self.at - self._clock())

    def expired(self) -> bool:
        return self._clock() >= self.at

    # kept: the typed error a query past its deadline gets
    def exceeded(self, what: str = "query") -> DeadlineExceeded:
        return DeadlineExceeded(f"{what} deadline expired")


class AdmissionGate:
    """Bounded in-flight work with a FIFO wait queue and load shedding.

    Two budgets share one queue discipline: a *slot* budget
    (``max_inflight`` concurrently admitted queries) acquired at query
    entry, and a *byte* budget (``max_bytes`` of estimated fetched
    bytes, from the :class:`~repro.serve.planner.QueryPlan`) reserved
    once the query is planned. Waiters park on a FIFO queue of futures;
    when the queue holds ``max_queue`` entries, further arrivals are shed
    with :class:`~repro.errors.Overloaded` carrying a ``retry_after``
    hint (an EWMA of recent query durations scaled by the backlog). A
    reservation larger than the whole byte budget is admitted only when
    nothing else holds bytes — oversize queries serialize rather than
    deadlock. Waiting respects the query's :class:`Deadline`.
    """

    def __init__(
        self,
        max_inflight: int | None = 64,
        max_queue: int = 256,
        max_bytes: int | None = None,
    ):
        if max_inflight is not None and max_inflight < 1:
            raise Overloaded(f"max_inflight must be >= 1, got {max_inflight}")
        if max_queue < 0:
            raise Overloaded(f"max_queue must be >= 0, got {max_queue}")
        if max_bytes is not None and max_bytes < 1:
            raise Overloaded(f"max_bytes must be >= 1, got {max_bytes}")
        self.max_inflight = max_inflight
        self.max_queue = int(max_queue)
        self.max_bytes = max_bytes
        self.inflight = 0
        self.bytes_held = 0
        self._slot_queue: deque[asyncio.Future] = deque()
        self._byte_queue: deque[tuple[asyncio.Future, int]] = deque()
        #: EWMA of completed-query durations (seconds), the retry-after basis.
        self.ewma_seconds = 0.0
        self.admitted = 0
        self.shed = 0
        self.peak_queued = 0

    # -- hints ----------------------------------------------------------
    # kept: tells a shed client when to retry (admission control under overload)
    def retry_after(self) -> float:
        backlog = self.inflight + len(self._slot_queue) + 1
        return max(0.01, self.ewma_seconds * backlog) if self.ewma_seconds else 0.05

    def note_duration(self, seconds: float) -> None:
        """Feed one completed query's duration into the EWMA."""
        self.ewma_seconds = (
            seconds if self.ewma_seconds == 0.0
            else 0.8 * self.ewma_seconds + 0.2 * seconds
        )

    # kept: queues a query while the service is at capacity
    async def _park(self, queue: deque, entry, deadline: Deadline | None) -> None:
        queue.append(entry)
        self.peak_queued = max(
            self.peak_queued, len(self._slot_queue) + len(self._byte_queue)
        )
        fut = entry if isinstance(entry, asyncio.Future) else entry[0]
        try:
            if deadline is None:
                await fut
            else:
                await asyncio.wait_for(asyncio.shield(fut), deadline.remaining())
        except (asyncio.TimeoutError, asyncio.CancelledError):
            if fut.done() and not fut.cancelled():
                # Woken and abandoned in the same tick: hand the grant on.
                self._abandon(queue, entry)
            else:
                try:
                    queue.remove(entry)
                except ValueError:
                    pass
                fut.cancel()
            if deadline is not None and deadline.expired():
                raise deadline.exceeded("admission wait") from None
            raise

    # kept: frees a queued query's slot when it is cancelled
    def _abandon(self, queue: deque, entry) -> None:
        """A granted waiter went away before using its grant: release."""
        if queue is self._slot_queue:
            self.inflight += 1  # it was granted; release symmetrically
            self.release_slot()
        else:
            _, nbytes = entry
            self.bytes_held += nbytes
            self.release_bytes(nbytes)

    # -- slot budget -----------------------------------------------------
    async def acquire_slot(self, deadline: Deadline | None = None) -> None:
        """Admit one query, waiting FIFO; sheds with ``Overloaded`` when
        the queue is full."""
        if self.max_inflight is None:
            self.inflight += 1
            self.admitted += 1
            return
        if self.inflight < self.max_inflight and not self._slot_queue:
            self.inflight += 1
            self.admitted += 1
            return
        if len(self._slot_queue) >= self.max_queue:
            self.shed += 1
            raise Overloaded(
                f"service overloaded: {self.inflight} queries in flight and "
                f"{len(self._slot_queue)} queued (budget {self.max_inflight}"
                f"/{self.max_queue})",
                retry_after=self.retry_after(),
            )
        fut = asyncio.get_running_loop().create_future()
        await self._park(self._slot_queue, fut, deadline)
        self.admitted += 1

    def release_slot(self) -> None:
        self.inflight -= 1
        while self._slot_queue and (
            self.max_inflight is None or self.inflight < self.max_inflight
        ):
            fut = self._slot_queue.popleft()
            if fut.done():
                continue
            self.inflight += 1
            fut.set_result(None)

    # -- byte budget -----------------------------------------------------
    async def reserve_bytes(
        self, nbytes: int, deadline: Deadline | None = None
    ) -> int:
        """Reserve a planned query's estimated fetch bytes (FIFO). Returns
        the reserved amount (to pass back to :meth:`release_bytes`).
        Oversize reservations wait until the budget is idle."""
        if self.max_bytes is None or nbytes <= 0:
            return 0
        nbytes = int(nbytes)
        if self._fits(nbytes) and not self._byte_queue:
            self.bytes_held += nbytes
            return nbytes
        fut = asyncio.get_running_loop().create_future()
        await self._park(self._byte_queue, (fut, nbytes), deadline)
        return nbytes

    # kept: admits an oversize query alone, so it cannot deadlock behind itself
    def _fits(self, nbytes: int) -> bool:
        if self.bytes_held + nbytes <= self.max_bytes:
            return True
        # Oversize: admit alone so it cannot deadlock behind itself.
        return nbytes > self.max_bytes and self.bytes_held == 0

    def release_bytes(self, nbytes: int) -> None:
        if not nbytes:
            return
        self.bytes_held -= nbytes
        while self._byte_queue:
            fut, want = self._byte_queue[0]
            if fut.done():
                self._byte_queue.popleft()
                continue
            if not self._fits(want):
                break
            self._byte_queue.popleft()
            self.bytes_held += want
            fut.set_result(None)

    # -- stats -----------------------------------------------------------
    @property
    def stats(self) -> dict:
        return {
            "inflight": self.inflight,
            "queued": len(self._slot_queue) + len(self._byte_queue),
            "bytes_held": self.bytes_held,
            "admitted": self.admitted,
            "shed": self.shed,
            "peak_queued": self.peak_queued,
            "max_inflight": self.max_inflight,
            "max_queue": self.max_queue,
            "max_bytes": self.max_bytes,
            "ewma_ms": round(self.ewma_seconds * 1e3, 3),
        }


class CircuitBreaker:
    """Consecutive-failure circuit breaker for one backend/shard/file.

    States: *closed* (healthy — requests pass), *open* (``threshold``
    consecutive failures seen — requests fast-fail until ``cooldown``
    seconds pass), *half-open* (cooldown over — exactly one probe
    request passes; its success closes the breaker, its failure re-opens
    it for another cooldown). ``clock`` is injectable for tests.
    """

    def __init__(
        self,
        threshold: int = 5,
        cooldown: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        if threshold < 1:
            raise CircuitOpenError(f"threshold must be >= 1, got {threshold}")
        if cooldown < 0:
            raise CircuitOpenError(f"cooldown must be >= 0, got {cooldown}")
        self.threshold = int(threshold)
        self.cooldown = float(cooldown)
        self._clock = clock
        self.state = "closed"
        self.failures = 0
        self._opened_at = 0.0
        self._probing = False
        self.trips = 0
        self.fast_fails = 0
        self.probes = 0

    def remaining(self) -> float:
        """Seconds of cooldown left (0 when not open)."""
        if self.state != "open":
            return 0.0
        return max(0.0, self._opened_at + self.cooldown - self._clock())

    def allow(self) -> bool:
        """Whether a request may proceed right now. The transition out of
        *open* happens here: the first caller after the cooldown becomes
        the half-open probe."""
        if self.state == "closed":
            return True
        if self.state == "open" and self.remaining() <= 0.0:
            self.state = "half_open"
            self._probing = False
        if self.state == "half_open" and not self._probing:
            self._probing = True
            self.probes += 1
            return True
        self.fast_fails += 1
        return False

    def check(self, what: str) -> None:
        """Raise :class:`~repro.errors.CircuitOpenError` unless allowed."""
        if not self.allow():
            raise CircuitOpenError(
                f"{what}: circuit breaker open after {self.failures} "
                f"consecutive storage faults; fast-failing for another "
                f"{self.remaining():.2f}s (query with partial=True to "
                "serve around it)"
            )

    def record_success(self) -> None:
        self.state = "closed"
        self.failures = 0
        self._probing = False

    def record_failure(self) -> None:
        self.failures += 1
        if self.state == "half_open" or self.failures >= self.threshold:
            if self.state != "open":
                self.trips += 1
            self.state = "open"
            self._opened_at = self._clock()
            self._probing = False

    @property
    def stats(self) -> dict:
        return {
            "state": self.state,
            "failures": self.failures,
            "trips": self.trips,
            "fast_fails": self.fast_fails,
            "probes": self.probes,
            "cooldown_remaining": round(self.remaining(), 3),
        }
