"""Seeded, deterministic fault injection for storage and decode paths.

Resilience properties — retries, circuit breakers, degraded reads,
deadline handling — are only real if something keeps breaking the system
on purpose. This module is that something: a :class:`FaultPlan` is a
small, seeded schedule of injected failures that plugs into the hooks the
I/O layers already expose, so every "what if the backend dies here?"
scenario is reproducible from a seed instead of depending on luck:

* :class:`~repro.storage.RangedBackend` takes a plan directly as its
  ``fault=`` hook (the plan is callable with the hook's
  ``(name, offset, length, attempt)`` signature) — faults then hit every
  ranged GET, inside the retry loop.
* :class:`FaultyBackend` wraps **any** :class:`~repro.storage.StorageBackend`
  (including a plain :class:`~repro.storage.LocalFileBackend`) and injects
  the plan's faults/latency on every read, with no retry layer in between.
* :class:`FaultyPool` wraps a :class:`~repro.parallel.WorkerPool` and
  makes scheduled decode tasks fail (typed or as a raw crash) — the
  "decode worker died mid-query" scenario.

A plan is a list of **rules**. Each rule has a *match* (an
``fnmatch``-style glob over the object/site name, or a predicate over
``(name, offset, length)``), a *kind* (what to inject), and a *schedule*
(when to fire):

====================  ====================================================
schedule              fires on
====================  ====================================================
``always()``          every matching call (a hard outage)
``flake()``           first attempt of every matching GET (retry succeeds)
``nth(n)``            exactly the n-th matching call (0-based)
``first(k)``          the first ``k`` matching calls, then recovers —
                      the fail-then-recover outage window
``probability(p)``    each matching call with seeded probability ``p``
``latency(seconds)``  never fails; sleeps before the call proceeds
====================  ====================================================

Schedules count *calls* (retry attempts of the same GET do not advance
``nth``/``first``/``probability`` — attempt 0 counts), so a schedule's
firing pattern is independent of the retry policy layered above it.
Injected errors default to :class:`~repro.errors.TransientStorageError`
(``kind="transient"``); ``kind="storage"`` injects a permanent
:class:`~repro.errors.StorageError`, and ``kind="crash"`` raises a bare
``RuntimeError`` — the shape of a genuinely dead worker, which the
serving layer must convert to a typed error rather than leak.

``tools/chaossim.py`` sweeps plans built from these rules against an
oracle over the whole serving stack; ``tests/serve/test_faults.py`` uses
them for targeted scenarios.
"""

from __future__ import annotations

import random
import threading
import time
from fnmatch import fnmatchcase
from typing import BinaryIO, Callable, Iterable

from repro.errors import ReproError, StorageError, TransientStorageError
from repro.parallel.pool import WorkerPool
from repro.storage import StorageBackend

__all__ = ["FaultRule", "FaultPlan", "FaultyBackend", "FaultyPool"]

#: Injected-error kinds a rule may carry.
FAULT_KINDS = ("transient", "storage", "crash")

Matcher = Callable[[str, int, int], bool]


def _compile_match(match) -> Matcher:
    if callable(match):
        return match
    pattern = str(match)
    return lambda name, offset, length: fnmatchcase(name, pattern)


def _make_error(kind: str, site: str, detail: str) -> BaseException:
    if kind == "transient":
        return TransientStorageError(f"injected transient fault: {site} {detail}")
    if kind == "storage":
        return StorageError(f"injected storage fault: {site} {detail}")
    return RuntimeError(f"injected crash: {site} {detail}")


class FaultRule:
    """One schedule entry of a :class:`FaultPlan` (build via the plan)."""

    def __init__(
        self,
        match: Matcher,
        kind: str,
        *,
        nth: int | None = None,
        first: int | None = None,
        probability: float | None = None,
        always: bool = False,
        flake: bool = False,
        latency: float | None = None,
        rng: random.Random | None = None,
        label: str = "",
    ):
        if kind not in FAULT_KINDS:
            raise ReproError(f"unknown fault kind {kind!r} (have {FAULT_KINDS})")
        self.match = match
        self.kind = kind
        self.nth = nth
        self.first = first
        self.probability = probability
        self.always = always
        self.flake = flake
        self.latency = latency
        self.rng = rng
        self.label = label
        self.calls = 0
        self.fired = 0

    def decide(self, name: str, offset: int, length: int, attempt: int) -> bool:
        """Whether this rule fires for one call (advances its counters)."""
        if not self.match(name, offset, length):
            return False
        if attempt == 0:
            call = self.calls
            self.calls += 1
        else:
            # A retry of the same logical call: only per-attempt rules
            # (always) re-evaluate; scheduled rules keep their verdict
            # tied to attempt 0 so the pattern is retry-policy-invariant.
            call = self.calls - 1
        if self.always:
            fire = True
        elif self.flake:
            fire = attempt == 0
        elif self.nth is not None:
            fire = call == self.nth
        elif self.first is not None:
            fire = call < self.first
        elif self.probability is not None:
            if attempt != 0:
                return False
            fire = self.rng.random() < self.probability
        elif self.latency is not None:
            fire = attempt == 0
        else:  # pragma: no cover - constructor always sets one schedule
            fire = False
        if fire:
            self.fired += 1
        return fire


class FaultPlan:
    """A seeded, deterministic set of fault rules.

    Callable with :class:`~repro.storage.RangedBackend`'s ``fault`` hook
    signature, so a plan *is* a fault hook::

        from repro.faults import FaultPlan
        from repro.storage import LocalFileBackend, RangedBackend

        plan = FaultPlan(seed=7)
        plan.flake()                       # every GET's first attempt 503s
        backend = RangedBackend(LocalFileBackend(), fault=plan,
                                sleep=lambda s: None)

    ``sleep`` is the hook latency rules use (injectable so tests control
    the clock); ``seed`` drives every probabilistic rule. All rule state
    is behind one lock — plans are safe to consult from executor threads.
    """

    def __init__(self, seed: int = 0, sleep: Callable[[float], None] = time.sleep):
        self._seed = int(seed)
        self._sleep = sleep
        self._lock = threading.Lock()
        self._rules: list[FaultRule] = []

    # -- rule builders -------------------------------------------------
    def _add(self, rule: FaultRule) -> FaultRule:
        with self._lock:
            self._rules.append(rule)
        return rule

    def always(self, match="*", kind: str = "transient", label: str = "") -> FaultRule:
        """Hard outage: every matching call (every attempt) fails."""
        return self._add(
            FaultRule(_compile_match(match), kind, always=True, label=label)
        )

    def flake(self, match="*", kind: str = "transient", label: str = "") -> FaultRule:
        """Fail only attempt 0 of each matching GET — one retry heals it."""
        return self._add(
            FaultRule(_compile_match(match), kind, flake=True, label=label)
        )

    def nth(self, n: int, match="*", kind: str = "transient", label: str = "") -> FaultRule:
        """Fail exactly the ``n``-th matching call (0-based)."""
        return self._add(
            FaultRule(_compile_match(match), kind, nth=int(n), label=label)
        )

    # kept: tools/chaossim.py's full matrix: an outage window
    def first(self, k: int, match="*", kind: str = "transient", label: str = "") -> FaultRule:
        """Fail-then-recover: the first ``k`` matching calls fail (every
        attempt — an outage window), later calls succeed."""
        return self._add(
            FaultRule(_compile_match(match), kind, first=int(k), label=label)
        )

    # kept: tools/chaossim.py's full matrix and benchmarks/bench_serve.py: seeded random faults
    def probability(
        self, p: float, match="*", kind: str = "transient", label: str = ""
    ) -> FaultRule:
        """Fail each matching call with seeded probability ``p``."""
        if not 0.0 <= p <= 1.0:
            raise ReproError(f"fault probability must be in [0, 1], got {p}")
        rng = random.Random(self._seed + len(self._rules) * 7919)
        return self._add(
            FaultRule(
                _compile_match(match), kind, probability=float(p), rng=rng,
                label=label,
            )
        )

    def latency(self, seconds: float, match="*", label: str = "") -> FaultRule:
        """Inject a delay (through the plan's ``sleep`` hook) before each
        matching call proceeds; the call itself succeeds."""
        return self._add(
            FaultRule(
                _compile_match(match), "transient", latency=float(seconds),
                label=label,
            )
        )

    # -- lifecycle / stats ---------------------------------------------
    def clear(self) -> None:
        """Drop every rule (the plan keeps working, injecting nothing)."""
        with self._lock:
            self._rules.clear()

    # kept: operator need: list a plan's rules after a chaos run
    @property
    def rules(self) -> tuple[FaultRule, ...]:
        with self._lock:
            return tuple(self._rules)

    # kept: operator need: count the faults a chaos run fired
    @property
    def fired(self) -> int:
        """Total faults fired across all rules (latency rules included)."""
        with self._lock:
            return sum(r.fired for r in self._rules)

    @property
    def faults(self) -> int:
        """Error faults fired (excludes latency rules) — what retry
        accounting reconciles against."""
        with self._lock:
            return sum(r.fired for r in self._rules if r.latency is None)

    # kept: operator need: per-rule counters of a chaos run, JSON-safe
    def stats(self) -> list[dict]:
        """Per-rule counters, JSON-safe."""
        with self._lock:
            return [
                {
                    "label": r.label,
                    "kind": "latency" if r.latency is not None else r.kind,
                    "calls": r.calls,
                    "fired": r.fired,
                }
                for r in self._rules
            ]

    # -- injection entry point -----------------------------------------
    def __call__(self, name: str, offset: int, length: int, attempt: int = 0) -> None:
        """Consult the plan for one call; sleeps for latency rules and
        raises for firing error rules (the ``RangedBackend`` hook shape)."""
        naps = 0.0
        error: BaseException | None = None
        with self._lock:
            for rule in self._rules:
                if not rule.decide(name, offset, length, attempt):
                    continue
                if rule.latency is not None:
                    naps += rule.latency
                elif error is None:
                    error = _make_error(
                        rule.kind, name, f"[{offset}:{offset + length}] "
                        f"attempt {attempt}" + (f" ({rule.label})" if rule.label else "")
                    )
        if naps:
            self._sleep(naps)
        if error is not None:
            raise error


# kept: every method: the read-handle protocol, so a faulty backend stands under any reader
class _FaultyReader:
    """Read handle that consults a plan on every ``read``."""

    closed = False

    def __init__(self, plan: FaultPlan, name: str, inner: BinaryIO):
        self._plan = plan
        self._name = name
        self._inner = inner

    def seek(self, offset: int, whence: int = 0) -> int:
        return self._inner.seek(offset, whence)

    def tell(self) -> int:
        return self._inner.tell()

    def read(self, size: int = -1) -> bytes:
        pos = self._inner.tell()
        self._plan(self._name, pos, max(0, size), 0)
        return self._inner.read(size)

    def close(self) -> None:
        self.closed = True
        self._inner.close()


# kept: every method: the write-handle protocol, so a faulty backend stands under any writer
class _FaultyWriter:
    """Write handle that consults a plan on every ``write``.

    Only ``write`` is injected: ``seek`` / ``truncate`` / ``flush`` /
    ``close`` delegate untouched, so a writer's *rollback* path (truncate
    back to the sealed prefix after a failed append) can never itself be
    blocked by the plan — matching real storage, where undoing a buffered
    write is a metadata operation, not another data write.
    """

    closed = False

    def __init__(self, plan: FaultPlan, name: str, inner: BinaryIO):
        self._plan = plan
        self._name = name
        self._inner = inner

    def write(self, data) -> int:
        pos = self._inner.tell()
        self._plan(self._name, pos, len(data), 0)
        return self._inner.write(data)

    def seek(self, offset: int, whence: int = 0) -> int:
        return self._inner.seek(offset, whence)

    def tell(self) -> int:
        return self._inner.tell()

    def truncate(self, size: int | None = None) -> int:
        return self._inner.truncate(size)

    def flush(self) -> None:
        self._inner.flush()

    def fileno(self) -> int:
        return self._inner.fileno()

    def close(self) -> None:
        self.closed = True
        self._inner.close()


# kept: every method: the StorageBackend protocol, for the fault tests and ROADMAP item 7
class FaultyBackend(StorageBackend):
    """Inject a :class:`FaultPlan` into any backend's read *and write* paths.

    Unlike wiring the plan into :class:`~repro.storage.RangedBackend`'s
    hook, there is no retry layer here: a firing rule's error surfaces
    directly from ``read`` / ``write`` — what a dead local disk or NFS
    stall looks like to :class:`~repro.storage.LocalFileBackend` users.
    Write-side sites are the same object names (match on ``*.rph2s`` etc.);
    ``seek``/``truncate``/``flush`` are never injected, so rollback and
    two-phase-commit machinery stays exercisable under faults. Metadata
    operations delegate untouched.
    """

    def __init__(self, inner: StorageBackend, plan: FaultPlan):
        self._inner = inner
        self.plan = plan

    def open_read(self, name: str) -> BinaryIO:
        return _FaultyReader(self.plan, name, self._inner.open_read(name))  # type: ignore[return-value]

    def open_write(self, name: str) -> BinaryIO:
        return _FaultyWriter(self.plan, name, self._inner.open_write(name))  # type: ignore[return-value]

    def open_append(self, name: str) -> BinaryIO:
        return _FaultyWriter(self.plan, name, self._inner.open_append(name))  # type: ignore[return-value]

    def exists(self, name: str) -> bool:
        return self._inner.exists(name)

    def size(self, name: str) -> int:
        return self._inner.size(name)

    def delete(self, name: str) -> None:
        self._inner.delete(name)

    def list(self, prefix: str = "") -> list[str]:
        return self._inner.list(prefix)


def _raise_task(exc: BaseException):
    raise exc


# kept: every method: the WorkerPool protocol, for tools/chaossim.py's poisoned pools
class FaultyPool:
    """Inject decode-task faults into a :class:`~repro.parallel.WorkerPool`.

    The plan is consulted **at submit time in the submitting process**
    (site name ``pool:<function name>``, offset/length 0) so counters and
    seeded schedules stay deterministic even for process pools; a firing
    rule replaces the task with one that raises the injected error —
    byte-for-byte the future shape of a task that died in the worker.
    Satisfies the slice of the pool API the serving layer uses
    (``submit`` / ``map`` / ``mode`` / ``close``).
    """

    def __init__(self, inner: WorkerPool, plan: FaultPlan):
        self._inner = inner
        self.plan = plan

    @property
    def mode(self) -> str:
        return self._inner.mode

    @property
    def workers(self) -> int:
        return self._inner.workers

    @property
    def closed(self) -> bool:
        return self._inner.closed

    @property
    def broken(self) -> bool:
        return self._inner.broken

    def _site(self, fn: Callable) -> str:
        return f"pool:{getattr(fn, '__name__', 'task')}"

    def submit(self, fn: Callable, *args):
        try:
            self.plan(self._site(fn), 0, 0, 0)
        except BaseException as exc:
            return self._inner.submit(_raise_task, exc)
        return self._inner.submit(fn, *args)

    def map(self, fn: Callable, items: Iterable) -> list:
        return [self.submit(fn, item).result() for item in items]

    def close(self) -> None:
        self._inner.close()

    def __enter__(self) -> "FaultyPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
