"""Asyncio query service over series, sharded-campaign, and snapshot files.

:class:`QueryService` is the serving layer the in-situ pipeline writes
*for*: it answers selective ``(step, level, field, patch[, region])``
queries from many concurrent clients over one opened source — an RPH2S
series, an RPHM sharded campaign (each step routed to its owning shard),
or a standalone RPH2 snapshot (served as step 0). Three properties hold
end to end:

* **O(selection) bytes per query.** Every query is planned
  (:mod:`repro.serve.planner`): the needed payload extents are coalesced
  into minimal ranged reads under an explicit slack budget, and all byte
  access goes through a :mod:`repro.storage` backend — so a
  :class:`~repro.storage.RangedBackend`'s readahead, retry, and request
  accounting apply to the serving path unchanged. *Which* bytes serve a
  step (its file, or a parity reconstruction of it) is decided by the
  :class:`~repro.serve.source.StepSource` underneath.
* **The event loop never blocks on decode.** Entropy decode runs on a
  :class:`~repro.parallel.WorkerPool` (by default ONE worker thread) and
  byte fetches on the loop's default executor behind a per-file lock,
  overlapping other queries' decodes; the loop only plans, slices, and
  assembles. The missed patches of a step decode as **one task** — one
  lockstep entropy pass over all of them, grouped (RPGB) or not.
* **Warm queries touch zero payload bytes.** Decoded patches live in one
  byte-budgeted :class:`~repro.serve.cache.ServeCache`, and each touched
  step's parsed catalog and group headers/codebooks in the source's
  per-step table; a repeat query is served entirely from them (the
  benchmarks gate this at exactly 0 bytes). It is one ordered pass that
  never suspends: no byte reservation and no decode to gather, and its
  reply is the hits dict the walk built in key order, neither copied nor
  sorted.

Results are read-only ``ndarray`` views — the same object may serve many
clients, so mutation is refused by numpy rather than corrupting the cache.
Per-query accounting comes back through :class:`QueryInfo`
(``extent_bytes`` / ``fetched_bytes`` / ``meta_bytes`` / cache hits), and
cumulative counters through :attr:`QueryService.stats`.

A service instance binds to one event loop (locks are created lazily on
first use); drive it either from your own ``asyncio`` code or through
:class:`InProcessClient`, which runs the service on a dedicated loop
thread and exposes a synchronous facade — what the tests, benchmarks, and
multi-threaded callers use. The TCP front end lives in
:mod:`repro.serve.net`.
"""

from __future__ import annotations

import asyncio
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from repro.compression.base import SharedEntropy
from repro.compression.container import (
    PatchIndexEntry,
    ReaderView,
    _decode_run,
    _normalize_selector,
    _selection,
)
from repro.errors import (
    DeadlineExceeded,
    FormatError,
    ReproError,
    ServeError,
    StorageError,
)
from repro.parallel.pool import WorkerPool, check_workers
from repro.serve.cache import ServeCache
from repro.serve.planner import QueryPlan, StepPlan, plan_step
from repro.serve.resilience import AdmissionGate, Deadline
from repro.serve.source import StepSource, _StepCatalog
from repro.storage import LocalFileBackend, StorageBackend

__all__ = ["QueryService", "QueryInfo", "InProcessClient"]

#: Default decoded-patch cache budget (bytes).
DEFAULT_CACHE_BYTES = 64 << 20


@dataclass
class QueryInfo:
    """Per-query accounting, returned by :meth:`QueryService.query_info`.

    ``extent_bytes`` is the sum of payload extents the query *needed*
    (the O(selection) floor); ``fetched_bytes`` is what the coalesced
    reads actually touched (``<= (1 + DEFAULT_SLACK) * extent_bytes`` by planner
    construction, and 0 for a fully warm query); ``meta_bytes`` counts
    segment footers/indexes and group headers read on this query's
    behalf, plus every byte a parity reconstruction read (a healed step's
    planned reads are slices of that reconstruction and count nowhere) —
    so ``fetched_bytes + meta_bytes`` is what the backend saw.
    """

    keys: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    extent_bytes: int = 0
    fetched_bytes: int = 0
    meta_bytes: int = 0
    ranged_reads: int = 0
    group_batches: int = 0
    #: Segments reconstructed from parity on this query's behalf
    #: (self-healing reads over a damaged shard).
    repairs: int = 0
    #: Whether the query ran in degraded (``partial=True``) mode.
    partial: bool = False
    #: Degraded-mode report: one ``{"step", "file", "error", "detail"}``
    #: dict per selected step whose shard/segment could not be served.
    missing: list = field(default_factory=list)


def _apply_region(arr: np.ndarray, region, key) -> np.ndarray:
    """Slice one decoded patch by per-axis ``(lo, hi)`` pairs."""
    if len(region) != arr.ndim:
        raise ServeError(
            f"region has {len(region)} axis ranges but patch {key} is "
            f"{arr.ndim}-dimensional"
        )
    slices = []
    for axis, pair in enumerate(region):
        try:
            lo, hi = pair
            lo, hi = int(lo), int(hi)
        except (TypeError, ValueError):
            raise ServeError(
                f"region axis {axis} must be a (lo, hi) pair, got {pair!r}"
            ) from None
        if lo < 0 or hi < lo:
            raise ServeError(
                f"region axis {axis} range ({lo}, {hi}) is invalid"
            )
        slices.append(slice(lo, hi))
    return arr[tuple(slices)]


class QueryService(ReaderView):
    """Concurrent selective-read service over one series/snapshot source.

    Parameters
    ----------
    path:
        An RPH2S series file, an RPHM sharded-campaign manifest, or a
        standalone RPH2 snapshot container (served as step 0).
    backend:
        A :class:`repro.storage.StorageBackend` routing **all** byte
        access (index harvest, catalog parses, payload reads). Default:
        local files.
    recover:
        Passed through to :meth:`SeriesReader.open` — serve the
        fully-sealed steps of a crash-interrupted series/campaign.
    cache_bytes:
        Byte budget of the LRU over decoded patches; ``None`` disables it
        (every payload byte is then re-fetched and re-decoded). It does not
        bound catalogs: each step a query touches keeps its parsed catalog
        and group headers — and a healed step its reconstructed segment —
        for the service's life, so repeat queries never parse or heal a
        step again. That memory is O(steps touched): ``tracemalloc`` sees
        0.32–0.37 MB per benchmark step (348–402 index entries, 12 groups)
        with every group header and key list built, about 0.9 KB per index
        entry.
    pool:
        A persistent :class:`~repro.parallel.WorkerPool` for entropy
        decode, run as given. Without one the service creates (and owns)
        a ``decode_mode`` pool. A ``"serial"`` pool decodes inline on
        the event loop — the deterministic test mode. If an *owned*
        process pool breaks (a worker died), the service converts the
        failure to a typed :class:`~repro.errors.ServeError` and
        rebuilds the pool, so the query after the failure succeeds.
    workers:
        Size of an owned ``"process"`` pool (``None``/0 = one per core).
    decode_mode:
        Mode of the owned pool (``"serial"``/``"thread"``/``"process"``);
        ignored when ``pool`` is given. ``"thread"`` is ONE decode thread
        whatever ``workers`` says, as every thread-mode
        :class:`~repro.parallel.WorkerPool` is: it keeps the loop free (hits,
        deadlines, reads overlap the decode); a second only trades the GIL
        with it, ~1 000 times a query (``docs/performance.md``, "Decode lane").
    max_inflight, max_queue, max_bytes:
        Admission control (:class:`~repro.serve.resilience.AdmissionGate`):
        at most ``max_inflight`` queries run concurrently, ``max_queue``
        more wait FIFO, and beyond that arrivals are shed with
        :class:`~repro.errors.Overloaded` (carrying a ``retry_after``
        hint). ``max_bytes`` additionally bounds the summed *planned*
        fetch bytes of executing queries. ``max_inflight=None`` /
        ``max_bytes=None`` disable the respective budget.
    breaker_threshold, breaker_cooldown:
        Per-backend-file circuit breakers
        (:class:`~repro.serve.resilience.CircuitBreaker`):
        ``breaker_threshold`` consecutive storage faults against one
        file/shard fast-fail further access to it with
        :class:`~repro.errors.CircuitOpenError` for ``breaker_cooldown``
        seconds (then one probe is let through).
        ``breaker_threshold=None`` disables breakers.
    heal:
        Self-healing reads: when a step of a parity-carrying campaign
        (``ShardedSeriesWriter(parity=p)``) cannot be read — a
        :class:`~repro.errors.StorageError` / ``FormatError`` — its segment
        is reconstructed from the surviving shards, once, and served like
        any other (kept with the step's catalog) instead of failing the
        query or, under ``partial=True``, being reported ``missing``.
        Counts in ``stats["repairs"]`` and :attr:`QueryInfo.repairs`.
    heal_write_back:
        Additionally patch each reconstruction back into the damaged
        shard file, best-effort (a deleted shard still needs
        :func:`repro.integrity.repair_sharded`).
    clock:
        Monotonic clock used by deadlines, breakers, and the admission
        EWMA — injectable for tests.
    """

    def __init__(
        self,
        path: str | Path,
        *,
        backend: StorageBackend | None = None,
        recover: bool = False,
        cache_bytes: int | None = DEFAULT_CACHE_BYTES,
        pool: WorkerPool | None = None,
        workers: int | None = 2,
        decode_mode: str = "thread",
        max_inflight: int | None = 64,
        max_queue: int = 256,
        max_bytes: int | None = None,
        breaker_threshold: int | None = 5,
        breaker_cooldown: float = 30.0,
        heal: bool = True,
        heal_write_back: bool = False,
        clock=time.monotonic,
    ):
        check_workers(workers)  # before the source opens anything
        self._cache = ServeCache(cache_bytes) if cache_bytes is not None else None
        self._clock = clock
        self._admission = AdmissionGate(max_inflight, max_queue, max_bytes)
        #: Single-flight table: patch cache key -> future of the decode a
        #: concurrent query already started (thundering-herd protection).
        self._inflight: dict[tuple, asyncio.Future] = {}
        self._closed = False
        self._stats = {
            "queries": 0,
            "patches_served": 0,
            "cache_hits": 0,
            "cache_misses": 0,
            "extent_bytes": 0,
            "group_batches": 0,
            "deadline_exceeded": 0,
            "partial_queries": 0,
            "pool_rebuilds": 0,
        }
        self._source = StepSource(
            path,
            backend if backend is not None else LocalFileBackend(),
            recover=recover,
            heal=heal,
            heal_write_back=heal_write_back,
            breaker_threshold=breaker_threshold,
            breaker_cooldown=breaker_cooldown,
            clock=clock,
        )
        #: step -> (file, segment offset, segment length)
        self._segments = self._source.segments
        self._step_order = sorted(self._segments)
        #: ``"snapshot"``, ``"series"`` or ``"campaign"``, as ``repro.open`` sniffed it.
        self.kind = self._source.kind
        self._meta = self._source.meta  # what ReaderView serves fields / codec / ... from
        self.is_sharded = self.kind == "campaign"
        self.recovered = self._source.recovered
        # The pool comes last: nothing above leaves anything to release.
        self._owns_pool = pool is None
        self._decode_mode = decode_mode if pool is None else pool.mode
        self._workers_arg = workers
        self._pool = pool if pool is not None else self._owned_pool()

    # ------------------------------------------------------------------
    # Lifecycle / metadata
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release file handles and the owned worker pool (idempotent).
        Call from the loop the service ran on, after in-flight queries
        drain — :class:`InProcessClient` does this for you; one still in
        flight ends in its result or ``ServeError("query service is closed")``."""
        if self._closed:
            return
        self._closed = True
        self._source.close()
        if self._owns_pool:
            self._pool.close()

    # kept: operator need: whether a service has been closed
    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def path(self) -> str:
        """The served series/manifest/snapshot path."""
        return self._source.path

    @property
    def steps(self) -> tuple[int, ...]:
        """Served timestep numbers, ascending (``(0,)`` for a snapshot)."""
        return tuple(self._step_order)

    @property
    def stats(self) -> dict:
        """Cumulative counter snapshot (plus what the source read and
        repaired, and cache, admission-control and per-file circuit-breaker
        stats)."""
        out = {**self._stats, **self._source.spent}
        out["payload_bytes"] = out.pop("fetched_bytes")
        out["cache"] = self._cache.stats if self._cache is not None else None
        out["admission"] = self._admission.stats
        out["shed"] = self._admission.shed
        out["breakers"] = {
            file: b.stats for file, b in sorted(self._source.breakers.items())
        }
        return out

    # ------------------------------------------------------------------
    # Failure isolation
    # ------------------------------------------------------------------
    def _owned_pool(self) -> WorkerPool:
        """The pool the service builds for itself, new or after a broken one."""
        return WorkerPool(self._decode_mode, workers=self._workers_arg)

    def _note_pool_failure(self) -> bool:
        """Rebuild the owned decode pool after a worker death poisoned it
        (``BrokenProcessPool`` fails every future on a broken pool until
        it is replaced). Returns whether a rebuild happened."""
        if not (self._owns_pool and self._pool.broken and not self._closed):
            return False
        try:
            self._pool.close()
        except Exception:
            pass
        self._pool = self._owned_pool()
        self._stats["pool_rebuilds"] += 1
        return True

    def _pool_failure_error(self, exc: BaseException) -> ServeError:
        """Typed error for a decode-pool death (e.g. a killed process
        worker); replaces an owned broken pool so the *next* query
        succeeds."""
        rebuilt = self._note_pool_failure()
        hint = "; the pool was rebuilt — retry the query" if rebuilt else ""
        return ServeError(
            f"decode worker pool failed ({type(exc).__name__}: {exc}){hint}"
        )

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    async def _plan_misses(
        self, cat: _StepCatalog, misses: Sequence[PatchIndexEntry],
        verify: bool, info: QueryInfo,
    ) -> tuple[_StepCatalog, StepPlan]:
        """Load the group headers the missed entries need and plan their
        reads against ``cat``'s bytes."""
        gids = sorted({e.group for e in misses if e.group is not None})
        await self._source.load_groups(cat, gids, verify, info)
        return cat, plan_step(
            cat.file,
            cat.step,
            cat.base,
            misses,
            {g: cat.reader.group_entry(g).offset for g in gids},
            {g: cat.reader.group(g, verify=False) for g in gids},
        )

    async def _fail_over(
        self, step: int, attempt, info: QueryInfo, owned: dict | None,
        partial: bool, heal: bool = True,
    ):
        """The one fail-over: what happens when a step's bytes cannot be read.

        ``attempt(None)`` runs one phase (catalog, plan, execute) of one
        step. When it fails with a :class:`~repro.errors.StorageError` (dead
        shard, tripped breaker) or :class:`~repro.errors.FormatError`
        (corrupt index, group header or payload), the source is asked to
        heal the step from parity and the phase is retried once, as
        ``attempt(healed)`` — the path a healthy step takes, over the
        reconstructed bytes (``heal=False``: there is nothing to retry — the
        attempt only joins another query's decode, which has healed what it
        could). A step that stays unreadable raises; under
        ``partial`` it fails the single-flight futures this query owns for
        it, is recorded in ``info.missing``, and yields ``None``."""
        healed = None
        while True:
            try:
                return await attempt(healed)
            except (StorageError, FormatError) as exc:
                failure = exc
            if healed is not None or not heal:
                break
            healed = await self._source.heal(step, info)
            if healed is None:
                break
        if not partial:
            raise failure
        if owned:
            self._fail_owned(owned, failure, step)
        if not any(m["step"] == step for m in info.missing):
            info.missing.append({
                "step": step,
                "file": self._segments[step][0],
                "error": type(failure).__name__,
                "detail": str(failure),
            })
        return None

    async def _gather(
        self, steps, levels, fields, patches, verify: bool,
        info: QueryInfo, owned: dict | None = None, partial: bool = False,
    ) -> tuple[dict, dict, list[tuple[_StepCatalog, StepPlan]]]:
        """Walk the selection: serve cache hits, join in-flight decodes
        another query already started (``waits``, by step; counted as hits
        — they cost this query no bytes), and plan the true misses. With
        ``owned``, each planned patch registers a single-flight future
        there (and in ``_inflight``) that the caller MUST resolve or fail;
        ``owned=None`` (the ``plan()`` path) skips the single-flight table.
        ``hits`` comes back in result-key order (steps ascending, each
        catalog's picks sorted only when ``_StepCatalog.keys`` found the
        catalog out of key order), so an all-hit reply is ``hits`` itself. A fully cached step costs no
        ``await``, one catalog lookup and one cache walk; an unreadable
        catalog or group header goes through :meth:`_fail_over`."""
        want_steps = _normalize_selector(steps, "step")
        want = _selection(levels, fields, patches)
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
            picked = cat.reader.lookup(*want)
            keys, pkeys, ordered = cat.keys(verify)
            if not ordered:
                picked.sort(key=keys.__getitem__)
            info.keys += len(picked)
            missed_at = (
                picked if self._cache is None
                else self._cache.collect(picked, pkeys, keys, hits)
            )
            info.cache_hits += len(picked) - len(missed_at)
            if not missed_at:
                continue
            misses: list[PatchIndexEntry] = []
            for i in missed_at:
                key, pkey = keys[i], pkeys[i]
                if owned is not None:
                    pending = self._inflight.get(pkey)
                    if pending is not None:
                        waits.setdefault(s, []).append((key, pending))
                        info.cache_hits += 1
                        continue
                    fut = asyncio.get_running_loop().create_future()
                    self._inflight[pkey] = fut
                    owned[key] = (pkey, fut)
                misses.append(cat.reader.entries[i])
                info.cache_misses += 1
            if misses:
                missed.append((s, cat, misses))
        # Plan only once every miss of the selection is registered: loading
        # a step's group headers awaits, and a query walking meanwhile must
        # find the later steps' decodes in flight too.
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

    async def plan(
        self, steps=None, levels=None, fields=None, patches=None,
        verify: bool = True,
    ) -> QueryPlan:
        """The :class:`~repro.serve.planner.QueryPlan` the next ``query``
        with these selectors would execute — cache-hit patches are
        excluded (they cost no bytes). Loads (and caches) the needed
        segment catalogs and group headers, but fetches no payload."""
        self._check_open()
        info = QueryInfo()
        _, _, work = await self._gather(
            steps, levels, fields, patches, verify, info
        )
        return QueryPlan(steps=[plan for _, plan in work])

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    async def _execute(
        self, healed: _StepCatalog | None, cat: _StepCatalog, plan: StepPlan,
        verify: bool, info: QueryInfo,
    ) -> dict[tuple, np.ndarray]:
        """Fetch and decode one step's plan (a :meth:`_fail_over` attempt:
        after a heal the step's bytes are the reconstruction, so the same
        entries are planned again, against it)."""
        if healed is not None:
            cat, plan = await self._plan_misses(
                healed, [e for b in plan.batches for e in b.entries],
                verify, info,
            )
        blobs = await self._source.fetch(cat, plan.reads, info)
        copy = self._pool.mode == "process"
        data: dict[tuple, Any] = {
            (e.key, e.kind): b"" for e in plan.extents
        }
        for r, blob in zip(plan.reads, blobs):
            if len(blob) != r.length:
                raise FormatError(
                    f"{plan.file}: ranged read at {r.offset} returned "
                    f"{len(blob)} of {r.length} bytes (truncated?)"
                )
            view = blob if copy else memoryview(blob)
            for ext in r.extents:
                lo = ext.offset - r.offset
                data[(ext.key, ext.kind)] = view[lo : lo + ext.length]
        # One decode task per step plan: every missed patch of the step,
        # grouped or not, rides the same lockstep entropy pass.
        keys, members, extents = [], [], []
        for batch in plan.batches:
            handle = codebook = None
            if batch.group is not None:
                handle = cat.reader.group(batch.group, verify=False)
                codebook = handle.codebook_bytes if copy else handle.codebook
            for e in batch.entries:
                key = (plan.step, e.level, e.field, e.patch)
                keys.append(key)
                shared = payload_crc = None
                if handle is not None:
                    shared = SharedEntropy(codebook, data[(key, "group_payload")])
                    payload_crc = handle.member_extent(e.member)[2] if verify else None
                members.append((e.key, e.codec, data[(key, "stream")], shared))
                extents.append((e.length, e.crc32 if verify else None, payload_crc))
        try:
            arrays = await asyncio.wrap_future(self._pool.submit(_decode_run, (members, extents)))
        except ReproError:
            raise
        except Exception as exc:  # a broken pool: at submit time, or in the worker
            raise self._pool_failure_error(exc) from exc
        return dict(zip(keys, arrays))

    def _check_open(self) -> None:
        if self._closed:
            raise ServeError("query service is closed")

    def _fail_owned(
        self, owned: dict, exc: BaseException, step: int | None = None
    ) -> None:
        """Fail the single-flight futures this query registered — all of
        them, or (degraded mode) only those of one unservable ``step``,
        leaving the surviving steps' futures to resolve normally — so
        queries waiting on a shared decode see the error instead of
        hanging; the cache is never populated on this path."""
        for key in [k for k in owned if step is None or k[0] == step]:
            pkey, fut = owned.pop(key)
            self._inflight.pop(pkey, None)
            if not fut.done():
                fut.set_exception(exc)
                fut.exception()  # mark retrieved: waiters may be gone

    async def query_info(
        self,
        steps=None,
        levels=None,
        fields=None,
        patches=None,
        region=None,
        verify: bool = True,
        timeout: float | None = None,
        deadline: float | None = None,
        partial: bool = False,
    ) -> tuple[dict[tuple, np.ndarray], QueryInfo]:
        """:meth:`query`, plus this query's :class:`QueryInfo` accounting."""
        self._check_open()
        dl = Deadline.of(timeout, deadline, self._clock)
        try:
            await self._admission.acquire_slot(dl)
        except DeadlineExceeded:
            self._stats["deadline_exceeded"] += 1
            raise
        start = self._clock()
        try:
            coro = self._query_admitted(
                steps, levels, fields, patches, region, verify, dl, partial
            )
            if dl is None:
                return await coro
            try:
                return await asyncio.wait_for(coro, dl.remaining())
            except asyncio.TimeoutError:
                self._stats["deadline_exceeded"] += 1
                what = (
                    f"its {timeout}s timeout" if timeout is not None
                    else "its deadline"
                )
                raise DeadlineExceeded(
                    f"query exceeded {what}; outstanding work was "
                    "cancelled — an immediate retry is safe"
                ) from None
        finally:
            self._admission.release_slot()
            self._admission.note_duration(self._clock() - start)

    async def _query_admitted(
        self, steps, levels, fields, patches, region, verify,
        dl: Deadline | None, partial: bool,
    ) -> tuple[dict[tuple, np.ndarray], QueryInfo]:
        """The admitted query body; runs under the deadline's ``wait_for``
        (cancellation lands at any await — catalog loads, planner fetches,
        decode waits — and is converted to ``DeadlineExceeded`` by the
        caller)."""
        info = QueryInfo(partial=partial)
        owned: dict[tuple, tuple[tuple, asyncio.Future]] = {}
        try:
            hits, waits, work = await self._gather(
                steps, levels, fields, patches, verify, info, owned, partial
            )
            executed = ()
            if work:  # a warm query reserves nothing and gathers nothing
                # Reserve the planned fetch bytes against the admission
                # byte budget for the duration of execution.
                reserved = await self._admission.reserve_bytes(
                    sum(plan.fetched_bytes for _, plan in work), dl
                )
                try:
                    executed = await asyncio.gather(
                        *[
                            self._fail_over(
                                plan.step,
                                lambda healed, cat=cat, plan=plan: self._execute(
                                    healed, cat, plan, verify, info
                                ),
                                info, owned, partial,
                            )
                            for cat, plan in work
                        ],
                        # Collect every step's outcome: one step's failure
                        # must not abandon the others mid-decode.
                        return_exceptions=True,
                    )
                finally:
                    self._admission.release_bytes(reserved)
                for res in executed:
                    if isinstance(res, BaseException):
                        raise res
        except BaseException as exc:
            fail = exc
            if self._closed:  # close() cancelled our queued decode; the caller did not
                fail = ServeError("query service is closed")
            elif (
                isinstance(exc, asyncio.CancelledError)
                and dl is not None
                and dl.expired()
            ):
                # Waiters sharing our single-flight decodes get a typed,
                # retry-safe error instead of a bare cancellation.
                fail = DeadlineExceeded(
                    "owning query's deadline expired before the shared "
                    "decode finished; retry to restart it"
                )
            self._fail_owned(owned, fail)
            if self._closed:
                raise fail from None
            raise
        results = hits
        for sub in executed:
            for key, arr in (sub or {}).items():  # None: reported missing
                arr.setflags(write=False)
                pkey, fut = owned.pop(key)
                self._inflight.pop(pkey, None)
                if self._cache is not None:
                    self._cache.put(pkey, arr, arr.nbytes)
                if not fut.done():
                    fut.set_result(arr)
                results[key] = arr
        # Anything still owned was planned but never decoded (can't
        # happen in a healthy plan; never leave waiters wedged on it).
        if owned:
            self._fail_owned(
                owned, ServeError("planned patch was not decoded")
            )
        for step, pairs in waits.items():

            # kept: waits on another query's decode without cancelling it (single flight)
            async def join(_, pairs=pairs):
                # shield: our cancellation (deadline) must not cancel the
                # owning query's decode out from under its other waiters.
                return await asyncio.gather(
                    *[asyncio.shield(fut) for _, fut in pairs]
                )

            joined = await self._fail_over(
                step, join, info, None, partial, heal=False
            )
            if joined is not None:
                results.update(zip((key for key, _ in pairs), joined))
        self._stats["queries"] += 1
        self._stats["patches_served"] += len(results)
        self._stats["cache_hits"] += info.cache_hits
        self._stats["cache_misses"] += info.cache_misses
        self._stats["extent_bytes"] += info.extent_bytes
        self._stats["group_batches"] += info.group_batches
        if partial:
            self._stats["partial_queries"] += 1
        if work or waits:  # decoded or joined keys merge into the hits' order
            results = {key: results[key] for key in sorted(results)}
        if region is not None:
            results = {
                key: _apply_region(arr, region, key) for key, arr in results.items()
            }
        return results, info

    async def query(
        self,
        steps=None,
        levels=None,
        fields=None,
        patches=None,
        region=None,
        verify: bool = True,
        timeout: float | None = None,
        deadline: float | None = None,
        partial: bool = False,
    ) -> dict[tuple, np.ndarray]:
        """Decompress the selection; results keyed ``(step, level, field,
        patch)`` and byte-identical to
        :func:`repro.compression.amr_codec.decompress_selection` on the
        same source. ``region`` is an optional per-axis ``(lo, hi)`` tuple
        sliced out of every selected patch after decode. Arrays are
        read-only (shared with the cache); ``.copy()`` to mutate.

        ``timeout`` (seconds from now) / ``deadline`` (absolute
        ``time.monotonic()`` value) bound the whole query — expiry raises
        :class:`~repro.errors.DeadlineExceeded` and cancels the query's
        outstanding work without poisoning the cache or the single-flight
        table. ``partial=True`` serves *around* dead shards: surviving
        steps come back normally and the per-step failures are reported
        in :class:`QueryInfo` ``.missing`` (use :meth:`query_info` to see
        it). When the campaign carries parity (and ``heal=True``), a dead
        or corrupt shard is first reconstructed from the surviving shards
        — the query then completes *without* degrading, and the
        reconstruction shows up in ``stats["repairs"]`` /
        :attr:`QueryInfo.repairs`. Under overload, admission control may
        shed the query with :class:`~repro.errors.Overloaded` before any
        work happens.
        """
        out, _ = await self.query_info(
            steps=steps, levels=levels, fields=fields, patches=patches,
            region=region, verify=verify, timeout=timeout, deadline=deadline,
            partial=partial,
        )
        return out


class InProcessClient:
    """Synchronous facade running a :class:`QueryService` on its own
    event-loop thread — the in-process client tests, benchmarks, and
    plain multi-threaded callers use. Thread-safe: any thread may call
    :meth:`query` concurrently; coroutines are marshalled to the service
    loop, which is where all shared state lives.

    .. code-block:: python

        from repro.serve import InProcessClient

        with InProcessClient("run.rph2s") as client:
            patch = client.query(steps=3, levels=1, fields="f", patches=0)
    """

    def __init__(self, source: str | Path | QueryService, **kwargs):
        if isinstance(source, QueryService):
            if kwargs:
                raise ServeError(
                    "pass service options only when the client builds the "
                    "service (got a QueryService plus keyword options)"
                )
            self._service = source
            self._owns = False
        else:
            self._service = QueryService(source, **kwargs)
            self._owns = True
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="repro-serve-client", daemon=True
        )
        self._thread.start()
        self._closed = False

    # kept: the synchronous client's view of its service
    @property
    def service(self) -> QueryService:
        """The underlying service (read its ``steps``/``fields``/...)."""
        return self._service

    def _run(self, coro):
        if self._closed:
            raise ServeError("in-process client is closed")
        return asyncio.run_coroutine_threadsafe(coro, self._loop).result()

    # kept: the synchronous client's query
    def query(self, **selectors) -> dict[tuple, np.ndarray]:
        """Synchronous :meth:`QueryService.query`."""
        return self._run(self._service.query(**selectors))

    def query_info(self, **selectors):
        """Synchronous :meth:`QueryService.query_info`."""
        return self._run(self._service.query_info(**selectors))

    # kept: the synchronous client's plan
    def plan(self, **selectors) -> QueryPlan:
        """Synchronous :meth:`QueryService.plan`."""
        return self._run(self._service.plan(**selectors))

    def stats(self) -> dict:
        """Service counter snapshot, taken on the service loop."""

        async def snap() -> dict:
            return self._service.stats

        return self._run(snap())

    def close(self) -> None:
        """Drain, close the service (if owned), and stop the loop thread."""
        if self._closed:
            return

        async def shutdown() -> None:
            if self._owns:
                self._service.close()

        try:
            asyncio.run_coroutine_threadsafe(shutdown(), self._loop).result()
        finally:
            self._closed = True
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join()
            self._loop.close()

    def __enter__(self) -> "InProcessClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
