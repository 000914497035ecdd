"""Where a step's bytes come from — and what happens when they can't be read.

:class:`StepSource` decides the bytes; :class:`~repro.serve.service.QueryService`
decides the work. The source owns everything between a step number and the
bytes that serve it:

* **the step table** — one harvest of the opened RPH2 snapshot, RPH2S series
  or RPHM campaign into ``step -> (file, offset, length)``. A campaign with a
  dead or truncated shard still harvests when it carries parity: the extents
  of the steps it lost come from the parity stripe indexes
  (:meth:`SegmentHealer.segments <repro.integrity.SegmentHealer.segments>`);
* **the one backend read** — :meth:`StepSource.read`, through one shared
  handle per file. Catalog parses, group-header loads, payload fetches and the
  parity healer's stripe reads all end there, so all of them are counted and
  all of them feed the per-file circuit breakers;
* **catalogs** — each step's parsed segment index and the group headers
  loaded through it, parsed once under a per-step lock and kept in one
  per-step table for the source's life, whatever the service's
  ``cache_bytes``: a repeat query of a step parses nothing;
* **healing** — :meth:`StepSource.heal` reconstructs an unreadable step's
  segment from the surviving shards, once, and installs an ordinary catalog
  whose reader and payload reads are over the reconstructed bytes, in the
  same table: a repeat query reconstructs nothing.

The source also counts what it reads, on the asking query's ``QueryInfo`` and
in its own running totals (:attr:`StepSource.spent`): a step's planned payload
reads are ``fetched_bytes`` / ``ranged_reads``; everything else — catalog and
group-header parses, and every byte the healer reads — is ``meta_bytes``,
failed reads included; a healed step's payload reads are slices of memory and
count as no backend bytes at all.
"""

from __future__ import annotations

import asyncio
import threading
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.compression.container import ContainerReader
from repro.door import kind_of, open as open_any
from repro.errors import FormatError, IntegrityError, ReproError, StorageError
from repro.integrity import SegmentHealer
from repro.serve.resilience import CircuitBreaker
from repro.storage import ByteSource, StorageBackend

__all__ = ["StepSource"]


class _ThreadBytes(threading.local):
    """Bytes :meth:`StepSource.read` returned on this thread since
    :meth:`StepSource._run` last zeroed the count."""

    n = 0


class _CountedFile:
    """The file-like a :class:`~repro.storage.ByteSource` sits on so that
    each of its reads is one :meth:`StepSource.read`. ``size`` is where the
    file is taken to end."""

    def __init__(self, source: "StepSource", file: str, size: int):
        self._source = source
        self._file = file
        self._size = size
        self._pos = 0

    def seek(self, pos: int, whence: int = 0) -> int:
        self._pos = pos + (self._size if whence == 2 else 0)
        return self._pos

    def tell(self) -> int:
        return self._pos

    def read(self, size: int) -> bytes:
        return self._source.read(self._file, self._pos, size)

    def close(self) -> None:
        """The handle underneath is the source's, shared and kept."""


class _CountedBackend:
    """What the parity healer sees as storage: every file it opens reads
    through :meth:`StepSource.read` (shared handles, counted); everything
    else — the write-back surface — is the real backend's."""

    def __init__(self, source: "StepSource"):
        self._source = source

    def open_read(self, name: str) -> _CountedFile:
        return _CountedFile(self._source, name, self.size(name))

    def __getattr__(self, name: str):
        return getattr(self._source.backend, name)


@dataclass
class _StepCatalog:
    """One step's parsed segment index and where its bytes live."""

    file: str
    step: int
    base: int
    reader: ContainerReader
    #: A healed step's parity-reconstructed segment, which its reader and
    #: payload reads are over; ``None`` for a step read from its file.
    blob: bytes | None = None
    _keys: dict = field(default_factory=dict, repr=False)

    def keys(self, verify: bool) -> tuple[list[tuple], list[tuple], bool]:
        """Per catalog entry, in catalog order: its result key ``(step,
        level, field, patch)`` and its decoded-patch cache key; and whether
        the catalog lists its entries in result-key order, as every catalog
        a writer wrote does. Built once per ``verify`` flag, and gone with
        the catalog."""
        out = self._keys.get(verify)
        if out is None:
            s, file, entries = self.step, self.file, self.reader.entries
            keys = [(s, e.level, e.field, e.patch) for e in entries]
            out = self._keys[verify] = (
                keys,
                [("patch", file, s, e.level, e.field, e.patch, verify) for e in entries],
                all(a <= b for a, b in zip(keys, keys[1:])),
            )
        return out


class StepSource:
    """The bytes behind one opened snapshot / series / campaign.

    Built (and closed) by :class:`~repro.serve.service.QueryService`, which
    passes its own options through and reports :attr:`spent` in its
    ``stats``. The coroutines run on the service's event loop; :meth:`read`
    runs on any thread.
    """

    def __init__(
        self,
        path: str,
        backend: StorageBackend,
        *,
        recover: bool,
        heal: bool,
        heal_write_back: bool,
        breaker_threshold: int | None,
        breaker_cooldown: float,
        clock: Callable[[], float],
    ):
        self.path = str(path)
        self.backend = backend
        #: step -> its parsed (or healed) catalog, kept for the source's life.
        self._catalogs: dict[int, _StepCatalog] = {}
        self._heal = bool(heal)
        self._write_back = bool(heal_write_back)
        self._breaker_threshold = breaker_threshold
        self._breaker_cooldown = float(breaker_cooldown)
        self._clock = clock
        #: Running totals of what :meth:`_count` put on queries' accounts.
        self.spent = dict.fromkeys(
            ("fetched_bytes", "meta_bytes", "ranged_reads", "repairs"), 0
        )
        self._thread = _ThreadBytes()
        self.breakers: dict[str, CircuitBreaker] = {}
        #: Files whose read just raised a StorageError, noted by whichever
        #: thread saw it; the event loop drains them onto the breakers.
        self._faults: list[str] = []
        self._handles: dict[str, tuple] = {}
        self._opening = threading.Lock()
        self._locks: dict[int, asyncio.Lock] = {}
        #: step -> (file, segment offset, segment length)
        self.segments: dict[int, tuple[str, int, int]] = {}
        self.meta: dict = {}
        self.recovered = False
        #: The one healer of a parity-carrying campaign (parity indexes
        #: parsed once), reading through :meth:`read`; reconstructions take
        #: turns on its shared handles.
        self._healer: SegmentHealer | None = None
        self._healing = threading.Lock()
        self._harvest(recover)

    # ------------------------------------------------------------------
    # The step table
    # ------------------------------------------------------------------
    def _harvest(self, recover: bool) -> None:
        """Read the source's step table and metadata once, then let go of
        the reader — every later byte is a planned, counted read."""
        # The open failure a parity-carrying campaign is served around.
        degraded: Exception | None = None
        try:
            reader = open_any(self.path, backend=self.backend, recover=recover)
        except (StorageError, FormatError) as exc:
            # A campaign with a damaged shard cannot federate the normal
            # way — but if it carries parity, the salvage open serves what
            # is readable, the steps it lost are recorded in the parity
            # stripe indexes, and their bytes heal on first touch.
            if not self._heal or kind_of(self.path, backend=self.backend) != "campaign":
                raise
            degraded = exc
            reader = open_any(self.path, backend=self.backend, recover=True)
            if not reader.parity:
                reader.close()
                raise
        with reader:
            #: What was opened: ``"snapshot"``, ``"series"`` or ``"campaign"``.
            self.kind = reader.kind
            self.meta = reader.meta()
            if self.kind == "snapshot":
                self.segments[0] = (self.path, 0, self.backend.size(self.path))
                return
            salvage = reader.recovery if degraded is not None else None
            self.recovered = recover and bool(
                salvage.shards if salvage else reader.recovered
            )
            if self.kind == "campaign" and reader.parity:
                self._healer = SegmentHealer(
                    self.path, reader.parity, _CountedBackend(self)
                )
            for e in reader.step_entries:
                file = reader.shard_of(e.step) if self.kind == "campaign" else self.path
                self.segments[e.step] = (file, e.offset, e.length)
        if salvage:
            # Every shard the salvage open cut short or dropped outright.
            damaged = [*salvage.shards, *(name for name, _ in salvage.dropped)]
            try:
                for name in damaged:
                    for step, offset, length in self._healer.segments(name):
                        self.segments.setdefault(step, (name, offset, length))
            except IntegrityError:
                raise degraded from None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        for handle, _ in self._handles.values():
            try:
                handle.close()
            except Exception:
                pass
        self._handles.clear()

    # ------------------------------------------------------------------
    # The one read, and the breakers it feeds
    # ------------------------------------------------------------------
    def read(self, file: str, offset: int, length: int) -> bytes:
        """The one backend read (any thread): ``length`` bytes at ``offset``
        through the file's shared handle, opened on first use, added to the
        calling thread's byte count. A :class:`~repro.errors.StorageError`
        — a failed open included — is noted against the file's circuit
        breaker."""
        try:
            pair = self._handles.get(file)
            if pair is None:
                with self._opening:
                    pair = self._handles.get(file)
                    if pair is None:
                        pair = (self.backend.open_read(file), threading.Lock())
                        self._handles[file] = pair
            handle, lock = pair
            with lock:
                handle.seek(offset)
                blob = handle.read(length)
        except StorageError:
            self._faults.append(file)
            raise
        self._thread.n += len(blob)
        return blob

    def _breaker(self, file: str) -> CircuitBreaker | None:
        """This file's circuit breaker (lazily created; ``None`` when
        breakers are disabled). Only :class:`~repro.errors.StorageError`
        counts as a failure — a :class:`~repro.errors.FormatError` means
        the *data* is bad, not the backend."""
        if self._breaker_threshold is None:
            return None
        b = self.breakers.get(file)
        if b is None:
            b = self.breakers[file] = CircuitBreaker(
                self._breaker_threshold, self._breaker_cooldown, self._clock
            )
        return b

    def _count(self, info, **spent: int) -> None:
        """Put what was just spent on the query's account and the totals."""
        for name, n in spent.items():
            setattr(info, name, getattr(info, name) + n)
            self.spent[name] += n

    async def _run(
        self, info, job, *args,
        guard: str | None = None, what: str = "", spend: str = "meta_bytes",
    ):
        """Run one blocking read job on the executor and return its result.
        Every byte the job's thread pulls through :meth:`read` — whichever
        window, catalog or healer asked — is counted as ``info.<spend>``,
        also when the job fails. With ``guard`` the job runs under that
        file's breaker: fast-failed while it is open, its success when it
        completes. Whatever files' reads raised meanwhile (the healer reads
        many in one job) get the failure on their own breakers."""
        breaker = None if guard is None else self._breaker(guard)
        if breaker is not None:
            breaker.check(what)
        nbytes = 0

        def counted():
            nonlocal nbytes
            self._thread.n = 0
            try:
                return job(*args)
            finally:
                nbytes = self._thread.n

        try:
            out = await asyncio.get_running_loop().run_in_executor(None, counted)
        finally:
            self._count(info, **{spend: nbytes})
            while self._faults:
                failed = self._breaker(self._faults.pop())
                if failed is not None:
                    failed.record_failure()
        if breaker is not None:
            breaker.record_success()
        return out

    def _lock(self, step: int) -> asyncio.Lock:
        return self._locks.setdefault(step, asyncio.Lock())

    # ------------------------------------------------------------------
    # Catalogs and group headers
    # ------------------------------------------------------------------
    def cached(self, step: int) -> _StepCatalog | None:
        """The step's catalog if it is already loaded (or healed)."""
        return self._catalogs.get(step)

    async def load_catalog(self, step: int, info) -> _StepCatalog:
        """Parse the step's segment footer and index — once: concurrent
        queries wait on the step's lock and find the catalog kept."""
        file, base, length = self.segments[step]
        async with self._lock(step):
            cat = self.cached(step)
            if cat is not None:
                return cat
            window = ByteSource(_CountedFile(self, file, base + length)).window(base, length)
            try:
                reader = await self._run(
                    info, ContainerReader, window,
                    guard=file, what=f"step {step} catalog ({file})",
                )
            except FormatError as exc:
                raise FormatError(f"step {step} segment: {exc}") from exc
            cat = self._catalogs[step] = _StepCatalog(file, step, base, reader)
            return cat

    async def load_groups(
        self, cat: _StepCatalog, gids: Sequence[int], verify: bool, info
    ) -> None:
        """Ensure every needed group header (codebook + extent table) is
        parsed on the catalog (and kept with it)."""
        if not gids:
            return

        def load() -> None:
            for gid in gids:
                # parse the decode tables now; immutable afterwards, so
                # worker threads only read them
                cat.reader.group(gid, verify=verify).codebook

        async with self._lock(cat.step):
            await self._run(
                info, load, guard=cat.file if cat.blob is None else None,
                what=f"step {cat.step} group headers ({cat.file})",
            )

    # ------------------------------------------------------------------
    # Payload
    # ------------------------------------------------------------------
    async def fetch(self, cat: _StepCatalog, reads, info) -> list[bytes]:
        """The bytes of one step's coalesced reads, in plan order: one
        executor job under the file's breaker — or, for a healed step,
        slices of the reconstructed segment."""
        if cat.blob is not None:
            return [
                cat.blob[r.offset - cat.base : r.offset - cat.base + r.length]
                for r in reads
            ]
        self._count(info, ranged_reads=len(reads))
        return await self._run(
            info, lambda: [self.read(cat.file, r.offset, r.length) for r in reads],
            guard=cat.file, what=f"step {cat.step} payload ({cat.file})",
            spend="fetched_bytes",
        )

    # ------------------------------------------------------------------
    # Parity self-healing
    # ------------------------------------------------------------------
    async def heal(self, step: int, info) -> _StepCatalog | None:
        """Reconstruct an unreadable step's segment from the surviving
        shards (checksum-proven by :class:`~repro.integrity.SegmentHealer`
        before anything trusts it) and return a catalog over the
        reconstruction — the kept one when a concurrent query just healed
        the step. ``None`` when it cannot be healed (healing off, no parity,
        two members of the stripe lost, a survivor failing its checksum):
        the caller falls back to its ordinary failure path."""
        if not self._heal or self._healer is None:
            return None
        file, base, length = self.segments[step]
        async with self._lock(step):
            cat = self.cached(step)
            if cat is not None and cat.blob is not None:
                return cat
            try:
                cat = await self._run(
                    info, self._reconstruct, file, step, base, length
                )
            except (ReproError, OSError):
                return None
            self._count(info, repairs=1)
            self._catalogs[step] = cat
            return cat

    def _reconstruct(
        self, file: str, step: int, base: int, length: int
    ) -> _StepCatalog:
        """Executor side of :meth:`heal`."""
        with self._healing:
            member, blob = self._healer.heal(file, step)
            if self._write_back:
                self._healer.write_back(file, member, blob)
        # The stripe member spans segment + seal; the RPH2 container ends
        # at the seal boundary.
        blob = blob[:length]
        return _StepCatalog(file, step, base, ContainerReader(blob), blob)
