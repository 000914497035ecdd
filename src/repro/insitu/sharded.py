"""Sharded multi-writer campaigns: N shard files + one RPHM manifest.

The paper's in-situ setting is many ranks each writing their own file.
This module fans a campaign out across ``N`` shard files — one serial
:class:`~repro.insitu.writer.StreamingWriter` per shard, each strictly
append-ordered. With ``parallel="thread"`` the whole campaign shares
**one** thread-mode :class:`~repro.parallel.WorkerPool` (one lane): the caller
gets its thread back while steps encode in arrival order behind it. That
buys asynchrony, not multi-core encode — two encoding threads trade the
interpreter lock between sub-millisecond NumPy/zlib calls for longer than
they overlap (``docs/performance.md``, "Writer lane"). The shards are federated
behind a small crc-protected **RPHM manifest**:

.. code-block:: text

    offset 0   magic    b"RPHM"                                  (4 bytes)
    offset 4   u8       manifest version (currently 1)
    offset 5   u32      body length
    offset 9   body: JSON document (see below)
    ...        u32      crc32(body)

Manifest body schema (JSON)::

    {
      "format": "rphm", "version": 1, "final": bool,
      "codec": str, "error_bound": float, "mode": str,
      "fields": [str, ...], "exclude_covered": bool,
      "shards": [{"name": str, "durability": str,
                  "steps": [int, ...]}, ...],
      "parity": [{"name": str, "group": int, "members": [str, ...],
                  "stripes": int, "bytes": int}, ...]   # optional
    }

The optional ``parity`` list (written by campaigns created with
``parity=p`` > 0) records the XOR parity shards
(:mod:`repro.integrity.parity`) protecting the data shards, with
byte-overhead accounting (``bytes`` is each parity file's total size).
Readers ignore it; :func:`repro.integrity.repair_sharded` and the
self-healing serving path use it to locate redundancy.

Shard ``name`` is a basename; shards always live next to the manifest
(``<stem>.shard<k:03d>.rph2s``). The manifest is written twice: once at
:meth:`ShardedSeriesWriter.create` with ``final=false`` (so a killed
campaign still names its shards for recovery) and once at
:meth:`~ShardedSeriesWriter.close` with ``final=true`` and the full step
routing, in place over the first. Each shard is an ordinary,
self-contained RPH2S series — every durability/seal/recovery property of
the single-writer format holds per shard.

Reading is transparent: ``repro.open`` (and :meth:`SeriesReader.open`, its
typed special case) sniffs the RPHM magic and returns a
:class:`ShardedSeriesReader`, which exposes the
single-series API over the union of the per-shard timestep indexes and
routes each step to its owning shard — ``decompress_selection(steps=...)``
still reads O(selection) bytes. Crash recovery runs *per shard*
(:func:`recover_sharded`): ``scan_segments`` salvages each shard
independently and the manifest is rebuilt from the surviving indexes, so
killing one shard's writer mid-step cannot touch the other shards' steps.
"""

from __future__ import annotations

import json
import os
import struct
import time as _time
import zlib
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

from repro.compression.amr_codec import resolve_patch_codec
from repro.compression.container import ContainerReader
from repro.errors import (
    CompressionError,
    FormatError,
    StorageError,
    TransientStorageError,
    TruncatedSeriesError,
)
from repro.insitu.series import (
    _SERIES_META_KEYS,
    SEAL_SIZE,
    SeriesReader,
    SeriesStepEntry,
    _SeriesView,
    extract_series_meta,
)
from repro.insitu.writer import (
    DURABILITY_MODES,
    StreamingWriter,
    _validate_field_bounds,
    _validate_fields,
)
from repro.parallel.pool import WorkerPool
from repro.storage import ByteSink, ByteSource, LocalFileBackend, StorageBackend

__all__ = [
    "MANIFEST_MAGIC",
    "MANIFEST_VERSION",
    "ShardedSeriesWriter",
    "ShardedSeriesReader",
    "ShardedRecoveryReport",
    "pack_manifest",
    "parse_manifest",
    "shard_names",
    "recover_sharded",
]

MANIFEST_MAGIC = b"RPHM"
MANIFEST_VERSION = 1
_MANIFEST_HEAD = struct.Struct("<4sBI")
_MANIFEST_CRC = struct.Struct("<I")
#: First backoff (seconds) before retrying a transient append fault; it
#: doubles per attempt.
_RETRY_DELAY = 0.05

_RECOVERY_HINT = (
    "; surviving shards are recoverable: run `python -m repro.compression "
    "recover <manifest>` or open with SeriesReader.open(..., recover=True)"
)


def shard_names(manifest: str | Path, n_shards: int) -> list[str]:
    """Full shard object names for a manifest name (same directory)."""
    root, _ = os.path.splitext(str(manifest))
    return [f"{root}.shard{k:03d}.rph2s" for k in range(n_shards)]


def pack_manifest(
    meta: dict,
    shards: list[dict],
    final: bool,
    parity: list[dict] | None = None,
) -> bytes:
    """Serialize an RPHM manifest (head + JSON body + body crc)."""
    doc = {
        "format": "rphm",
        "version": MANIFEST_VERSION,
        "final": bool(final),
        "codec": str(meta["codec"]),
        "error_bound": float(meta["error_bound"]),
        "mode": str(meta["mode"]),
        "fields": list(meta["fields"]),
        "exclude_covered": bool(meta["exclude_covered"]),
    }
    if meta.get("field_bounds"):
        doc["field_bounds"] = {
            str(k): float(v) for k, v in sorted(meta["field_bounds"].items())
        }
    doc.update({
        "shards": [
            {
                "name": str(s["name"]),
                "durability": str(s["durability"]),
                "steps": [int(n) for n in s["steps"]],
            }
            for s in shards
        ],
    })
    if parity:
        doc["parity"] = [
            {
                "name": str(p["name"]),
                "group": int(p["group"]),
                "members": [str(m) for m in p["members"]],
                "stripes": int(p["stripes"]),
                "bytes": int(p["bytes"]),
            }
            for p in parity
        ]
    body = json.dumps(doc, separators=(",", ":")).encode()
    return (
        _MANIFEST_HEAD.pack(MANIFEST_MAGIC, MANIFEST_VERSION, len(body))
        + body
        + _MANIFEST_CRC.pack(zlib.crc32(body))
    )


def parse_manifest(blob: bytes) -> dict:
    """Parse and validate an RPHM manifest; returns the JSON body.

    Alien bytes raise :class:`~repro.errors.FormatError`; a manifest that
    is too short (down to an empty object or a torn magic) or fails its
    crc is classified as :class:`~repro.errors.TruncatedSeriesError` — the
    shards it referenced are still recoverable by discovery.
    """
    if len(blob) < len(MANIFEST_MAGIC) and MANIFEST_MAGIC.startswith(blob):
        raise TruncatedSeriesError(
            f"manifest magic torn to {len(blob)} bytes{_RECOVERY_HINT}"
        )
    if blob[: len(MANIFEST_MAGIC)] != MANIFEST_MAGIC:
        raise FormatError(
            f"not an RPHM manifest (magic {blob[:4]!r}, expected {MANIFEST_MAGIC!r})"
        )
    if len(blob) < _MANIFEST_HEAD.size:
        raise TruncatedSeriesError(
            f"manifest truncated to {len(blob)} bytes{_RECOVERY_HINT}"
        )
    _, version, body_len = _MANIFEST_HEAD.unpack_from(blob, 0)
    if version != MANIFEST_VERSION:
        raise FormatError(f"unsupported RPHM manifest version {version}")
    end = _MANIFEST_HEAD.size + body_len
    if len(blob) < end + _MANIFEST_CRC.size:
        raise TruncatedSeriesError(
            f"manifest body truncated ({len(blob)} bytes, need "
            f"{end + _MANIFEST_CRC.size}){_RECOVERY_HINT}"
        )
    body = blob[_MANIFEST_HEAD.size : end]
    (crc,) = _MANIFEST_CRC.unpack_from(blob, end)
    if zlib.crc32(body) != crc:
        raise TruncatedSeriesError(
            f"manifest checksum mismatch{_RECOVERY_HINT}"
        )
    try:
        man = json.loads(body.decode())
        if man["format"] != "rphm":
            raise FormatError(f"unexpected manifest format {man['format']!r}")
        for key in ("final", "shards", *_SERIES_META_KEYS):
            man[key]  # noqa: B018 - presence check
    except (json.JSONDecodeError, UnicodeDecodeError, KeyError, TypeError) as exc:
        raise TruncatedSeriesError(
            f"corrupt manifest body: {exc!r}{_RECOVERY_HINT}"
        ) from exc
    return man


def _shard_path(manifest: str | Path, basename: str) -> str:
    base_dir = os.path.dirname(str(manifest))
    return os.path.join(base_dir, basename) if base_dir else basename


def _discover(backend: StorageBackend, manifest_name: str) -> tuple[list[str], list[str]]:
    """A campaign's ``(shard names, parity names)`` as the naming
    convention finds them next to the manifest, each sorted."""
    root, _ = os.path.splitext(manifest_name)
    return (
        [n for n in backend.list(f"{root}.shard") if n.endswith(".rph2s")],
        [n for n in backend.list(f"{root}.parity") if n.endswith(".rpxp")],
    )


def _load_campaign(
    backend: StorageBackend, manifest_name: str, blob: bytes | None = None
) -> tuple[dict | None, list[str], list[str], Exception | None]:
    """Load the manifest, or discover the siblings.

    Returns ``(manifest, shard names, parity names, error)``. A manifest
    that reads and parses (from ``blob`` when the caller already holds its
    bytes) names its own files. One that does not comes back as ``None``
    with the :class:`~repro.errors.FormatError` or
    :class:`~repro.errors.StorageError` that said so, and the names are
    whatever :func:`_discover` finds. What a missing or non-final manifest
    means is the caller's policy.
    """
    try:
        if blob is None:
            with ByteSource.open(manifest_name, backend=backend) as src:
                blob = src.read(0, src.size)
        man = parse_manifest(blob)
    except (FormatError, StorageError) as exc:
        return (None, *_discover(backend, manifest_name), exc)
    return (
        man,
        [_shard_path(manifest_name, row["name"]) for row in man["shards"]],
        [_shard_path(manifest_name, row["name"]) for row in man.get("parity") or []],
        None,
    )


class ShardedSeriesWriter:
    """Fan an in-situ campaign out across N shard files.

    Each shard gets a serial :class:`~repro.insitu.writer.StreamingWriter`;
    in ``parallel="thread"`` mode one single-worker
    :class:`~repro.parallel.WorkerPool` lane runs every shard's appends, one
    at a time in arrival order, so the caller is not blocked by an encode
    and each shard file stays strictly append-ordered (one thread, not one
    per shard: no multi-core encode).
    Step numbers are globally strictly increasing; arrival order assigns
    shards round-robin unless the caller pins a shard (``shard=rank``),
    the MPI-style placement.

    Use :meth:`create`; the campaign is finalized by :meth:`close`, which
    drains the lane, closes every shard (writing its index/footer), and
    rewrites the RPHM manifest with ``final=true``.

    .. code-block:: python

        from repro.insitu.sharded import ShardedSeriesWriter

        with ShardedSeriesWriter.create("run.rphm", "sz-lr", 1e-3,
                                        n_shards=4) as w:
            for s in nyx_step_stream(16):
                w.append_step(s.hierarchy, time=s.time, step=s.index)
    """

    def __init__(
        self,
        path: str | Path,
        writers: list[StreamingWriter],
        lane: WorkerPool | None,
        durabilities: list[str],
        meta: dict,
        backend: StorageBackend,
        max_pending_steps: int,
        parity: int = 0,
        retries: int = 2,
        sleep=None,
    ):
        self._path = str(path)
        self._writers = writers
        self._lane = lane
        self._durabilities = durabilities
        self._meta = meta
        self._backend = backend
        self._max_pending = max_pending_steps
        self._parity = int(parity)
        self._retries = int(retries)
        self._sleep = sleep if sleep is not None else _time.sleep
        self._inflight: deque = deque()
        self._rr = 0
        self._next = 0
        self._n_steps = 0
        self._closed = False

    # ------------------------------------------------------------------
    # Construction / lifecycle
    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        path: str | Path,
        codec: str,
        error_bound: float,
        mode: str = "rel",
        n_shards: int = 4,
        fields: Sequence[str] | None = None,
        exclude_covered: bool = False,
        parallel: str = "thread",
        durability: str | Sequence[str] = "close",
        max_pending_steps: int | None = None,
        overwrite: bool = False,
        backend: StorageBackend | None = None,
        parity: int = 0,
        retries: int = 2,
        sleep=None,
        field_bounds=None,
    ) -> "ShardedSeriesWriter":
        """Create a fresh sharded campaign at manifest ``path``.

        ``field_bounds`` maps field names to per-field error bounds
        overriding ``error_bound`` (mixed-physics campaigns compress e.g.
        E and B fields at different tolerances); it is recorded in the
        manifest and every shard's series footer.

        ``durability`` is one mode for every shard, or a per-shard
        sequence (rank 0 can run ``"step"`` while bulk ranks run
        ``"none"``). ``parallel`` is ``"thread"`` (appends run in arrival
        order on one background lane) or ``"serial"`` (inline appends);
        both write the same bytes. With one lane a shard's writes no
        longer overlap another shard's encode, so on a ``backend`` with
        millisecond writes thread mode costs about what serial does
        (``docs/performance.md``, "Writer lane"). ``max_pending_steps``
        bounds the appends queued on the lane (default ``2 * n_shards``).

        ``parity=p`` (0 ≤ p ≤ n_shards) writes ``p`` XOR parity shards at
        :meth:`close` (:mod:`repro.integrity.parity`): data shard ``k``
        joins parity group ``k % p``, and any single lost or damaged
        segment per group is reconstructible bit-exactly
        (:func:`repro.integrity.repair_sharded`, or transparently by
        ``repro.serve``). Parity protects *finalized* campaigns; a
        campaign killed before close has no parity files and falls back
        to plain crash recovery.

        A :class:`~repro.errors.TransientStorageError` raised while
        appending a step is retried in place — partial segment bytes
        are rolled back and the append re-runs, up to ``retries`` extra
        attempts with exponential backoff starting at 0.05 s
        (``sleep`` is injectable for tests), which also delays
        the steps queued behind it — instead of failing the campaign.
        """
        n_shards = int(n_shards)
        if n_shards < 1:
            raise CompressionError(f"n_shards must be >= 1, got {n_shards}")
        parity = int(parity)
        if not 0 <= parity <= n_shards:
            raise CompressionError(
                f"parity must be between 0 and n_shards={n_shards}, got {parity}"
            )
        retries = int(retries)
        if retries < 0:
            raise CompressionError(f"retries must be >= 0, got {retries}")
        if parallel not in ("serial", "thread"):
            raise CompressionError(
                f"sharded parallel mode must be 'serial' or 'thread', got {parallel!r}"
            )
        if isinstance(durability, str):
            durabilities = [durability] * n_shards
        else:
            durabilities = [str(d) for d in durability]
            if len(durabilities) != n_shards:
                raise CompressionError(
                    f"per-shard durability needs {n_shards} entries, got "
                    f"{len(durabilities)}"
                )
        for d in durabilities:
            if d not in DURABILITY_MODES:
                raise CompressionError(
                    f"unknown durability mode {d!r} (have {DURABILITY_MODES})"
                )
        pending = 2 * n_shards if max_pending_steps is None else int(max_pending_steps)
        if pending < 1:
            raise CompressionError(
                f"max_pending_steps must be >= 1, got {max_pending_steps}"
            )
        # A codec or mode no shard writer would accept must not leave a
        # manifest (and the shards before the refusal) behind.
        if mode not in ("abs", "rel"):
            raise CompressionError(f"unknown error-bound mode {mode!r}")
        fields = _validate_fields(fields)
        # The campaign-wide bound itself (a "rel" one is scaled per patch).
        error_bound = resolve_patch_codec(codec).resolve_error_bound(None, error_bound, "abs")
        backend = backend or LocalFileBackend()
        manifest_name = str(path)
        names = shard_names(manifest_name, n_shards)
        meta = {
            "codec": str(codec),
            "error_bound": float(error_bound),
            "mode": str(mode),
            "fields": list(fields) if fields is not None else [],
            "exclude_covered": bool(exclude_covered),
        }
        field_bounds = _validate_field_bounds(field_bounds, fields)
        if field_bounds:
            meta["field_bounds"] = field_bounds
        if overwrite:
            # Shards and parity of an earlier campaign that this layout does
            # not name would be adopted by rediscovery once this manifest is
            # torn: remove them before the manifest names the new layout.
            from repro.integrity.parity import parity_names

            keep = {*names, *parity_names(manifest_name, parity)}
            for found in _discover(backend, manifest_name):
                for stale in found:
                    if stale not in keep:
                        backend.delete(stale)
        # Write the non-final manifest BEFORE any shard exists: a campaign
        # killed at any later point still names its shards for recovery.
        rows = [
            {"name": os.path.basename(n), "durability": d, "steps": []}
            for n, d in zip(names, durabilities)
        ]
        _write_manifest(
            backend, manifest_name, meta, rows, final=False, overwrite=overwrite
        )
        writers: list[StreamingWriter] = []
        try:
            for name, dur in zip(names, durabilities):
                writers.append(
                    StreamingWriter.create(
                        name, codec, error_bound, mode=mode, fields=fields,
                        exclude_covered=exclude_covered, overwrite=overwrite,
                        durability=dur, backend=backend,
                        field_bounds=field_bounds,
                    )
                )
        except Exception:
            for w in writers:
                w.abort()
            raise
        lane = WorkerPool("thread") if parallel == "thread" else None
        return cls(
            manifest_name, writers, lane, durabilities, meta, backend,
            pending, parity=parity, retries=retries, sleep=sleep,
        )

    def __enter__(self) -> "ShardedSeriesWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            try:
                self.close()
            except BaseException:
                self.abort()
                raise
        else:
            self.abort()

    # ------------------------------------------------------------------
    # Step protocol
    # ------------------------------------------------------------------
    @property
    def n_shards(self) -> int:
        """Number of shard files this campaign fans out across."""
        return len(self._writers)

    @property
    def n_steps(self) -> int:
        """Steps submitted so far: in flight, sealed or failed, either mode."""
        return self._n_steps

    @property
    def shards(self) -> tuple[str, ...]:
        """Full shard object names, in shard order."""
        return shard_names(self._path, self.n_shards)  # type: ignore[return-value]

    def append_step(
        self,
        hierarchy,
        time: float | None = None,
        step: int | None = None,
        shard: int | None = None,
    ) -> int:
        """Append one hierarchy as the next timestep; returns its number.

        ``shard`` pins the step to a shard (a rank id); otherwise arrival
        order assigns shards round-robin. In ``"thread"`` mode the append
        queues on the campaign's lane and this returns as soon as the
        in-flight window has room — a failed append surfaces on the next
        ``append_step`` / :meth:`flush` / :meth:`close`.
        """
        if self._closed:
            raise CompressionError("sharded writer is closed")
        if self._lane is not None:  # a lane failure burns no number or slot
            self._drain(self._max_pending - 1)
        n = self._next if step is None else int(step)
        if n < self._next:
            raise CompressionError(
                f"step numbers must be strictly increasing across the "
                f"campaign: got {n} after {self._next - 1}"
            )
        self._next = n + 1
        if shard is None:
            k = self._rr
            self._rr = (self._rr + 1) % self.n_shards
        else:
            k = int(shard)
            if not 0 <= k < self.n_shards:
                raise CompressionError(
                    f"shard {k} out of range (campaign has {self.n_shards})"
                )
        t = float(n) if time is None else float(time)
        self._n_steps += 1
        if self._lane is None:
            self._append_with_retry(k, hierarchy, t, n)
        else:
            self._inflight.append(
                self._lane.submit(self._append_with_retry, k, hierarchy, t, n)
            )
        return n

    def _append_with_retry(self, k: int, hierarchy, t: float, n: int):
        """Append step ``n`` on shard ``k``, retrying transient storage
        faults with bounded exponential backoff. A failed attempt, retried
        or not, leaves no byte in the shard: ``append_step`` rolls its
        partial segment back itself. Runs on the lane thread (or inline in
        serial mode), one step at a time."""
        writer = self._writers[k]
        attempt = 0
        while True:
            try:
                return writer.append_step(hierarchy, time=t, step=n)
            except TransientStorageError:
                if attempt >= self._retries:
                    raise
                self._sleep(_RETRY_DELAY * (2 ** attempt))
                attempt += 1

    def _drain(self, down_to: int) -> None:
        while len(self._inflight) > down_to:
            self._inflight.popleft().result()

    def flush(self) -> None:
        """Block until every in-flight append has been sealed on its shard
        (raising the first lane failure, if any)."""
        self._drain(0)

    # ------------------------------------------------------------------
    # Finalization
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Drain the lane, close every shard (index + footer), and write
        the final manifest. The campaign is not readable until this runs
        (except through recovery)."""
        if self._closed:
            return
        self.flush()
        self._closed = True
        fields = self._meta["fields"]
        try:
            for w in self._writers:
                if not fields and w._fields is not None:
                    fields = list(w._fields)
                w.close()
        except BaseException:
            for w in self._writers:
                w.abort()  # idempotent; releases the not-yet-closed shards
            raise
        finally:
            if self._lane is not None:
                self._lane.close()
        meta = dict(self._meta, fields=fields)
        # A row lists what its shard sealed, not what was routed to it: a
        # step whose append failed is in no shard and must be in no row.
        rows = [
            {
                "name": os.path.basename(name),
                "durability": dur,
                "steps": [e.step for e in w._steps],
            }
            for name, dur, w in zip(self.shards, self._durabilities, self._writers)
        ]
        parity_rows = self._build_parity() if self._parity else None
        _write_manifest(
            self._backend, self._path, meta, rows, final=True,
            parity=parity_rows,
        )

    def _build_parity(self) -> list[dict]:
        """Write the campaign's XOR parity shards (at close, after every
        data shard's index/footer is on storage). Segment extents come
        from each shard writer's own step records; the bytes are read back
        through the backend, so any :class:`~repro.storage.StorageBackend`
        works. Returns the manifest accounting rows."""
        from repro.integrity.parity import build_parity, parity_groups, parity_names

        names = self.shards
        rows: list[dict] = []
        for j, members in enumerate(parity_groups(self.n_shards, self._parity)):
            rows.append(
                build_parity(
                    self._backend,
                    parity_names(self._path, self._parity)[j],
                    j,
                    [names[k] for k in members],
                    [
                        [
                            (e.step, e.offset, e.length + SEAL_SIZE)
                            for e in self._writers[k]._steps
                        ]
                        for k in members
                    ],
                )
            )
        return rows

    # kept: leaves a failed campaign in the killed-writer state recover_sharded repairs
    def abort(self) -> None:
        """Release the lane and every shard writer without finalizing. The
        manifest stays non-final — exactly the on-disk state of a killed
        campaign, which :func:`recover_sharded` repairs."""
        if self._closed:
            return
        self._closed = True
        if self._lane is not None:
            self._lane.close()
        for w in self._writers:
            w.abort()


def _write_manifest(
    backend: StorageBackend,
    name: str,
    meta: dict,
    rows: list[dict],
    final: bool,
    parity: list[dict] | None = None,
    overwrite: bool = True,
) -> None:
    """Write the manifest and make it stable; every manifest write goes
    through here. An existing manifest is rewritten in place, never
    truncated first: truncating an fsync'd object can stall its open for
    tens of milliseconds. A kill mid-rewrite leaves either the new prefix
    over the old bytes (its crc fails: a :class:`TruncatedSeriesError`,
    and the shards are rediscovered) or the whole new manifest before a
    stale tail (which :func:`parse_manifest` never reads)."""
    blob = pack_manifest(meta, rows, final=final, parity=parity)
    if overwrite and backend.exists(name):
        sink = ByteSink.append(name, backend=backend)
    else:
        sink = ByteSink.create(
            name, backend=backend, overwrite=overwrite, what="campaign manifest"
        )
    with sink:
        sink.write(blob)
        sink.truncate(len(blob))
        sink.sync()


@dataclass
class ShardedRecoveryReport:
    """What :func:`recover_sharded` found (and possibly repaired)."""

    #: Manifest object name.
    manifest: str
    #: True when the manifest was final and every shard was intact.
    intact: bool
    #: Per-shard :class:`~repro.insitu.recovery.RecoveryReport`, keyed by
    #: full shard name, in shard order.
    shard_reports: dict[str, Any]
    #: Shards that could not be salvaged at all: ``(name, reason)``.
    dropped: list[tuple[str, str]] = field(default_factory=list)

    @property
    def steps(self) -> tuple[int, ...]:
        """Union of salvageable step numbers across shards, ascending."""
        out: list[int] = []
        for report in self.shard_reports.values():
            out.extend(e.step for e in report.entries)
        return tuple(sorted(out))

    # kept: operator need: a per-shard summary of a campaign
    def describe(self) -> str:
        """Human-readable per-shard summary."""
        lines = [
            f"{self.manifest}: campaign "
            + ("intact" if self.intact else "recovered")
            + f", {len(self.shard_reports)} shard(s), "
            f"{len(self.steps)} step(s) salvageable"
        ]
        for name, report in self.shard_reports.items():
            state = "intact" if report.intact else "recovered"
            lines.append(
                f"  {os.path.basename(name)}: {state}, steps "
                f"{[e.step for e in report.entries]}"
            )
        for name, reason in self.dropped:
            lines.append(f"  {os.path.basename(name)}: DROPPED — {reason}")
        return "\n".join(lines)


@dataclass
class _ShardedRecovery:
    """Recovery context a salvaged :class:`ShardedSeriesReader` exposes."""

    #: Per-shard recovery report (``None`` for shards that opened clean).
    shards: dict[str, Any]
    #: Shards dropped entirely: ``(name, reason)``.
    dropped: list[tuple[str, str]]


class ShardedSeriesReader(_SeriesView):
    """Random access over a sharded campaign through its RPHM manifest.

    Exposes the :class:`~repro.insitu.series.SeriesReader` API surface
    over the union of the per-shard timestep indexes; every accessor
    routes the step to its owning shard, so selective reads stay
    O(selection) bytes. Step entries come from the shard indexes (their
    ``offset`` is relative to the owning shard file — use
    :meth:`shard_of` to resolve which one).

    Construct through :meth:`open` (or transparently through
    :meth:`SeriesReader.open` on a manifest path). With ``recover=True``,
    damaged shards are salvaged independently — each through its own seal
    scan — and shards with nothing salvageable are dropped (listed on
    :attr:`recovery`).
    """

    kind = "campaign"
    is_sharded = True

    def __init__(
        self,
        path: str,
        meta: dict,
        readers: dict[str, SeriesReader],
        recovery: _ShardedRecovery | None = None,
        parity: list[dict] | None = None,
    ):
        self._path = path
        self._meta = dict(meta)
        self._readers = readers
        #: Parity-shard accounting rows from the manifest (empty when the
        #: campaign was written without ``parity=``). The serving layer
        #: uses these to reconstruct damaged segments on the fly.
        self.parity: tuple[dict, ...] = tuple(parity or [])
        #: True when any shard (or the manifest) needed the salvage path.
        self.recovered = recovery is not None
        #: Per-shard recovery context, or ``None`` for a clean open.
        self.recovery = recovery
        entries: list[tuple[SeriesStepEntry, str]] = []
        by_step: dict[int, str] = {}
        for name, reader in readers.items():
            for e in reader.step_entries:
                if e.step in by_step:
                    raise FormatError(
                        f"step {e.step} appears in both "
                        f"{os.path.basename(by_step[e.step])} and "
                        f"{os.path.basename(name)}: shards must partition "
                        "the campaign's steps"
                    )
                by_step[e.step] = name
                entries.append((e, name))
        entries.sort(key=lambda pair: pair[0].step)
        #: Union timestep index, ascending by step (offsets shard-relative).
        self.step_entries = [e for e, _ in entries]
        self._owner = by_step

    @classmethod
    def open(
        cls,
        path: str | Path,
        *,
        mmap: bool = False,
        recover: bool = False,
        backend: StorageBackend | None = None,
    ) -> "ShardedSeriesReader":
        """Open a campaign manifest for federated random access.

        A non-final manifest (killed campaign) raises
        :class:`~repro.errors.TruncatedSeriesError` unless ``recover=True``,
        which opens every shard through its own recovery path and rebuilds
        the union from whatever survived. A damaged or missing manifest is
        itself recoverable: the shards are discovered by name next to the
        manifest.
        """
        if backend is not None and mmap:
            raise CompressionError("backend= and mmap=True are mutually exclusive")
        return cls._federate(path, None, mmap=mmap, recover=recover, backend=backend)

    @classmethod
    def _federate(
        cls, path: str | Path, blob: bytes | None, *, mmap, recover, backend
    ) -> "ShardedSeriesReader":
        """:meth:`open`, over manifest bytes the caller already read
        (``repro.open`` sniffed them) or ``None`` to read them."""
        backend_ = backend or LocalFileBackend()
        manifest_name = str(path)
        man, full_names, _, error = _load_campaign(backend_, manifest_name, blob)
        if error is not None and not (
            recover and isinstance(error, (TruncatedSeriesError, StorageError))
        ):
            raise error
        if man is not None and not man["final"] and not recover:
            raise TruncatedSeriesError(
                f"{manifest_name}: campaign manifest is not final — the "
                f"writer was killed before close(){_RECOVERY_HINT}"
            )
        if man is None and not full_names:
            raise TruncatedSeriesError(
                f"{manifest_name}: manifest unreadable and no shard "
                "files found; nothing to recover"
            )
        readers: dict[str, SeriesReader] = {}
        salvage: dict[str, Any] = {}
        dropped: list[tuple[str, str]] = []
        try:
            for name in full_names:
                try:
                    reader = SeriesReader.open(
                        name, mmap=mmap, recover=recover, backend=backend
                    )
                except (FormatError, StorageError) as exc:
                    if recover:
                        dropped.append((name, str(exc)))
                        continue
                    if isinstance(exc, TruncatedSeriesError):
                        raise TruncatedSeriesError(
                            f"shard {os.path.basename(name)}: {exc}"
                        ) from exc
                    raise
                readers[name] = reader
                if reader.recovered:
                    salvage[name] = reader.recovery
        except BaseException:
            for reader in readers.values():
                reader.close()
            raise
        if not readers:
            raise TruncatedSeriesError(
                f"{manifest_name}: no shard holds any fully-sealed step; "
                "nothing to recover"
            )
        clean = (
            man is not None and man["final"] and not salvage and not dropped
        )
        if man is not None and man["final"] and not recover:
            meta = extract_series_meta(man)
        else:
            # Salvage path: the shard indexes are authoritative (the
            # initial manifest may predate field inference).
            meta = extract_series_meta(next(iter(readers.values())).meta())
        recovery = None if clean else _ShardedRecovery(salvage, dropped)
        parity = list(man.get("parity") or []) if man is not None else []
        return cls(manifest_name, meta, readers, recovery, parity=parity)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close every shard reader."""
        for reader in self._readers.values():
            reader.close()

    # ------------------------------------------------------------------
    # Metadata (the rest is :class:`~repro.insitu.series._SeriesView`)
    # ------------------------------------------------------------------
    # kept: operator need: a campaign's shard count
    @property
    def n_shards(self) -> int:
        """Number of shard files serving this campaign."""
        return len(self._readers)

    @property
    def shards(self) -> tuple[str, ...]:
        """Full shard object names, in manifest order."""
        return tuple(self._readers)

    # ------------------------------------------------------------------
    # Random access (routes each step to its owning shard)
    # ------------------------------------------------------------------
    def shard_of(self, step: int) -> str:
        """Full name of the shard file owning ``step``."""
        return self._owner[self.entry(step).step]

    def _reader_for(self, step: int) -> SeriesReader:
        return self._readers[self._owner[self.entry(step).step]]

    def entry(self, step: int) -> SeriesStepEntry:
        """The owning shard's timestep-index entry for one step (its
        ``offset`` is relative to that shard file)."""
        step = int(step)
        if step not in self._owner:
            raise FormatError(
                f"campaign has no step {step} (have {list(self.steps)})"
            )
        return self._readers[self._owner[step]].entry(step)

    def open_step(self, step: int) -> ContainerReader:
        """Open one timestep's embedded RPH2 segment (on its shard)."""
        return self._reader_for(step).open_step(step)

    # kept: operator need: check one step's CRCs without decoding it
    def verify_step(self, step: int) -> None:
        """Check a whole segment's crc32 against its shard's index."""
        self._reader_for(step).verify_step(step)


def recover_sharded(
    path: str | Path,
    commit: bool = False,
    backend: StorageBackend | None = None,
) -> ShardedRecoveryReport:
    """Diagnose (and optionally repair) an interrupted sharded campaign.

    Runs single-series recovery (:func:`repro.insitu.recovery.recover_series`)
    *independently on every shard* — one shard's damage cannot affect
    another's steps — then, with ``commit=True``, commits each shard's
    rebuilt index and rewrites the manifest as ``final`` from the
    surviving shard indexes. Shards with nothing salvageable are dropped
    from the rewritten manifest (and listed on the report). Dry-run by
    default: nothing is modified. ``backend`` serves the scan and the
    commit alike: every write is in place — a truncate + append on a
    shard, a rewrite of the manifest from offset 0 cut to its new length —
    never a rename.
    """
    return _recover_sharded(path, commit, backend)


def _recover_sharded(
    path: str | Path,
    commit: bool,
    backend: StorageBackend | None,
    manifest: bytes | None = None,
) -> ShardedRecoveryReport:
    """:func:`recover_sharded`, from the ``manifest`` bytes when the caller
    already read them (so the manifest is opened once)."""
    from repro.insitu.recovery import recover_series

    backend_ = backend or LocalFileBackend()
    manifest_name = str(path)
    man, full_names, _, error = _load_campaign(backend_, manifest_name, manifest)
    if error is not None and not isinstance(
        error, (TruncatedSeriesError, StorageError)
    ):
        raise error
    manifest_final = man is not None and bool(man["final"])
    durabilities = {
        name: row["durability"] for name, row in zip(full_names, man["shards"])
    } if man is not None else {}
    if man is None and not full_names:
        raise TruncatedSeriesError(
            f"{manifest_name}: manifest unreadable and no shard files "
            "found; nothing to recover"
        )
    reports: dict[str, Any] = {}
    dropped: list[tuple[str, str]] = []
    for name in full_names:
        try:
            reports[name] = recover_series(name, commit=commit, backend=backend)
        except (FormatError, OSError, StorageError) as exc:
            dropped.append((name, str(exc)))
    if not reports:
        raise TruncatedSeriesError(
            f"{manifest_name}: no shard holds any fully-sealed step; "
            "nothing to recover"
        )
    intact = (
        manifest_final
        and not dropped
        and all(r.intact for r in reports.values())
    )
    if commit:
        # Rebuild the manifest from the *surviving* shard indexes: after
        # per-shard commit each shard opens normally, so the routing can
        # be read straight back out. Parity rows (if any) are carried
        # over verbatim — sealed segments keep their offsets through
        # recovery, and repair re-verifies every crc before trusting a
        # stripe, so a stale row is detected, never silently used.
        meta = None
        rows = []
        for name, report in reports.items():
            with SeriesReader.open(name, backend=backend) as reader:
                if meta is None:
                    meta = extract_series_meta(reader.meta())
                rows.append({
                    "name": os.path.basename(name),
                    "durability": durabilities.get(name, "close"),
                    "steps": list(reader.steps),
                })
        parity_rows = list(man.get("parity") or []) if man is not None else []
        _write_manifest(
            backend_, manifest_name, meta, rows, final=True,
            parity=parity_rows or None,
        )
    return ShardedRecoveryReport(
        manifest=manifest_name,
        intact=intact,
        shard_reports=reports,
        dropped=dropped,
    )
