"""RPH2S: a seekable time-series container of RPH2 snapshot segments.

The paper compresses patch-based AMR data *in situ* — timestep after
timestep as the solver emits it. A campaign therefore needs a container
that (a) can be appended to while the simulation runs and (b) still gives
random access to ``(step, level, field, patch)`` afterwards. RPH2S does
both by reusing the RPH2 snapshot container as its segment type:

.. code-block:: text

    offset 0   magic    b"RPH2S"                                (5 bytes)
    offset 5   u8       series version (currently 1)
    offset 6   segments, back to back; each segment is a complete,
               self-contained RPH2 container (internal offsets relative
               to the segment start), immediately followed by a 64-byte
               crc-protected *seal record* (magic b"RPH2SEAL") restating
               the step's index row — the durability anchor crash
               recovery rebuilds the timestep index from
    ...        series index: JSON document (see below)
    EOF-28     footer: u64 index_offset, u64 index_length,
               u32 crc32(index bytes), footer magic b"RPH2SIDX"

The 4-byte prefix of the magic is deliberately ``b"RPH2"``: a snapshot
reader handed a series file sees "version" ``0x53`` (``"S"``) and raises a
pointer to this module instead of a cryptic failure.

Series index schema (JSON)::

    {
      "format": "rph2s", "version": 1,
      "codec": str, "error_bound": float, "mode": str,
      "fields": [str, ...], "exclude_covered": bool,
      "steps": [[step, offset, length, crc32, container_version,
                 time, n_levels, n_patches, original_bytes], ...]
    }

Each row maps a timestep number to its segment's absolute byte ``offset``
and ``length``, the crc32 of the whole segment, the segment's own RPH2
format version (all rows must agree — mixed-version series are rejected at
open), the simulation ``time``, and size accounting. Random access to one
patch of one step costs O(series footer + series index + segment footer +
segment index + that stream) bytes, never O(file).

A file whose footer is missing or damaged (a killed writer) raises
:class:`~repro.errors.TruncatedSeriesError`; every fully-sealed step is
still recoverable through :meth:`SeriesReader.open` with ``recover=True``
or :mod:`repro.insitu.recovery`.

Written by :class:`repro.insitu.writer.StreamingWriter`; the format spec
lives in ``docs/container_format.md``.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.compression.container import (
    CONTAINER_VERSION,
    FOOTER_SIZE,
    ContainerReader,
    ReaderView,
    _normalize_selector,
    read_index,
)
from repro.errors import FormatError, TruncatedSeriesError
from repro.storage import ByteSource

__all__ = [
    "SERIES_MAGIC",
    "SERIES_FOOTER_MAGIC",
    "SERIES_VERSION",
    "SEAL_MAGIC",
    "SEAL_SIZE",
    "SeriesStepEntry",
    "SeriesReader",
    "pack_seal",
    "unpack_seal",
    "build_series_index_bytes",
]

SERIES_MAGIC = b"RPH2S"
SERIES_FOOTER_MAGIC = b"RPH2SIDX"
SERIES_VERSION = 1
_SERIES_HEADER = struct.Struct("<5sB")

#: Magic prefix of a step seal record (written right after each segment).
SEAL_MAGIC = b"RPH2SEAL"
#: Seal record body: magic, step (i64), time (f64), absolute segment offset
#: (u64), segment length (u64), crc32 of the segment bytes (u32), segment
#: container version (u16), n_levels (u16), n_patches (u32),
#: original_bytes (u64). A crc32 of the body (u32) follows.
_SEAL_BODY = struct.Struct("<8sqdQQIHHIQ")
_SEAL_CRC = struct.Struct("<I")
#: Total on-disk size of one seal record.
SEAL_SIZE = _SEAL_BODY.size + _SEAL_CRC.size

#: Series-level meta keys serialized into the index besides the step rows.
_SERIES_META_KEYS = ("codec", "error_bound", "mode", "fields", "exclude_covered")


def extract_series_meta(source) -> dict:
    """Pull the series meta keys (plus optional per-field bounds) out of a
    parsed index / segment meta / manifest mapping.

    The one place the optional ``field_bounds`` key is resolved, shared by
    the footer parser, the recovery scanner, and the sharded manifest
    reader — files written before per-field bounds existed simply lack the
    key and yield no entry.
    """
    meta = {k: source[k] for k in _SERIES_META_KEYS}
    if source.get("field_bounds"):
        meta["field_bounds"] = {
            str(k): float(v) for k, v in source["field_bounds"].items()
        }
    return meta

#: Appended to truncation/damage errors so an interrupted campaign points
#: straight at the salvage path.
_RECOVERY_HINT = (
    "; fully-sealed steps are recoverable: run `python -m repro.compression "
    "recover <file>` or open with SeriesReader.open(..., recover=True)"
)


@dataclass(frozen=True)
class SeriesStepEntry:
    """One row of the timestep index: where a segment lives, how to check
    it, and what it holds."""

    step: int
    offset: int
    length: int
    crc32: int
    container_version: int
    time: float
    n_levels: int
    n_patches: int
    original_bytes: int

    def describe(self) -> str:
        """Human-readable step identifier for error messages."""
        return f"(step={self.step}, time={self.time:g})"

    def row(self) -> list:
        """The JSON-index row representation of this entry."""
        return [
            self.step, self.offset, self.length, self.crc32,
            self.container_version, self.time, self.n_levels,
            self.n_patches, self.original_bytes,
        ]


def pack_seal(entry: SeriesStepEntry) -> bytes:
    """Serialize one step's 64-byte seal record.

    The seal restates the step's timestep-index row (plus the whole-segment
    crc32) in a fixed-size, crc-protected record written *immediately after*
    the segment it describes. It is what makes a killed writer survivable:
    the series footer may never be written, but every sealed step can be
    found, validated, and re-indexed by :mod:`repro.insitu.recovery`.
    """
    body = _SEAL_BODY.pack(
        SEAL_MAGIC, entry.step, entry.time, entry.offset, entry.length,
        entry.crc32, entry.container_version, entry.n_levels,
        entry.n_patches, entry.original_bytes,
    )
    return body + _SEAL_CRC.pack(zlib.crc32(body))


def unpack_seal(blob: bytes) -> SeriesStepEntry | None:
    """Parse a candidate seal record; ``None`` unless it is bit-perfect.

    Recovery scans treat any magic hit whose record crc does not validate
    as a payload coincidence or a torn write, so this returns ``None``
    instead of raising.
    """
    if len(blob) != SEAL_SIZE or blob[:8] != SEAL_MAGIC:
        return None
    (crc,) = _SEAL_CRC.unpack_from(blob, _SEAL_BODY.size)
    if zlib.crc32(blob[: _SEAL_BODY.size]) != crc:
        return None
    magic, step, time, offset, length, seg_crc, cver, n_levels, n_patches, ob = (
        _SEAL_BODY.unpack_from(blob, 0)
    )
    return SeriesStepEntry(
        step=step, offset=offset, length=length, crc32=seg_crc,
        container_version=cver, time=time, n_levels=n_levels,
        n_patches=n_patches, original_bytes=ob,
    )


def build_series_index_bytes(
    meta: dict, steps: "list[SeriesStepEntry]"
) -> bytes:
    """Serialize the series timestep index JSON (canonical key order).

    Shared by :meth:`StreamingWriter.close` and the recovery committer so a
    recovered-and-committed file carries an index byte-identical to what an
    uninterrupted writer would have produced for the same steps.
    """
    index = {
        "format": "rph2s",
        "version": SERIES_VERSION,
        "codec": str(meta["codec"]),
        "error_bound": float(meta["error_bound"]),
        "mode": str(meta["mode"]),
        "fields": list(meta["fields"]),
        "exclude_covered": bool(meta["exclude_covered"]),
        "steps": [e.row() for e in steps],
    }
    # Optional per-field bounds: emitted only when non-empty so
    # single-bound series stay byte-identical to the pre-override format.
    if meta.get("field_bounds"):
        index["field_bounds"] = {
            str(k): float(v) for k, v in sorted(meta["field_bounds"].items())
        }
    return json.dumps(index, separators=(",", ":")).encode()


class _SeriesView(ReaderView):
    """The series-level view both readers serve on top of
    :class:`~repro.compression.container.ReaderView` —
    :class:`SeriesReader` over one file's timestep index,
    :class:`repro.insitu.sharded.ShardedSeriesReader` over the union of its
    shards' — computed from ``self.step_entries``."""

    step_entries: "list[SeriesStepEntry]"

    @property
    def n_steps(self) -> int:
        """Number of timesteps in the series."""
        return len(self.step_entries)

    @property
    def steps(self) -> tuple[int, ...]:
        """Stored timestep numbers, ascending."""
        return tuple(e.step for e in self.step_entries)

    @property
    def times(self) -> tuple[float, ...]:
        """Simulation times, one per stored step."""
        return tuple(e.time for e in self.step_entries)

    @property
    def original_bytes(self) -> int:
        """Uncompressed size of the stored fields across all steps."""
        return sum(e.original_bytes for e in self.step_entries)

    @property
    def compressed_bytes(self) -> int:
        """Total segment size across all steps (payload + per-step indexes)."""
        return sum(e.length for e in self.step_entries)

    # ------------------------------------------------------------------
    # Random access: everything decodes through ``self.open_step``
    # ------------------------------------------------------------------
    def read_patch(
        self, step: int, level: int, field: str, patch: int, verify: bool = True
    ) -> np.ndarray:
        """Decompress a single patch identified by ``(step, level, field,
        patch)`` — the series-extended random-access primitive."""
        return self.open_step(step).read_patch(level, field, patch, verify=verify)

    def select(
        self,
        steps=None,
        levels=None,
        fields=None,
        patches=None,
        verify: bool = True,
        parallel: str = "serial",
        workers: int = 2,
        pool=None,
    ) -> dict[tuple[int, int, str, int], np.ndarray]:
        """Decompress the subset of patches matching the selectors.

        ``steps`` / ``levels`` / ``fields`` / ``patches`` accept a scalar,
        an iterable, or ``None`` (no restriction); results are keyed by
        ``(step, level, field, patch)``, in step order. Only the selected
        steps' segment indexes are ever read — unselected segments (and, in
        a campaign, unselected shards) cost zero payload bytes. ``pool`` (a
        persistent :class:`repro.parallel.WorkerPool`) is reused across
        every selected segment's decode map.
        """
        want_steps = _normalize_selector(steps, "step")
        out: dict[tuple[int, int, str, int], np.ndarray] = {}
        for e in self.step_entries:
            if want_steps is not None and e.step not in want_steps:
                continue
            sub = self.open_step(e.step).select(
                levels=levels, fields=fields, patches=patches, verify=verify,
                parallel=parallel, workers=workers, pool=pool,
            )
            for (lev, field, p_idx), arr in sub.items():
                out[(e.step, lev, field, p_idx)] = arr
        return out


class SeriesReader(_SeriesView):
    """Random access over a seekable ``RPH2S`` time-series container.

    Reads the series footer and timestep index eagerly (a few hundred bytes
    for typical campaigns); individual segments are opened lazily through
    windowed :class:`~repro.compression.container.ContainerReader` views, so
    a single-patch fetch consumes O(selection) bytes of the payload.

    Parameters
    ----------
    source:
        Either a seekable binary file-like object positioned anywhere, or
        any byte buffer (``bytes``, ``memoryview``, ``mmap`` — the
        zero-copy mode: segments are opened as buffer-mode
        :class:`~repro.compression.container.ContainerReader` views, so
        patch streams reach the codecs as ``memoryview`` slices with no
        intermediate copy). :meth:`open` with ``mmap=True`` builds the
        zero-copy mode over a memory-mapped file. The reader does not own
        a file-like source unless constructed through :meth:`open`.
    _recovery:
        A :class:`repro.insitu.recovery.RecoveryReport` to serve instead of
        parsing the series footer — the salvage path behind
        ``open(..., recover=True)``. The reader then exposes the report on
        :attr:`recovery` and sets :attr:`recovered`.
    """

    def __init__(self, source, _recovery=None):
        #: True when this reader was built from a recovery scan instead of
        #: the series footer (``None``-footer salvage path).
        self.recovered = _recovery is not None
        #: The :class:`~repro.insitu.recovery.RecoveryReport` this reader
        #: was built from, or ``None`` for a normal footer-indexed open.
        self.recovery = _recovery
        with ByteSource.under(source) as self._src:
            if _recovery is None:
                self._parse_index()
            else:  # repro.open found sealed steps: its scan is the index
                meta = extract_series_meta(_recovery.meta)
                self._install(meta, _recovery.data_end, _recovery.entries)

    def _parse_index(self) -> None:
        total = self._src.size
        head = self._src.read(0, _SERIES_HEADER.size)
        if total < _SERIES_HEADER.size + FOOTER_SIZE:
            # A valid magic on a too-short file is an interrupted write,
            # not an alien format — keep the two failure classes distinct.
            if head[: len(SERIES_MAGIC)] == SERIES_MAGIC:
                raise TruncatedSeriesError(
                    f"series truncated to {total} bytes, shorter than the "
                    f"RPH2S framing{_RECOVERY_HINT}"
                )
            raise FormatError(f"series too short ({total} bytes) for RPH2S framing")
        magic, version = _SERIES_HEADER.unpack(head)
        if magic != SERIES_MAGIC:
            raise FormatError(
                f"not an RPH2S series (magic {magic!r}, expected {SERIES_MAGIC!r})"
            )
        if version != SERIES_VERSION:
            raise FormatError(f"unsupported series version {version}")
        index, index_offset = read_index(
            self._src, SERIES_FOOTER_MAGIC, "series",
            error=TruncatedSeriesError, hint=_RECOVERY_HINT,
        )
        try:
            if index["format"] != "rph2s":
                raise FormatError(f"unexpected index format {index['format']!r}")
            meta = extract_series_meta(index)
            entries = [
                SeriesStepEntry(
                    int(s), int(off), int(ln), int(crc), int(cver),
                    float(t), int(nl), int(np_), int(ob),
                )
                for s, off, ln, crc, cver, t, nl, np_, ob in index["steps"]
            ]
        except (KeyError, ValueError, TypeError) as exc:
            raise FormatError(f"malformed series index: {exc!r}") from exc
        self._install(meta, index_offset, entries)

    def _install(
        self, meta: dict, index_offset: int, entries: list[SeriesStepEntry]
    ) -> None:
        """Validate and adopt a timestep index (footer-parsed or rebuilt)."""
        self._meta = dict(meta)
        self._index_offset = index_offset
        self.step_entries: list[SeriesStepEntry] = list(entries)
        versions = {e.container_version for e in self.step_entries}
        if len(versions) > 1:
            raise FormatError(
                f"mixed segment container versions {sorted(versions)}: an RPH2S "
                "series must carry one container version end to end"
            )
        if versions and versions != {CONTAINER_VERSION}:
            raise FormatError(
                f"unsupported segment container version {versions.pop()}"
            )
        last = None
        for e in self.step_entries:
            if e.step < 0 or last is not None and e.step <= last:
                raise FormatError(
                    f"series index steps must be strictly increasing; entry "
                    f"{e.describe()} follows step {last}"
                )
            last = e.step
            if e.offset < _SERIES_HEADER.size or e.offset + e.length > index_offset:
                raise TruncatedSeriesError(
                    f"series segment {e.describe()} points outside the payload "
                    f"(truncated segment?){_RECOVERY_HINT}"
                )
        self._by_step = {e.step: e for e in self.step_entries}

    # ------------------------------------------------------------------
    # Construction / lifecycle
    # ------------------------------------------------------------------
    @property
    def mapped(self) -> bool:
        """True when the reader serves zero-copy views of a byte buffer."""
        return self._src.mapped

    #: Both overridden by :class:`repro.insitu.sharded.ShardedSeriesReader`;
    #: they let callers (and the append path) tell a federated manifest
    #: reader from a single-file series without importing the sharded module.
    kind = "series"
    is_sharded = False

    @classmethod
    def open(
        cls,
        path: str | Path,
        *,
        mmap: bool = False,
        recover: bool = False,
        backend=None,
    ) -> "SeriesReader":
        """Open a series file for random access (reader owns the handle).

        With ``mmap=True`` the file is memory-mapped and every segment is
        opened as a buffer-mode
        :class:`~repro.compression.container.ContainerReader`, so patch
        streams reach the codecs as zero-copy ``memoryview`` slices.

        With ``recover=True``, a series whose footer or timestep index is
        missing or damaged (a killed writer) is salvaged instead of raising:
        the file is scanned for sealed segments
        (:func:`repro.insitu.recovery.scan_segments`) and the reader serves
        every fully-sealed step, read-only, without modifying the file. An
        intact series takes the normal footer path — no rebuild is
        triggered — so ``recover=True`` is always safe to pass.

        ``backend`` (a :class:`repro.storage.StorageBackend`) redirects all
        byte reads through the backend instead of the local filesystem;
        mutually exclusive with ``mmap``.

        A path holding an ``RPHM`` sharded-campaign manifest
        (:mod:`repro.insitu.sharded`) is opened transparently: the returned
        reader federates every shard's timestep index and serves the union
        through this same API (its :attr:`is_sharded` is True).
        """
        # The door imports this module: resolve it lazily.
        from repro.door import _open

        return _open(path, cls, backend=backend, mmap=mmap, recover=recover)

    def close(self) -> None:
        """Close the underlying file/mapping if this reader opened it."""
        self._src.close()

    # ------------------------------------------------------------------
    # Random access
    # ------------------------------------------------------------------
    def entry(self, step: int) -> SeriesStepEntry:
        """Look up the timestep-index entry for one step."""
        try:
            return self._by_step[int(step)]
        except KeyError:
            raise FormatError(
                f"series has no step {step} (have {list(self.steps)})"
            ) from None

    def open_step(self, step: int) -> ContainerReader:
        """Open one timestep's embedded RPH2 segment for random access.

        Only the segment's footer and index are read eagerly; streams are
        fetched lazily through the shared file handle. In zero-copy mode
        the segment is a buffer-mode
        :class:`~repro.compression.container.ContainerReader` over a
        ``memoryview`` slice of the series buffer, so its patch streams
        stay zero-copy all the way into the codecs.
        """
        e = self.entry(step)
        try:
            return ContainerReader(self._src.window(e.offset, e.length))
        except FormatError as exc:
            raise FormatError(f"series step {e.describe()}: {exc}") from exc

    def verify_step(self, step: int) -> None:
        """Check a whole segment's crc32 against the timestep index.

        Reads the full segment — O(segment) bytes — so it is an explicit
        integrity sweep, not part of the random-access path (stream-level
        crcs already guard individual reads). In zero-copy mode the crc
        runs over the segment's ``memoryview`` without a copy.
        """
        e = self.entry(step)
        blob = self._src.view(e.offset, e.length)
        if len(blob) != e.length or zlib.crc32(blob) != e.crc32:
            raise FormatError(f"segment checksum mismatch at step {e.describe()}")
