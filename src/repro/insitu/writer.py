"""In-situ streaming writer for RPH2S time-series containers.

:class:`StreamingWriter` accepts patches incrementally — in the order a
(simulated) solver produces them — and compresses them *while the step is
still accumulating*. Each step is one
:class:`~repro.compression.amr_codec.SegmentWriter` over the series file:
``add_patch`` copies the array into the run of its ``(level, field)``, a
full run goes to the :mod:`repro.parallel` pool as one task, and finished
blobs go straight to disk in submission order. Memory stays bounded by the
in-flight window (``RUNS_PER_LANE`` runs of ``RUN_CELL_BUDGET`` cells per
lane plus their compressed blobs) and the step's group sections — a run's
shared codebook and entropy payloads, held until
:meth:`StreamingWriter.end_step` writes them before the segment index —
never by the campaign:

.. code-block:: python

    from repro.insitu import StreamingWriter
    from repro.parallel import WorkerPool
    from repro.sims import nyx_step_stream

    with WorkerPool("thread") as pool, StreamingWriter.create(
        "run.rph2s", codec="sz-lr", error_bound=1e-3, pool=pool
    ) as w:
        for s in nyx_step_stream(16):                 # lazy generator
            w.append_step(s.hierarchy, time=s.time, step=s.index)

Each finished step becomes a complete, self-contained RPH2 segment; the
timestep index and series footer are written at :meth:`StreamingWriter.close`.
This module adds only the series framing around the segments: the series
header, the seals, fsync placement, resuming (:meth:`StreamingWriter.append_to`),
rollback, and the series index and footer. A segment is the
:func:`repro.compression.amr_codec.compress_hierarchy` container of the same
data by construction: both are one segment writer fed by one hierarchy walk.
A step that fails after writing any byte is rolled back to the last sealed
step, so a refused step leaves nothing behind in the file.
"""

from __future__ import annotations

import zlib
from contextlib import contextmanager
from pathlib import Path
from typing import BinaryIO, Callable, Sequence

import numpy as np

from repro.amr.hierarchy import AMRHierarchy
from repro.compression.amr_codec import (
    SegmentWriter,
    hierarchy_patches,
    resolve_patch_codec,
    validate_field_bounds as _validate_field_bounds,
    validate_fields as _validate_fields,
)
from repro.compression.base import Compressor
from repro.compression.container import CONTAINER_VERSION, pack_footer
from repro.errors import CompressionError, StorageError
from repro.insitu.series import (
    SERIES_FOOTER_MAGIC,
    SERIES_MAGIC,
    SERIES_VERSION,
    _SERIES_HEADER,
    SeriesReader,
    SeriesStepEntry,
    build_series_index_bytes,
    pack_seal,
)
from repro.parallel.pool import WorkerPool, check_pool
from repro.storage import ByteSink

__all__ = ["StreamingWriter", "DURABILITY_MODES"]

#: How aggressively the writer pushes sealed bytes to stable storage.
#: ``"step"`` fsyncs on every segment boundary (each sealed step survives a
#: crash), ``"close"`` fsyncs only around the final index/footer commit,
#: ``"none"`` never fsyncs (benchmarks, tmpfs, tests).
DURABILITY_MODES = ("step", "close", "none")


class StreamingWriter:
    """Append-only RPH2S writer with pipelined, bounded-memory compression.

    Parameters
    ----------
    fileobj:
        Writable binary file positioned at the start of a fresh file; the
        writer borrows it and never closes it. Prefer the :meth:`create` /
        :meth:`append_to` constructors, which open (and own) the target.
    codec:
        Registry name or codec instance; resolved through
        :func:`repro.compression.amr_codec.resolve_patch_codec` so streams
        match the batch compressor byte for byte.
    error_bound, mode:
        Series-wide error-bound spec (individual patches may override via
        :meth:`add_patch`, e.g. for the covered-cell optimization).
    field_bounds:
        Optional ``{field: bound}`` overrides of ``error_bound`` — the
        mixed-physics campaign knob (e.g. WarpX E fields at one bound, B
        fields at a tighter one). Overridden fields resolve their bound
        under the same ``mode``; fields not named keep ``error_bound``.
        Recorded in the segment indexes and the series footer
        (``SeriesReader.field_bounds``) and restored by
        :meth:`append_to`.
    fields:
        Field names the series carries. ``None`` infers them from the first
        finished step; every later step must carry the same fields.
    exclude_covered:
        Recorded in the metadata; :meth:`append_step` applies the §2.2
        covered-cell fill when set.
    pool:
        Where the compression pipeline runs: ``None`` (default) inline, or
        a :class:`repro.parallel.WorkerPool` the caller owns (:meth:`close`
        leaves it running), ``RUNS_PER_LANE`` runs per lane in flight.
    durability:
        Crash-durability mode (see :data:`DURABILITY_MODES`). Every mode
        seals each finished segment with a crc-protected seal record — the
        structural guarantee recovery relies on; ``durability`` only
        controls *fsync* placement: ``"step"`` syncs every segment
        boundary, ``"close"`` (default) syncs only the final index/footer
        commit, ``"none"`` never syncs.
    """

    def __init__(
        self,
        fileobj: BinaryIO,
        codec: str | Compressor,
        error_bound: float,
        mode: str = "rel",
        fields: Sequence[str] | None = None,
        exclude_covered: bool = False,
        pool: WorkerPool | None = None,
        durability: str = "close",
        field_bounds=None,
        _resume: tuple[int, list[SeriesStepEntry]] | None = None,
        _open: Callable[[], ByteSink] | None = None,
    ):
        # Everything the arguments can get wrong is rejected before anything
        # is acquired: a refused create/append_to must not touch the target.
        if mode not in ("abs", "rel"):
            raise CompressionError(f"unknown error-bound mode {mode!r}")
        fields = _validate_fields(fields)
        self._field_bounds = _validate_field_bounds(field_bounds, fields)
        if durability not in DURABILITY_MODES:
            raise CompressionError(
                f"unknown durability mode {durability!r} (have {DURABILITY_MODES})"
            )
        self._durability = durability
        check_pool(pool)
        self._comp = resolve_patch_codec(codec)
        # The series-wide bound itself (a "rel" one is scaled per patch).
        self._eb = self._comp.resolve_error_bound(None, error_bound, "abs")
        self._mode = mode
        self._fields: tuple[str, ...] | None = fields
        self._exclude_covered = bool(exclude_covered)
        self._closed = False
        self._segment: SegmentWriter | None = None  # the open step's
        self._sink: ByteSink | None = None
        self._pool = pool
        try:
            self._sink = _open() if _open is not None else ByteSink(fileobj)
            if _resume is None:
                self._steps: list[SeriesStepEntry] = []
                self._sink.write(_SERIES_HEADER.pack(SERIES_MAGIC, SERIES_VERSION))
            else:
                # Cut the old index/footer only now, every argument accepted.
                resume_pos, self._steps = _resume
                self._sink.truncate(resume_pos)
        except BaseException:
            self.abort()
            raise
        # End of the last durable prefix (header or last sealed step):
        # rollback_step() may truncate back to here, never past it.
        self._data_end = self._sink.pos

    # ------------------------------------------------------------------
    # Construction / lifecycle
    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        path: str | Path,
        codec: str | Compressor,
        error_bound: float,
        mode: str = "rel",
        fields: Sequence[str] | None = None,
        exclude_covered: bool = False,
        overwrite: bool = False,
        pool: WorkerPool | None = None,
        durability: str = "close",
        backend=None,
        field_bounds=None,
    ) -> "StreamingWriter":
        """Create a fresh series file (writer owns the handle).

        ``backend`` (a :class:`repro.storage.StorageBackend`) redirects the
        byte sink: the series is written through ``backend.open_write``
        instead of the local filesystem. Backends without a file
        descriptor (e.g. :class:`repro.storage.MemoryBackend`) cannot
        fsync; the writer then reports :attr:`degraded`. A rejected
        argument touches nothing: the target is opened (and an existing
        one truncated) only after every argument was accepted.
        """
        return cls(
            None, codec, error_bound, mode=mode, fields=fields,
            exclude_covered=exclude_covered, pool=pool, durability=durability,
            field_bounds=field_bounds,
            _open=lambda: ByteSink.create(
                path, backend=backend, overwrite=overwrite, what="series object"
            ),
        )

    @classmethod
    def append_to(
        cls,
        path: str | Path,
        pool: WorkerPool | None = None,
        durability: str = "close",
        backend=None,
    ) -> "StreamingWriter":
        """Reopen an existing series for appending more timesteps.

        The file's own metadata (codec, bound, fields) is authoritative;
        existing segments are left untouched and the timestep index is
        rewritten on :meth:`close`. This is the in-situ restart path: a
        resumed simulation keeps extending the same container.

        The old index/footer bytes beyond the resume point are truncated
        *eagerly*, before the first new byte is written: the on-disk state
        between truncation and the next sealed step is exactly the
        footerless-but-fully-sealed shape crash recovery is built for, so
        a writer killed at any point during the append session loses at
        most the step in flight (``tools/faultsim.py`` injects this as the
        ``append-resume`` class).
        """
        check_pool(pool)  # before the series is read
        with SeriesReader.open(path, backend=backend) as reader:
            if getattr(reader, "is_sharded", False):
                raise CompressionError(
                    f"{path} is a sharded-campaign manifest; append through "
                    "repro.insitu.sharded.ShardedSeriesWriter, not append_to"
                )
            meta = reader.meta()
            rows = list(reader.step_entries)
            resume_pos = reader._index_offset
        return cls(
            None,
            str(meta["codec"]),
            float(meta["error_bound"]),
            mode=str(meta["mode"]),
            fields=tuple(meta["fields"]) or None,
            exclude_covered=bool(meta["exclude_covered"]),
            pool=pool,
            durability=durability,
            field_bounds=meta.get("field_bounds"),
            _resume=(resume_pos, rows),
            _open=lambda: ByteSink.append(path, backend=backend),
        )

    def __enter__(self) -> "StreamingWriter":
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
    # Metadata, rollback and durability
    # ------------------------------------------------------------------
    def _meta(self) -> dict:
        """The metadata a segment index and the series index record."""
        return {
            "codec": self._comp.name,
            "error_bound": self._eb,
            "mode": self._mode,
            "fields": list(self._fields or ()),
            "exclude_covered": self._exclude_covered,
            "field_bounds": self._field_bounds,
        }

    @contextmanager
    def _step_guard(self):
        """Roll the step back (:meth:`rollback_step`) on any failure in the
        block, then re-raise: a refused step leaves no byte in the file."""
        try:
            yield
        except BaseException:
            self.rollback_step()
            raise

    def _sync(self) -> None:
        """Make the bytes written so far stable (:meth:`ByteSink.sync`): a
        sink without a descriptor marks the writer :attr:`degraded`, a
        *failing* fsync degrades it with a warning — except under
        ``durability="step"``, where swallowing it would silently void the
        per-step crash guarantee, so it raises."""
        try:
            self._sink.sync(strict=self._durability == "step")
        except StorageError as exc:
            raise CompressionError(
                f"fsync failed under durability='step': {exc.__cause__}; sealed "
                "bytes may not be stable — the per-step crash guarantee "
                "does not hold for this writer"
            ) from exc

    # ------------------------------------------------------------------
    # Step protocol
    # ------------------------------------------------------------------
    # kept: operator need: whether the writer's fsync contract still holds
    @property
    def degraded(self) -> bool:
        """True once a requested fsync could not be performed (sink has no
        file descriptor, or fsync failed under a non-``"step"`` mode): the
        bytes written are intact, but the crash-durability contract no
        longer holds for this writer."""
        return self._sink.degraded

    # kept: operator need: the per-field bounds a writer applies
    @property
    def field_bounds(self) -> dict[str, float]:
        """Per-field error-bound overrides (empty when single-bound)."""
        return dict(self._field_bounds)

    def _adopt_fields(self, names: tuple[str, ...]) -> None:
        """Fix the series field set (first finished step infers it)."""
        unknown = sorted(set(self._field_bounds) - set(names))
        if unknown:
            raise CompressionError(
                f"field_bounds name unknown fields {unknown} "
                f"(series fields: {sorted(names)})"
            )
        self._fields = tuple(names)

    @property
    def n_steps(self) -> int:
        """Timesteps recorded so far (including any resumed from disk)."""
        return len(self._steps)

    @property
    def next_step(self) -> int:
        """Step number :meth:`begin_step` will assign by default."""
        return self._steps[-1].step + 1 if self._steps else 0

    def begin_step(self, step: int | None = None, time: float | None = None) -> int:
        """Open a new timestep segment and return its step number.

        Step numbers must be strictly increasing but need not be contiguous
        (a solver may emit every Nth snapshot).
        """
        if self._closed:
            raise CompressionError("writer is closed")
        if self._segment is not None:
            raise CompressionError("previous step still open; call end_step() first")
        n = self.next_step if step is None else int(step)
        if self._steps and n <= self._steps[-1].step:
            raise CompressionError(
                f"step numbers must be strictly increasing: got {n} after "
                f"{self._steps[-1].step}"
            )
        self._cur_step = n
        self._step_time = float(n) if time is None else float(time)
        with self._step_guard():
            self._segment = SegmentWriter(self._sink, self._comp, self._pool)
        return n

    def add_patch(
        self,
        level: int,
        field: str,
        data: np.ndarray,
        error_bound: float | None = None,
        mode: str | None = None,
    ) -> None:
        """Feed one patch of the open step into the compression pipeline.

        Patch indices are assigned per ``(level, field)`` in arrival order.
        ``error_bound`` / ``mode`` override the series-wide bound for this
        patch only (used by the covered-cell optimization, which fixes an
        absolute bound before filling).

        The writer **copies** ``data`` — the caller may reuse its buffer
        at once — into the run of its ``(level, field)``
        (:class:`~repro.compression.amr_codec.PatchRuns`), flushed at
        :meth:`end_step` at the latest. Input the codec rejects (non-float,
        empty, NaN/Inf, a bad bound) raises from this call, before the
        patch is buffered, and the step stays open; a failing encode
        surfaces when its run is flushed or drained and rolls the step
        back (``docs/api.md``).
        """
        if self._segment is None:
            raise CompressionError("no open step; call begin_step() first")
        level = int(level)
        if level < 0:
            raise CompressionError(f"level must be >= 0, got {level}")
        if self._fields is not None and field not in self._fields:
            raise CompressionError(
                f"field {field!r} is not part of this series (have {list(self._fields)})"
            )
        runs = self._segment.add(
            level, field, data,
            self._field_bounds.get(field, self._eb) if error_bound is None else float(error_bound),
            self._mode if mode is None else mode,
        )
        if runs:  # most patches complete no run: skip the guard's ~2 us
            with self._step_guard():
                self._segment.encode(runs)

    def end_step(self) -> SeriesStepEntry:
        """Finish the open step: flush the pipeline, write the segment's
        index and footer and its seal, and record the step in the timestep
        index. A refused step (empty, or carrying other fields than the
        series) is rolled back, as is one whose writing fails."""
        segment = self._segment
        if segment is None:
            raise CompressionError("no open step to end")
        with self._step_guard():
            segment.flush()
            if not segment.n_patches:
                raise CompressionError("empty timestep: add at least one patch before end_step()")
            if self._fields is None:
                self._adopt_fields(tuple(segment.fields))
            elif set(segment.fields) != set(self._fields):
                raise CompressionError(
                    f"step {self._cur_step} carries fields {segment.fields}, but the "
                    f"series carries {list(self._fields)}"
                )
            n_levels = segment.finish(self._meta())
            entry = SeriesStepEntry(
                step=self._cur_step,
                offset=segment.start,
                length=self._sink.pos - segment.start,
                crc32=segment.crc,
                container_version=CONTAINER_VERSION,
                time=self._step_time,
                n_levels=n_levels,
                n_patches=segment.n_patches,
                original_bytes=segment.original_bytes,
            )
            # Seal the step before advancing: the seal record restates the
            # index row after the segment bytes it describes, so a crash at
            # any later point can rebuild this step without the series
            # footer. The seal is not part of the segment (entry.length
            # excludes it), so a segment is a snapshot container.
            self._sink.write(pack_seal(entry))
        self._segment = None
        self._data_end = self._sink.pos
        if self._durability == "step":
            self._sync()
        self._steps.append(entry)
        return entry

    # kept: benchmarks/e2e/trace.py ENTRY_POINTS names it
    def rollback_step(self) -> None:
        """Abandon the step in flight and truncate its partial bytes.

        Every step that fails after writing a byte — an append, an
        ``end_step`` refusal, a failing encode, a
        :class:`~repro.errors.TransientStorageError` from the byte sink —
        is rolled back here already. This discards any in-flight
        compression futures and truncates back to the end of the last
        *sealed* step, leaving the writer exactly where it was before the
        failed ``begin_step`` — the same step number can be appended again.
        A no-op when nothing was written past the sealed prefix.
        """
        if self._closed:
            raise CompressionError("writer is closed")
        if self._segment is not None:
            self._segment.discard()
            self._segment = None
        self._sink.truncate(self._data_end)

    def append_step(
        self,
        hierarchy: AMRHierarchy,
        time: float | None = None,
        step: int | None = None,
        fields: Sequence[str] | None = None,
    ) -> SeriesStepEntry:
        """Append one whole hierarchy as the next timestep.

        Convenience wrapper over the ``begin_step`` / ``add_patch`` /
        ``end_step`` protocol that feeds every patch through
        :meth:`add_patch` in the canonical layout order (level ascending,
        field sorted, patch ascending), so the resulting segment is
        :func:`~repro.compression.amr_codec.compress_hierarchy` +
        ``tobytes()`` on the same data. Applies the covered-cell fill when
        the writer was created with ``exclude_covered=True``. A step that
        fails part-way is rolled back: the series holds no byte of it.
        """
        if fields is not None:
            names = _validate_fields(fields)
        elif self._fields is not None:
            names = self._fields
        else:
            names = hierarchy.field_names
        for name in names:
            if name not in hierarchy.field_names:
                raise CompressionError(f"hierarchy has no field {name!r}")
        # Reject a field-set mismatch before compressing anything.
        if self._fields is not None and set(names) != set(self._fields):
            raise CompressionError(
                f"step carries fields {sorted(names)}, but the series "
                f"carries {sorted(self._fields)}"
            )
        if self._fields is None:
            self._adopt_fields(names)
        self.begin_step(step=step, time=time)
        with self._step_guard():
            for level, name, data, eb, mode in hierarchy_patches(
                hierarchy, names, self._comp, self._eb, self._field_bounds, self._mode,
                self._exclude_covered,
            ):
                self.add_patch(level, name, data, error_bound=eb, mode=mode)
        return self.end_step()

    # ------------------------------------------------------------------
    # Finalization
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Write the timestep index and series footer, then release
        resources. The file is not a valid RPH2S container until this runs."""
        if self._closed:
            return
        if self._segment is not None:
            raise CompressionError("cannot close with an open step; call end_step() first")
        index_bytes = build_series_index_bytes(self._meta(), self._steps)
        index_offset = self._sink.pos
        self._sink.write(index_bytes)
        # Two-phase commit: make the index (and every sealed segment before
        # it) durable *before* the footer that points at it goes out. A
        # crash between the syncs leaves a footerless file, which recovery
        # rebuilds from the seals; a torn footer write is caught by the
        # footer magic / index crc checks at open.
        if self._durability != "none":
            self._sync()
        self._sink.write(
            pack_footer(
                index_offset, len(index_bytes), zlib.crc32(index_bytes), SERIES_FOOTER_MAGIC
            )
        )
        if self._durability != "none":
            self._sync()
        else:
            self._sink.flush()
        self.abort()

    def abort(self) -> None:
        """Release the sink without finalizing the index. The caller's
        :class:`~repro.parallel.WorkerPool` and a borrowed file are left
        running and open — their owners decide their lifetime."""
        if self._closed:
            return
        self._closed = True
        if self._sink is not None:
            self._sink.close()
