"""In-situ streaming writer for RPH2S time-series containers.

:class:`StreamingWriter` accepts patches incrementally — in the order a
(simulated) solver produces them — and compresses them *while the step is
still accumulating*: ``add_patch`` copies the array into the run of its
``(level, field)``, a full run goes to the :mod:`repro.parallel` pool as one
task, and the writer drains finished blobs straight to disk in submission
order. Memory stays bounded by the in-flight window (``max_pending`` runs of
``RUN_CELL_BUDGET`` cells plus their compressed blobs), never by the
hierarchy or the campaign:

.. code-block:: python

    from repro.insitu import StreamingWriter
    from repro.sims import nyx_step_stream

    with StreamingWriter.create("run.rph2s", codec="sz-lr",
                                error_bound=1e-3, parallel="thread") as w:
        for s in nyx_step_stream(16):                 # lazy generator
            w.append_step(s.hierarchy, time=s.time, step=s.index)

Each finished step becomes a complete, self-contained RPH2 segment; the
timestep index and series footer are written at :meth:`StreamingWriter.close`.
When patches are fed in the canonical layout order (level ascending, field
sorted, patch ascending — what :meth:`append_step` does), a segment is
byte-identical to the batch :func:`repro.compression.amr_codec.compress_hierarchy`
output for the same data.
"""

from __future__ import annotations

import zlib
from collections import deque
from pathlib import Path
from typing import BinaryIO, Callable, Sequence

import numpy as np

from repro.amr.coverage import level_covered_masks
from repro.amr.hierarchy import AMRHierarchy
from repro.compression.amr_codec import (
    PatchRuns,
    _compress_task,
    _fill_covered,
    resolve_patch_codec,
    validate_field_bounds as _validate_field_bounds,
)
from repro.compression.base import Compressor
from repro.compression.container import (
    CONTAINER_VERSION,
    build_index_bytes,
    pack_footer,
    pack_header,
)
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
from repro.parallel.pool import EXECUTION_MODES, WorkerPool
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
    parallel, workers:
        Execution mode for the per-patch compression pipeline
        (``"serial"``, ``"thread"`` — one background lane — or
        ``"process"``, ``workers`` processes).
    max_pending:
        In-flight *run* limit for the parallel modes, at least 1 (default
        two per lane: 2 for a thread pool, ``2 * workers`` for a process
        pool): with the run being filled, at most
        ``(max_pending + 1) * (RUN_CELL_BUDGET + one patch)`` buffered cells:
        (2 + 1) * (65 536 + 512) * 8 B ~ 1.6 MB of float64 at the one-lane
        default with 8^3 patches.
    pool:
        Optional persistent :class:`repro.parallel.WorkerPool`. The writer
        then pipelines through that pool — which survives across
        timesteps *and across writers* — instead of building its own, and
        leaves it running at :meth:`close` (the caller's ``with`` block
        owns it). Overrides ``parallel``/``workers``.
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
        parallel: str = "serial",
        workers: int | None = 2,
        max_pending: int | None = None,
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
        self._field_bounds = _validate_field_bounds(
            field_bounds, tuple(fields) if fields is not None else None
        )
        if durability not in DURABILITY_MODES:
            raise CompressionError(
                f"unknown durability mode {durability!r} (have {DURABILITY_MODES})"
            )
        self._durability = durability
        if parallel not in EXECUTION_MODES:
            raise CompressionError(
                f"unknown execution mode {parallel!r} (have {EXECUTION_MODES})"
            )
        self._comp = resolve_patch_codec(codec)
        self._eb = float(error_bound)
        self._mode = mode
        self._fields: tuple[str, ...] | None = tuple(fields) if fields is not None else None
        self._exclude_covered = bool(exclude_covered)
        if pool is not None and pool.closed:
            raise CompressionError("worker pool is closed")
        if max_pending is not None and int(max_pending) < 1:
            raise CompressionError(f"max_pending must be >= 1, got {max_pending}")
        self._closed = False
        self._in_step = False
        self._sink: ByteSink | None = None
        self._owns_pool = pool is None and parallel != "serial"
        if self._owns_pool:
            pool = WorkerPool(parallel, workers)
        # A serial pool runs inline — same as no pool at all.
        self._pool = pool if pool is not None and pool.mode != "serial" else None
        self._max_pending = int(max_pending or 2 * pool.workers) if self._pool else 1
        try:
            self._sink = _open() if _open is not None else ByteSink(fileobj)
            if _resume is None:
                self._steps: list[SeriesStepEntry] = []
                self._write(_SERIES_HEADER.pack(SERIES_MAGIC, SERIES_VERSION))
            else:
                # Cut the old index/footer only now, every argument accepted.
                resume_pos, self._steps = _resume
                self._sink.truncate(resume_pos)
        except BaseException:
            self.abort()  # releases an owned pool, not just the handle
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
        parallel: str = "serial",
        workers: int | None = 2,
        max_pending: int | None = None,
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
            exclude_covered=exclude_covered, parallel=parallel,
            workers=workers, max_pending=max_pending, pool=pool,
            durability=durability, field_bounds=field_bounds,
            _open=lambda: ByteSink.create(
                path, backend=backend, overwrite=overwrite, what="series object"
            ),
        )

    # kept: operator need: resume a series after `recover --commit` (append_step)
    @classmethod
    def append_to(
        cls,
        path: str | Path,
        parallel: str = "serial",
        workers: int | None = 2,
        max_pending: int | None = None,
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
        most the step in flight (``tools/crashsim.py`` injects this as the
        ``append-resume`` class).
        """
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
            parallel=parallel,
            workers=workers,
            max_pending=max_pending,
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
    # Low-level byte accounting
    # ------------------------------------------------------------------
    def _write(self, blob: bytes) -> None:
        self._sink.write(blob)
        if self._in_step:
            self._seg_crc = zlib.crc32(blob, self._seg_crc)

    def _write_streams(self, level: int, field: str, p_idx: int, blobs: list) -> None:
        """Append a run's streams: patches ``p_idx``, ``p_idx + 1``, ..."""
        for p_idx, blob in enumerate(blobs, p_idx):
            rel = self._sink.pos - self._seg_start
            self._entries.append(
                [level, field, p_idx, rel, len(blob), self._comp.name, zlib.crc32(blob)]
            )
            self._write(blob)

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

    def _drain(self, down_to: int) -> None:
        """Retire finished compression futures (FIFO keeps disk order
        deterministic) until at most ``down_to`` remain in flight."""
        while len(self._pending) > down_to:
            level, field, p_idx, fut = self._pending.popleft()
            self._write_streams(level, field, p_idx, fut.result().streams)

    def _encode_runs(self, runs: list) -> None:
        """Encode completed runs: inline, or one pool task each."""
        for key, members, bounds in runs:
            task = (self._comp, members, bounds, "patch")
            first = (*key, self._counts[key] - len(members))
            if self._pool is None:
                self._write_streams(*first, _compress_task(task).streams)
            else:
                self._pending.append((*first, self._pool.submit(_compress_task, task)))
                self._drain(self._max_pending - 1)

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

    def _bound_for(self, field: str) -> float:
        """The error bound patches of ``field`` compress under."""
        return self._field_bounds.get(field, self._eb)

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

    # kept: operator need: the step number the next append gets
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
        if self._in_step:
            raise CompressionError("previous step still open; call end_step() first")
        n = self.next_step if step is None else int(step)
        if self._steps and n <= self._steps[-1].step:
            raise CompressionError(
                f"step numbers must be strictly increasing: got {n} after "
                f"{self._steps[-1].step}"
            )
        self._in_step = True
        self._cur_step = n
        self._step_time = float(n) if time is None else float(time)
        self._seg_start = self._sink.pos
        self._seg_crc = 0
        self._entries: list[list] = []
        self._counts: dict[tuple[int, str], int] = {}
        self._orig_bytes = 0
        self._pending: deque = deque()
        self._run = PatchRuns()  # consecutive patches of one (level, field)
        self._write(pack_header())
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
        patch is buffered; a failing encode surfaces when its run is
        flushed or drained (``docs/api.md``).
        """
        if not self._in_step:
            raise CompressionError("no open step; call begin_step() first")
        level = int(level)
        if level < 0:
            raise CompressionError(f"level must be >= 0, got {level}")
        if self._fields is not None and field not in self._fields:
            raise CompressionError(
                f"field {field!r} is not part of this series (have {list(self._fields)})"
            )
        arr = np.asarray(data)
        eb = self._comp.resolve_member_bound(
            arr,
            self._bound_for(field) if error_bound is None else float(error_bound),
            self._mode if mode is None else mode,
        )
        # Own the values. tobytes() is a memcpy under the GIL; an ndarray
        # copy of > 500 cells releases it, and every release is a chance to
        # hand the lock to the caller's thread or a pool= worker (~25 us).
        arr = np.frombuffer(arr.tobytes(), arr.dtype).reshape(arr.shape)
        self._orig_bytes += arr.nbytes
        self._counts[level, field] = self._counts.get((level, field), 0) + 1
        self._encode_runs(self._run.add((level, field), arr, eb))

    def end_step(self) -> SeriesStepEntry:
        """Finish the open step: flush the pipeline, write the segment's
        index and footer, and record the step in the timestep index."""
        if not self._in_step:
            raise CompressionError("no open step to end")
        self._encode_runs(self._run.flush())
        self._drain(0)
        if not self._entries:
            self._in_step = False
            raise CompressionError("empty timestep: add at least one patch before end_step()")
        step_fields = []
        for _, field, *_ in self._entries:
            if field not in step_fields:
                step_fields.append(field)
        if self._fields is None:
            self._adopt_fields(tuple(step_fields))
        elif set(step_fields) != set(self._fields):
            self._in_step = False
            raise CompressionError(
                f"step {self._cur_step} carries fields {step_fields}, but the "
                f"series carries {list(self._fields)}"
            )
        self._entries.sort(key=lambda e: (e[0], e[1], e[2]))
        n_levels = self._entries[-1][0] + 1
        meta = {
            "codec": self._comp.name,
            "error_bound": self._eb,
            "mode": self._mode,
            "fields": list(self._fields),
            "exclude_covered": self._exclude_covered,
            "original_bytes": self._orig_bytes,
            "field_bounds": self._field_bounds,
        }
        index_bytes = build_index_bytes(meta, n_levels, self._entries)
        rel_index_offset = self._sink.pos - self._seg_start
        self._write(index_bytes)
        self._write(pack_footer(rel_index_offset, len(index_bytes), zlib.crc32(index_bytes)))
        entry = SeriesStepEntry(
            step=self._cur_step,
            offset=self._seg_start,
            length=self._sink.pos - self._seg_start,
            crc32=self._seg_crc,
            container_version=CONTAINER_VERSION,
            time=self._step_time,
            n_levels=n_levels,
            n_patches=len(self._entries),
            original_bytes=self._orig_bytes,
        )
        # Seal the step before advancing: the seal record restates the
        # index row after the segment bytes it describes, so a crash at any
        # later point can rebuild this step without the series footer. The
        # seal is not part of the segment (entry.length excludes it), which
        # keeps segments byte-identical to batch compress_hierarchy output.
        self._in_step = False
        self._write(pack_seal(entry))
        self._data_end = self._sink.pos
        if self._durability == "step":
            self._sync()
        self._steps.append(entry)
        return entry

    # kept: benchmarks/e2e/trace.py ENTRY_POINTS names it
    def rollback_step(self) -> None:
        """Abandon the step in flight and truncate its partial bytes.

        After an append failed mid-step (e.g. a
        :class:`~repro.errors.TransientStorageError` from the byte sink),
        the file holds a partial, unsealed segment. This discards any
        in-flight compression futures and truncates back to the end of the
        last *sealed* step, leaving the writer exactly where it was before
        the failed ``begin_step`` — the same step number can be appended
        again. A no-op when nothing was written past the sealed prefix.
        """
        if self._closed:
            raise CompressionError("writer is closed")
        self._in_step = False
        self._run = PatchRuns()  # the unflushed run goes with the step
        pending = getattr(self, "_pending", None)
        while pending:
            *_, fut = pending.popleft()
            try:
                fut.result()  # retire, discard (and swallow its failure)
            except Exception:
                pass
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
        ``end_step`` protocol that feeds patches in the canonical layout
        order (level ascending, field sorted, patch ascending), so the
        resulting segment is byte-identical to
        :func:`~repro.compression.amr_codec.compress_hierarchy` +
        ``tobytes()`` on the same data. Applies the covered-cell fill when
        the writer was created with ``exclude_covered=True``.
        """
        if fields is not None:
            names = tuple(fields)
        elif self._fields is not None:
            names = self._fields
        else:
            names = hierarchy.field_names
        for name in names:
            if name not in hierarchy.field_names:
                raise CompressionError(f"hierarchy has no field {name!r}")
        # Reject a field-set mismatch BEFORE compressing anything: end_step
        # would catch it too, but only after the whole rejected segment's
        # bytes had been written (and permanently orphaned) in the file.
        if self._fields is not None and set(names) != set(self._fields):
            raise CompressionError(
                f"step carries fields {sorted(names)}, but the series "
                f"carries {sorted(self._fields)}"
            )
        if self._fields is None:
            self._adopt_fields(names)
        self.begin_step(step=step, time=time)
        try:
            for lev_idx, lev in enumerate(hierarchy):
                masks = (
                    level_covered_masks(hierarchy, lev_idx)
                    if self._exclude_covered
                    else None
                )
                for name in sorted(names):
                    for p_idx, patch in enumerate(lev.patches(name)):
                        data = patch.data
                        if masks is not None and masks[p_idx].any():
                            # Mirror the batch path: resolve the bound
                            # against the original values, then fill.
                            eb_abs = self._comp.resolve_error_bound(
                                data, self._bound_for(name), self._mode
                            )
                            data = _fill_covered(data, masks[p_idx])
                            self.add_patch(lev_idx, name, data, error_bound=eb_abs, mode="abs")
                        else:
                            self.add_patch(lev_idx, name, data)
        except Exception:
            self._in_step = False
            raise
        return self.end_step()

    # ------------------------------------------------------------------
    # Finalization
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Write the timestep index and series footer, then release
        resources. The file is not a valid RPH2S container until this runs."""
        if self._closed:
            return
        if self._in_step:
            raise CompressionError("cannot close with an open step; call end_step() first")
        meta = {
            "codec": self._comp.name,
            "error_bound": self._eb,
            "mode": self._mode,
            "fields": list(self._fields) if self._fields is not None else [],
            "exclude_covered": self._exclude_covered,
            "field_bounds": self._field_bounds,
        }
        index_bytes = build_series_index_bytes(meta, self._steps)
        index_offset = self._sink.pos
        self._write(index_bytes)
        # Two-phase commit: make the index (and every sealed segment before
        # it) durable *before* the footer that points at it goes out. A
        # crash between the syncs leaves a footerless file, which recovery
        # rebuilds from the seals; a torn footer write is caught by the
        # footer magic / index crc checks at open.
        if self._durability != "none":
            self._sync()
        self._write(
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
        """Release the pool and the sink without finalizing the index. A
        shared :class:`~repro.parallel.WorkerPool` and a borrowed file are
        left running and open — their owners decide their lifetime."""
        if self._closed:
            return
        self._closed = True
        if self._owns_pool:
            self._pool.close()
        if self._sink is not None:
            self._sink.close()
