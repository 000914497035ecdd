"""AMR-aware compression of whole hierarchies.

Applies an error-bounded codec per (level, field, patch) and packages the
result into a seekable, patch-indexed container (see
:mod:`repro.compression.container`). The result, a
:class:`CompressedHierarchy`, is that container's bytes held in memory and
read through :class:`~repro.compression.container.ContainerReader` like any
file. Three paper-relevant features:

* **Redundant-data exclusion** (§2.2): patch-based AMR keeps coarse data
  under refined regions; since post-analysis never reads it (Figure 3), the
  codec can overwrite those cells with values that compress to almost
  nothing before encoding. On decompression the cells are either left as
  the filled values (``restore="none"``) or rebuilt by conservatively
  averaging the decompressed fine data down (``restore="average_down"``),
  which keeps the hierarchy self-consistent for dual-cell visualization.
* **Per-patch independence**: every patch is a separate stream, so runs of
  patches are (de)compressed inline or on the lane or processes of a
  ``pool=`` :class:`repro.parallel.WorkerPool` — with identical output.
  One :class:`SegmentWriter` writes every ``RPH2`` container: a
  :func:`compress_hierarchy` snapshot into memory, and each step of a
  :class:`repro.insitu.StreamingWriter` series into its file.
* **Selective decompression**: the container's footer-located index lets
  :func:`decompress_selection` pull one patch, one level, or one field
  while reading O(selection) payload bytes — and, for ``RPH2S`` time-series
  sources (:mod:`repro.insitu`), one timestep via ``steps=`` selectors.

Containers written before the indexed format (magic ``RPRH``) are no
longer readable: :class:`~repro.compression.container.ContainerReader`
raises a clear "unsupported legacy magic" error instead.
"""

from __future__ import annotations

import io
import math
import zlib
from collections import deque
from numbers import Real
from typing import Sequence

import numpy as np

from repro.amr.coverage import level_covered_masks
from repro.amr.hierarchy import AMRHierarchy
from repro.amr.level import AMRLevel
from repro.amr.patch import Patch
from repro.compression.base import BatchResult, Compressor
from repro.compression.container import (
    ContainerReader,
    _describe,
    _group_row,
    build_index_bytes,
    pack_footer,
    pack_group,
    pack_header,
)
from repro.compression.registry import make_codec
from repro.errors import CompressionError, FormatError
from repro.parallel.pool import WorkerPool, check_pool
from repro.storage import ByteSink

__all__ = [
    "CompressedHierarchy",
    "SegmentWriter",
    "compress_hierarchy",
    "hierarchy_patches",
    "decompress_hierarchy",
    "decompress_selection",
    "resolve_patch_codec",
    "validate_fields",
    "validate_field_bounds",
    "average_down",
]


def _fill_covered(data: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Replace covered cells by the mean of the exposed ones (maximally
    compressible constant region; the values are never consumed)."""
    if not mask.any():
        return data
    out = data.copy()
    exposed = data[~mask]
    fill = float(exposed.mean()) if exposed.size else float(data.mean())
    out[mask] = fill
    return out


def average_down(hierarchy: AMRHierarchy, field: str) -> None:
    """Overwrite covered coarse cells with the conservative average of the
    overlying fine cells (AMReX ``average_down``), in place."""
    for lev_idx in range(hierarchy.n_levels - 1):
        coarse = hierarchy[lev_idx]
        fine = hierarchy[lev_idx + 1]
        ratio = hierarchy.ref_ratios[lev_idx]
        for cpatch in coarse.patches(field):
            for fpatch in fine.patches(field):
                overlap = fpatch.box.coarsen(ratio).intersection(cpatch.box)
                if overlap is None:
                    continue
                fine_view = fpatch.view(overlap.refine(ratio))
                # Reshape (n0*r0, n1*r1, ...) -> (n0, r0, n1, r1, ...) and
                # average the ratio axes.
                shp = []
                for n, r in zip(overlap.shape, ratio):
                    shp.extend((n, r))
                reduced = fine_view.reshape(shp).mean(axis=tuple(range(1, 2 * len(ratio), 2)))
                cpatch.view(overlap)[...] = reduced


class CompressedHierarchy(ContainerReader):
    """An ``RPH2`` snapshot held in memory: a :class:`ContainerReader` over
    its own bytes.

    :func:`compress_hierarchy` writes the container once (a
    :class:`SegmentWriter` over memory) and hands the bytes here; ``select``, :func:`decompress_hierarchy` and
    ``repro.open`` read them as they read any snapshot.
    """

    def __init__(self, raw):
        self._raw = bytes(raw)
        super().__init__(self._raw)

    def tobytes(self) -> bytes:
        """The seekable patch-indexed ``RPH2`` container bytes."""
        return self._raw

    @property
    def ratio(self) -> float:
        """Compression ratio over the stored fields."""
        return self.original_bytes / self.compressed_bytes

    # kept: the fully checked parse of container bytes from outside the program (docs/api.md)
    @classmethod
    def frombytes(cls, raw) -> "CompressedHierarchy":
        """Parse a container from outside the program, checked in full.

        Accepts the indexed ``RPH2`` format only; anything else —
        including the legacy monolithic ``RPRH`` magic, which
        :class:`ContainerReader` names in its rejection — is a
        :class:`~repro.errors.FormatError`. The result owns a copy of
        ``raw``; every stream's crc32, every group header and every group
        member payload's crc32 is verified here, each ``(level, field)``'s
        patches must be numbered 0, 1, ... in index order, and the group
        ids 0, 1, ...
        """
        held = cls(raw)
        next_patch: dict[tuple[int, str], int] = {}
        for entry in held.entries:
            if entry.patch != next_patch.get(entry.key[:2], 0):
                raise FormatError(
                    f"container index out of order at patch {entry.describe()}"
                )
            next_patch[entry.key[:2]] = entry.patch + 1
            held.read_stream(entry)
        gids = sorted(g.gid for g in held.group_entries)
        if gids != list(range(len(gids))):
            raise FormatError(f"container group ids are not contiguous from 0 (got {gids})")
        for gid in gids:
            group = held.group(gid)
            for member in range(group.n_patches):
                group.read_payload(member)
        return held


#: Cells a run of patches may hold before it is encoded. A cut decides the
#: groups — an sz-lr or sz-interp run is one shared-codebook group section —
#: so it moves the written bytes but never a decoded value. ``benchmarks/e2e``
#: ``campaign_write`` (62 fine patches per field, median 8^3), medians of ten
#: pairs, with per-patch codebooks: 8 k cells and the heap tree build
#: 240 ms/op, 160.7 MB peak RSS; 64 k and the two-queue build 181 ms,
#: 164.9 MB (+2.6 %: a run's int64 temporaries); the budget alone is -10 %.
#: 8 k was once kept because ``ops_per_s`` resolved only 0.22 /s of spread; its
#: bound is now 25 % of ~4.2 /s, ~1.06 /s, and runs spread by 0.17-0.27 /s
#: between quartiles (``docs/performance.md``, "Run budget").
RUN_CELL_BUDGET = 1 << 16

#: Runs a pooled :class:`SegmentWriter` keeps in flight per lane. With the
#: run being filled, one lane buffers (2 + 1) * (65 536 + 512) * 8 B ~ 1.6 MB
#: of float64 with 8^3 patches.
RUNS_PER_LANE = 2


class PatchRuns:
    """Where runs of patches ``(key, members, bounds)`` are cut, for every
    :class:`SegmentWriter`: consecutive patches of one key, up to
    :data:`RUN_CELL_BUDGET` cells."""

    def __init__(self):
        self.key, self.members, self.bounds, self.cells = None, [], [], 0

    def add(self, key, data: np.ndarray, bound: float) -> list:
        """Buffer one patch; returns the runs that completes (the previous
        key's, then this key's once it holds the budget)."""
        done = self.flush() if key != self.key else []
        self.key = key
        self.members.append(data)
        self.bounds.append(bound)
        self.cells += data.size
        return done + self.flush() if self.cells >= RUN_CELL_BUDGET else done

    def flush(self) -> list:
        """The buffered run (a list of one, or empty); starts a new one."""
        done = [(self.key, self.members, self.bounds)] if self.members else []
        self.members, self.bounds, self.cells = [], [], 0
        return done


def _compress_task(task: tuple[Compressor, list, list]) -> BatchResult:
    """Module-level compress task (picklable for process mode): one run of
    patches under resolved absolute bounds."""
    comp, members, bounds = task
    return comp.compress_batch(members, bounds, "abs")


def hierarchy_patches(hierarchy, names, comp, error_bound, field_bounds, mode, exclude_covered):
    """Every patch of the fields ``names`` as ``(level, field, data,
    error_bound, mode)``, in layout order: level ascending, field sorted,
    patch ascending — the one hierarchy walk of :func:`compress_hierarchy`
    and ``StreamingWriter.append_step``.

    With ``exclude_covered`` a coarse patch's covered cells are filled
    (§2.2) and its bound is resolved first, against the *original* values,
    as an absolute one: filling may shrink the range (peaks often live
    under the refined region) and must not tighten the bound.
    """
    for lev_idx, lev in enumerate(hierarchy):
        masks = level_covered_masks(hierarchy, lev_idx) if exclude_covered else None
        for name in sorted(names):
            field_eb = field_bounds.get(name, error_bound)
            for p_idx, patch in enumerate(lev.patches(name)):
                data = patch.data
                if masks is not None and masks[p_idx].any():
                    bound = comp.resolve_error_bound(data, field_eb, mode)
                    yield lev_idx, name, _fill_covered(data, masks[p_idx]), bound, "abs"
                else:
                    yield lev_idx, name, data, field_eb, mode


class SegmentWriter:
    """One ``RPH2`` container written patch by patch through a
    :class:`~repro.storage.ByteSink` — the one writer of the format: a
    :func:`compress_hierarchy` snapshot is one over an in-memory sink, and
    each :class:`repro.insitu.StreamingWriter` step one over its series.

    :meth:`add` copies a patch into the run of its ``(level, field)``
    (:class:`PatchRuns`); :meth:`encode` codes completed runs inline, or as
    one task each on ``pool`` with at most :data:`RUNS_PER_LANE` per lane
    in flight, and writes their streams in submission order.
    A run with a shared codebook leaves a group section, held until
    :meth:`finish` writes the groups, the index and the footer. ``comp`` is
    ``None`` for a writer fed encoded streams only (:meth:`write_run`).
    """

    def __init__(self, sink: ByteSink, comp: Compressor | None, pool: WorkerPool | None = None):
        self._sink, self._comp = sink, comp
        # A serial pool runs inline — same as no pool at all.
        self._pool = pool if pool is not None and pool.mode != "serial" else None
        self._max_pending = RUNS_PER_LANE * pool.workers if self._pool else 1
        self.start, self.crc, self.original_bytes = sink.pos, 0, 0
        self._rows: list[tuple] = []
        self._groups: list[bytes] = []  # the group sections, by gid
        self._counts: dict[tuple[int, str], int] = {}
        self._pending: deque = deque()
        self._run = PatchRuns()
        self._write(pack_header())

    @property
    def n_patches(self) -> int:
        """Patches whose streams are written so far."""
        return len(self._rows)

    @property
    def fields(self) -> list[str]:
        """Fields of the written streams, in order of first appearance."""
        return list(dict.fromkeys(row[1] for row in self._rows))

    def _write(self, blob: bytes) -> None:
        self._sink.write(blob)
        self.crc = zlib.crc32(blob, self.crc)

    def add(self, level: int, field: str, data, error_bound: float, mode: str) -> list:
        """Validate and buffer one patch as the next of its ``(level, field)``;
        returns the runs that completes, for :meth:`encode`. Input the codec
        rejects (non-float, empty, NaN/Inf, a bad bound) raises here, before
        anything is buffered or counted."""
        arr = np.asarray(data)
        eb = self._comp.resolve_member_bound(arr, error_bound, mode)
        # Own the values. tobytes() is a memcpy under the GIL; an ndarray
        # copy of > 500 cells releases it, and every release is a chance to
        # hand the lock to the caller's thread or a pool= worker (~25 us).
        arr = np.frombuffer(arr.tobytes(), arr.dtype).reshape(arr.shape)
        self.original_bytes += arr.nbytes
        self._counts[level, field] = self._counts.get((level, field), 0) + 1
        return self._run.add((level, field), arr, eb)

    def encode(self, runs: list) -> None:
        """Encode completed runs: inline, or one pool task each."""
        for key, members, bounds in runs:
            task = (self._comp, members, bounds)
            first = (*key, self._counts[key] - len(members))
            if self._pool is None:
                self.write_run(*first, _compress_task(task))
            else:
                self._pending.append((*first, self._pool.submit(_compress_task, task)))
                self._drain(self._max_pending - 1)

    def _drain(self, down_to: int) -> None:
        """Retire finished encodes (FIFO keeps the byte order deterministic)
        until at most ``down_to`` remain in flight."""
        while len(self._pending) > down_to:
            level, field, p_idx, fut = self._pending.popleft()
            self.write_run(level, field, p_idx, fut.result())

    def write_run(self, level: int, field: str, p_idx: int, result: BatchResult) -> None:
        """Write a run's streams — patches ``p_idx``, ``p_idx + 1``, ... — and
        hold its group section, if it has one, for :meth:`finish`."""
        grouped = result.codebook is not None
        for member, blob in enumerate(result.streams):
            row = (level, field, p_idx + member, self._sink.pos - self.start, len(blob),
                   zlib.crc32(blob))
            self._rows.append(row + (len(self._groups), member) if grouped else row)
            self._write(blob)
        if grouped:
            self._groups.append(pack_group(result.codebook, result.payloads))

    def flush(self) -> None:
        """Encode the open run and wait for every encode in flight."""
        self.encode(self._run.flush())
        self._drain(0)

    def finish(self, meta: dict) -> int:
        """:meth:`flush`, then write the group sections, the index (``meta``,
        whose ``original_bytes`` defaults to the added patches'; rows in
        layout order) and the footer. Returns the container's level count."""
        self.flush()
        self._rows.sort(key=lambda row: row[:3])
        n_levels = self._rows[-1][0] + 1 if self._rows else 0
        codec = str(meta["codec"])
        entries = [[*row[:5], codec, *row[5:]] for row in self._rows]
        group_rows = []
        for gid, blob in enumerate(self._groups):
            group_rows.append(_group_row(gid, self._sink.pos - self.start, blob))
            self._write(blob)
        meta = {"original_bytes": self.original_bytes, **meta}
        index_bytes = build_index_bytes(meta, n_levels, entries, group_rows)
        index_offset = self._sink.pos - self.start
        self._write(index_bytes)
        self._write(pack_footer(index_offset, len(index_bytes), zlib.crc32(index_bytes)))
        return n_levels

    # kept: a failed step or compress_hierarchy abandons its segment here (no driver fails one)
    def discard(self) -> None:
        """Drop the open run and retire every encode in flight, swallowing
        their failures: the segment is being abandoned."""
        self._run = PatchRuns()
        while self._pending:
            *_, fut = self._pending.popleft()
            try:
                fut.result()
            except Exception:
                pass


def resolve_patch_codec(codec: str | Compressor) -> Compressor:
    """Resolve a registry name or instance into a patch-ready codec.

    Per-patch arrays are sized by the regridder's blocking factor (multiples
    of 4/8), so ``sz-lr`` gets automatic block selection to avoid the
    edge-padding waste a fixed 6-cube would pay on them.
    :func:`compress_hierarchy` and :class:`repro.insitu.StreamingWriter`
    resolve codecs through here and write through one
    :class:`SegmentWriter`, so a series segment is the snapshot container
    of the same data by construction. Codec *instances*
    pass through unchanged — they already carry their configuration.
    """
    if isinstance(codec, str):
        return make_codec(codec, **({"block_size": "auto"} if codec == "sz-lr" else {}))
    return codec


def validate_fields(fields) -> tuple[str, ...] | None:
    """A ``fields=`` list as a tuple (``None``, every field, passes).

    An empty list or a name given twice is a :class:`CompressionError`:
    either would write a container that describes its data wrongly.
    Shared by :func:`compress_hierarchy`, the streaming writer and the
    sharded campaign writer, each before any byte is written.
    """
    if fields is None:
        return None
    names = tuple(fields)
    if not names:
        raise CompressionError("fields= is empty: name at least one field, or pass None for all")
    for i, name in enumerate(names):
        if name in names[:i]:
            raise CompressionError(f"fields= names field {name!r} more than once")
    return names


def validate_field_bounds(field_bounds, fields) -> dict[str, float]:
    """Normalize a ``{field: bound}`` override mapping (empty when None).

    Bounds must be positive finite real numbers, never coerced: a string,
    ``None`` or a bool is a :class:`CompressionError` like a bound of 0.
    When the field set is already known (``fields`` is not None), every
    override key must name one of its fields. Shared by
    :func:`compress_hierarchy`, the streaming writer, and the sharded
    campaign writer so every entry point rejects bad overrides identically.
    """
    if not field_bounds:
        return {}
    out: dict[str, float] = {}
    for name, bound in field_bounds.items():
        if isinstance(bound, bool) or not isinstance(bound, Real) or not 0 < bound < math.inf:
            raise CompressionError(
                f"field_bounds[{name!r}] must be a positive finite bound, got {bound!r}"
            )
        out[str(name)] = float(bound)
    if fields is not None:
        unknown = sorted(set(out) - set(fields))
        if unknown:
            raise CompressionError(
                f"field_bounds name unknown fields {unknown} "
                f"(known fields: {sorted(fields)})"
            )
    return out


def compress_hierarchy(
    hierarchy: AMRHierarchy,
    codec: str | Compressor,
    error_bound: float,
    mode: str = "rel",
    fields: Sequence[str] | None = None,
    exclude_covered: bool = False,
    batch: str = "patch",
    pool: WorkerPool | None = None,
    field_bounds=None,
) -> CompressedHierarchy:
    """Compress selected fields of ``hierarchy`` patch by patch.

    Parameters
    ----------
    hierarchy:
        Input AMR dataset.
    codec:
        Registry name or codec instance.
    error_bound, mode:
        Error-bound spec, resolved *per patch* (``"rel"`` follows the paper:
        the bound scales with each patch's value range).
    fields:
        Fields to include (default: all).
    exclude_covered:
        Apply the §2.2 redundant-data optimization on coarse levels.
    batch:
        ``"patch"`` or ``"level"``; both write the same container bytes.
        Each (level, field) is cut into runs of consecutive patches
        (:data:`RUN_CELL_BUDGET` cells, :class:`PatchRuns`); the codec
        codes each run of two or more patches under one shared Huffman
        codebook, one group section per run (see
        ``docs/container_format.md``), and a run of one patch as a
        self-contained stream. ``"level"`` once selected a
        second, level-batched path, which the run path now beats in bytes
        and time; the parameter stays so that callers written for it keep
        working, and any other value is refused.
    pool:
        Where the run encodes run: ``None`` (default) inline, or a
        :class:`repro.parallel.WorkerPool` the caller owns and may reuse
        across calls; the container bytes are identical either way.
    field_bounds:
        Optional ``{field: bound}`` overrides of ``error_bound`` — the
        mixed-physics knob (e.g. WarpX E fields at one bound, B fields at
        a tighter one). Overridden fields resolve their bound under the
        same ``mode``; fields not named keep ``error_bound``. Recorded in
        the container index (``ContainerReader.field_bounds``).
    """
    check_pool(pool)
    comp = resolve_patch_codec(codec)
    names = validate_fields(fields) or hierarchy.field_names
    for name in names:
        if name not in hierarchy.field_names:
            raise CompressionError(f"hierarchy has no field {name!r}")
    if batch not in ("patch", "level"):
        raise CompressionError(f"unknown batch mode {batch!r} (use 'patch' or 'level')")
    field_bounds = validate_field_bounds(field_bounds, names)
    meta = {
        "codec": comp.name,
        "error_bound": float(error_bound),
        "mode": mode,
        "fields": list(names),
        "exclude_covered": exclude_covered,
        "field_bounds": field_bounds,
    }
    buf = io.BytesIO()
    segment = SegmentWriter(ByteSink(buf), comp, pool)
    try:
        for level, name, data, eb, eb_mode in hierarchy_patches(
            hierarchy, names, comp, error_bound, field_bounds, mode, exclude_covered,
        ):
            segment.encode(segment.add(level, name, data, eb, eb_mode))
        segment.finish(meta)
    except BaseException:
        segment.discard()
        raise
    return CompressedHierarchy(buf.getvalue())


def _template_patch(decoded: dict, key: tuple[int, str, int], box) -> np.ndarray:
    """The decoded patch ``key`` on the template's ``box``."""
    arr = decoded.get(key)
    what = _describe(*key)
    if arr is None:
        raise CompressionError(f"template patch {what} is not in the container")
    if arr.size != box.size:
        raise CompressionError(
            f"template patch {what} has {box.size} cells but the container's "
            f"stream holds {arr.size}: the template's boxes are not the container's"
        )
    return arr.reshape(box.shape)


def decompress_hierarchy(
    container: ContainerReader,
    template: AMRHierarchy,
    restore: str = "none",
    pool: WorkerPool | None = None,
) -> AMRHierarchy:
    """Rebuild a hierarchy from compressed streams.

    Parameters
    ----------
    container:
        Output of :func:`compress_hierarchy`, or any snapshot reader
        (grouped streams decode against their shared codebooks
        transparently).
    template:
        Hierarchy providing the box structure and any fields that were not
        compressed (structure travels with the plotfile, not the codec
        stream — matching how AMReX stores metadata separately). A box the
        container holds no patch for, or a patch of another size, is a
        :class:`~repro.errors.CompressionError` naming the first such
        ``(level, field, patch)``.
    restore:
        ``"none"`` — leave decompressed coarse values as stored;
        ``"average_down"`` — rebuild covered coarse cells from fine data
        (recommended with ``exclude_covered=True``).
    pool:
        Where the decode runs: ``None`` (default) inline, or a
        :class:`repro.parallel.WorkerPool` (one run of patches per lane);
        the rebuilt hierarchy is identical either way.
    """
    if restore not in ("none", "average_down"):
        raise CompressionError(f"unknown restore mode {restore!r}")
    decoded = container.select(
        levels=range(template.n_levels),
        fields=[name for name in template.field_names if name in container.fields],
        pool=pool,
    )
    new_levels = []
    for lev_idx, lev in enumerate(template):
        new = AMRLevel(lev.index, lev.boxes, lev.dx)
        for name in template.field_names:
            if name in container.fields:
                patches = [
                    Patch(box, _template_patch(decoded, (lev_idx, name, p_idx), box))
                    for p_idx, box in enumerate(lev.boxes)
                ]
            else:
                patches = [p.copy() for p in lev.patches(name)]
            new.add_field(name, patches)
        new_levels.append(new)
    out = AMRHierarchy(template.domain, new_levels, template.ref_ratios)
    if restore == "average_down":
        for name in container.fields:
            average_down(out, name)
    return out


def decompress_selection(
    source,
    levels=None,
    fields=None,
    patches=None,
    verify: bool = True,
    *,
    steps=None,
    pool: WorkerPool | None = None,
    backend=None,
):
    """Random-access decompression of a subset of patches: ``repro.open``
    the source, ``select`` from it.

    Parameters
    ----------
    source:
        Anything ``repro.open`` takes: a path, raw ``bytes``, an open
        seekable binary file — of an ``RPH2`` snapshot, an ``RPH2S`` series
        or (path only) an ``RPHM`` campaign — or an open reader
        (:class:`ContainerReader`, :class:`repro.insitu.SeriesReader`, a
        sharded reader, an in-memory :class:`CompressedHierarchy`), which is
        used as it is and left open. For indexed sources only the
        footer(s), the index(es), and the selected streams are read —
        O(selection) bytes.
    levels, fields, patches:
        Scalar, iterable, or ``None`` (= all) selectors; a patch is decoded
        when it matches all three.
    verify:
        Check each stream's crc32 against the index before decoding.
    steps:
        Timestep selector (scalar, iterable, or ``None`` = all). Only valid
        for time-series sources; a snapshot source rejects it.
    pool:
        Where the decode runs: ``None`` (default) inline, or a
        :class:`repro.parallel.WorkerPool` the caller owns.
    backend:
        The :class:`repro.storage.StorageBackend` a path is read through
        (default: the local filesystem).

    Returns
    -------
    dict
        ``(level, field, patch) -> np.ndarray`` for snapshot sources, or
        ``(step, level, field, patch) -> np.ndarray`` for series sources.
    """
    # The door imports repro.insitu, which imports this module: resolve it lazily.
    from repro.door import open as open_any

    check_pool(pool)
    reader = open_any(source, backend=backend)
    try:
        return reader.select(
            levels=levels, fields=fields, patches=patches, verify=verify,
            pool=pool, steps=steps,
        )
    finally:
        if reader is not source:
            reader.close()
