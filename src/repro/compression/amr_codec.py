"""AMR-aware compression of whole hierarchies.

Applies an error-bounded codec per (level, field, patch) and packages the
result into a seekable, patch-indexed container (see
:mod:`repro.compression.container`). Three paper-relevant features:

* **Redundant-data exclusion** (§2.2): patch-based AMR keeps coarse data
  under refined regions; since post-analysis never reads it (Figure 3), the
  codec can overwrite those cells with values that compress to almost
  nothing before encoding. On decompression the cells are either left as
  the filled values (``restore="fill"``) or rebuilt by conservatively
  averaging the decompressed fine data down (``restore="average_down"``),
  which keeps the hierarchy self-consistent for dual-cell visualization.
* **Per-patch independence**: every patch is a separate stream, so runs of
  patches are (de)compressed through :func:`repro.parallel.pool.parallel_map`
  serially, on one background thread or in processes — with identical output.
* **Selective decompression**: the container's footer-located index lets
  :func:`decompress_selection` pull one patch, one level, or one field
  while reading O(selection) payload bytes — and, for ``RPH2S`` time-series
  sources (:mod:`repro.insitu`), one timestep via ``steps=`` selectors.

Containers written before the indexed format (magic ``RPRH``) are no
longer readable: :class:`~repro.compression.container.ContainerReader`
raises a clear "unsupported legacy magic" error instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.amr.coverage import level_covered_masks
from repro.amr.hierarchy import AMRHierarchy
from repro.amr.level import AMRLevel
from repro.amr.patch import Patch
from repro.compression.base import BatchResult, Compressor
from repro.compression.container import (
    ContainerReader,
    GroupHandle,
    _decode_selection,
    _iter_streams,
    _key_filter,
    _reject_steps,
    pack_container,
    pack_group,
)
from repro.compression.registry import codec_accepts, make_codec
from repro.errors import CompressionError, FormatError
from repro.parallel.pool import parallel_map

__all__ = [
    "CompressedHierarchy",
    "compress_hierarchy",
    "decompress_hierarchy",
    "decompress_selection",
    "resolve_patch_codec",
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


# kept: decompress_hierarchy(restore="average_down") reaches it: AMReX's covered-cell rule
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


@dataclass
class CompressedHierarchy:
    """Container of per-patch compressed streams for one hierarchy.

    Level-batched compression (``batch="level"``) additionally carries the
    shared-codebook group sections in ``groups`` (raw ``RPGB`` blobs, gid
    order) and the ``(level, field, patch) -> (gid, member)`` membership in
    ``stream_groups``; both are empty for the per-patch path.
    """

    codec: str
    error_bound: float
    mode: str
    fields: tuple[str, ...]
    exclude_covered: bool
    #: streams[level][field][patch] -> bytes
    streams: list[dict[str, list[bytes]]]
    original_bytes: int
    #: group sections (raw RPGB blobs), indexed by gid.
    groups: list[bytes] = field(default_factory=list)
    #: (level, field, patch) -> (gid, member) for grouped streams.
    stream_groups: dict[tuple[int, str, int], tuple[int, int]] = field(default_factory=dict)
    #: per-field error-bound overrides (empty when single-bound).
    field_bounds: dict[str, float] = field(default_factory=dict)

    @property
    def compressed_bytes(self) -> int:
        """Total payload size (patch streams plus group sections)."""
        return sum(
            len(blob) for level in self.streams for plist in level.values() for blob in plist
        ) + sum(len(g) for g in self.groups)

    @property
    def ratio(self) -> float:
        """Compression ratio over the stored fields."""
        return self.original_bytes / self.compressed_bytes

    def _meta(self) -> dict:
        meta = {
            "codec": self.codec,
            "error_bound": self.error_bound,
            "mode": self.mode,
            "fields": list(self.fields),
            "exclude_covered": self.exclude_covered,
            "original_bytes": self.original_bytes,
        }
        if self.field_bounds:
            meta["field_bounds"] = dict(self.field_bounds)
        return meta

    def tobytes(self) -> bytes:
        """Serialize to the seekable patch-indexed ``RPH2`` container."""
        return pack_container(
            self._meta(), self.streams,
            groups=self.groups or None,
            stream_groups=self.stream_groups or None,
        )

    # kept: decodes an in-memory hierarchy's grouped streams (what CompressedHierarchy.frombytes returns)
    def _group_handle(self, gid: int) -> GroupHandle:
        """Parsed handle over one in-memory group section, cached (the
        shared codebook's decode tables amortize across members)."""
        cache = self.__dict__.setdefault("_group_handles", {})
        if gid not in cache:
            if not 0 <= gid < len(self.groups):
                raise FormatError(f"hierarchy has no group {gid}")
            cache[gid] = GroupHandle(gid, self.groups[gid])
        return cache[gid]

    def select(
        self,
        levels=None,
        fields=None,
        patches=None,
        verify: bool = True,
        parallel: str = "serial",
        workers: int = 2,
        pool=None,
        *,
        steps=None,
    ) -> dict[tuple[int, str, int], np.ndarray]:
        """Decompress a subset of in-memory streams (see
        :func:`decompress_selection` for the selector semantics).

        Streams are already in memory, so this filters and decodes them
        directly — no serialization round-trip — in the runs every reader
        decodes in (:func:`repro.compression.container._decode_selection`).
        The keywords are every reader's: ``verify`` is ignored (there is no
        index to check crcs against) and ``steps`` must be ``None``.
        """
        _reject_steps(steps)
        wanted = _key_filter(levels, fields, patches)
        copy = parallel == "process" or (pool is not None and pool.mode == "process")
        members = []
        for lev_idx, field, p_idx, blob in _iter_streams(self.streams):
            if wanted(key := (lev_idx, field, p_idx)):
                gid, member = self.stream_groups.get(key, (None, None))
                shared = None if gid is None else self._group_handle(gid).shared(member, copy=copy)
                members.append((key, self.codec, blob, shared))
        arrays = _decode_selection(members, parallel, workers, pool)
        return {member[0]: arr for member, arr in zip(members, arrays)}

    # kept: benchmarks/e2e/trace.py ENTRY_POINTS names it
    @classmethod
    def frombytes(cls, raw: bytes) -> "CompressedHierarchy":
        """Parse a container produced by :meth:`tobytes`.

        Accepts the indexed ``RPH2`` format only; anything else —
        including the legacy monolithic ``RPRH`` magic, which
        :class:`ContainerReader` names in its rejection — is a
        :class:`~repro.errors.FormatError`.
        """
        return cls.fromreader(ContainerReader(raw))

    @classmethod
    def fromreader(cls, reader: ContainerReader) -> "CompressedHierarchy":
        """Materialize every stream of an open :class:`ContainerReader`.

        Streams (and group sections) are owned ``bytes`` regardless of the
        reader's mode: an in-memory hierarchy outlives the reader (and
        pickles under process-mode selection), so zero-copy views are
        copied out here — the one place materialization is the point.
        """
        streams: list[dict[str, list[bytes]]] = [{} for _ in range(reader.n_levels)]
        stream_groups: dict[tuple[int, str, int], tuple[int, int]] = {}
        for entry in reader.entries:
            plist = streams[entry.level].setdefault(entry.field, [])
            if entry.patch != len(plist):
                raise FormatError(
                    f"container index out of order at patch {entry.describe()}"
                )
            plist.append(bytes(reader.read_stream(entry)))
            if entry.group is not None:
                stream_groups[entry.key] = (entry.group, entry.member)
        group_rows = sorted(reader.group_entries, key=lambda g: g.gid)
        if [g.gid for g in group_rows] != list(range(len(group_rows))):
            raise FormatError(
                "container group ids are not contiguous from 0 "
                f"(got {[g.gid for g in group_rows]})"
            )
        groups = [bytes(reader.read_group_blob(g.gid)) for g in group_rows]
        return cls(
            codec=reader.codec,
            error_bound=reader.error_bound,
            mode=reader.mode,
            fields=reader.fields,
            exclude_covered=reader.exclude_covered,
            streams=streams,
            original_bytes=reader.original_bytes,
            groups=groups,
            stream_groups=stream_groups,
            field_bounds=reader.field_bounds,
        )

#: Cells a run of patches may hold before it is encoded; where a run is cut
#: never changes a byte. ``benchmarks/e2e`` ``campaign_write`` (62 fine patches
#: per field, median 8^3), medians of ten pairs: 8 k cells and the heap tree
#: build 240 ms/op, 160.7 MB peak RSS; 64 k and the two-queue build 181 ms,
#: 164.9 MB (+2.6 %: a run's int64 temporaries); the budget alone is -10 %.
#: 8 k was once kept because ``ops_per_s`` resolved only 0.22 /s of spread; its
#: bound is now 25 % of ~4.2 /s, ~1.06 /s, and runs spread by 0.17-0.27 /s
#: between quartiles (``docs/performance.md``).
RUN_CELL_BUDGET = 1 << 16


class PatchRuns:
    """Where runs of patches ``(key, members, bounds)`` are cut, for the
    streaming writer and :func:`compress_hierarchy` alike: consecutive
    patches of one key, up to :data:`RUN_CELL_BUDGET` cells."""

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


def _compress_task(task: tuple[Compressor, object, object, str]) -> BatchResult:
    """Module-level compress task (picklable for process mode): one group
    of patches under resolved absolute bounds, in layout ``batch``."""
    comp, members, bounds, batch = task
    return comp.compress_batch(members, bounds, "abs", batch=batch)


def resolve_patch_codec(codec: str | Compressor, k_streams: int | str = "auto") -> Compressor:
    """Resolve a registry name or instance into a patch-ready codec.

    Per-patch arrays are sized by the regridder's blocking factor (multiples
    of 4/8), so ``sz-lr`` gets automatic block selection to avoid the
    edge-padding waste a fixed 6-cube would pay on them; ``k_streams``
    (the Huffman interleave width, threaded from
    :func:`compress_hierarchy`) is forwarded to named codecs the same way.
    Both the batch :func:`compress_hierarchy` path and the streaming
    :class:`repro.insitu.StreamingWriter` resolve codecs through here, which
    is what keeps their output streams byte-identical. Codec *instances*
    pass through unchanged — they already carry their configuration.
    Custom codecs registered through ``register_codec`` whose factories
    never grew a ``k_streams`` parameter are constructed without it.
    """
    if isinstance(codec, str):
        kwargs: dict = {}
        if codec_accepts(codec, "k_streams"):
            kwargs["k_streams"] = k_streams
        if codec == "sz-lr":
            kwargs["block_size"] = "auto"
        return make_codec(codec, **kwargs)
    return codec


def validate_field_bounds(field_bounds, fields) -> dict[str, float]:
    """Normalize a ``{field: bound}`` override mapping (empty when None).

    Bounds must be positive finite numbers; when the field set is already
    known (``fields`` is not None), every override key must name one of
    its fields. Shared by :func:`compress_hierarchy`, the streaming
    writer, and the sharded campaign writer so every entry point rejects
    bad overrides identically.
    """
    if not field_bounds:
        return {}
    out: dict[str, float] = {}
    for name, bound in field_bounds.items():
        eb = float(bound)
        if not eb > 0 or eb != eb or eb == float("inf"):
            raise CompressionError(
                f"field_bounds[{name!r}] must be a positive finite bound, got {bound!r}"
            )
        out[str(name)] = eb
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
    parallel: str = "serial",
    workers: int = 2,
    k_streams: int | str = "auto",
    batch: str = "patch",
    pool=None,
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
    parallel, workers:
        Execution mode for the per-patch map (``"serial"``, ``"thread"`` —
        one background lane — or ``"process"``, ``workers`` processes); the
        container bytes are identical across modes.
    k_streams:
        Huffman interleave width forwarded to named codecs (``"auto"``
        scales with each patch for the vectorized decode); ignored when
        ``codec`` is an instance, which already carries its configuration.
    batch:
        ``"patch"`` (historical: one codec call per patch) or ``"level"``
        — the **fused level-batched path**: all same-shape patches of one
        (level, field) run prediction + quantization as one batched kernel
        invocation and share one Huffman codebook per group, written as
        grouped container streams (see ``docs/container_format.md``).
        Real AMR hierarchies are built from many small patches at fixed
        blocking factors, so this amortizes every per-stream fixed cost
        the paper's workload shape is dominated by. Requires a codec with
        ``supports_batch`` (``sz-lr``, ``sz-interp``); the parallel map
        then runs per *group*, and the container bytes remain identical
        across serial/thread/process.
    pool:
        Optional persistent :class:`repro.parallel.WorkerPool`, reused
        across calls (e.g. across timesteps) instead of building an
        executor per call; overrides ``parallel``/``workers``.
    field_bounds:
        Optional ``{field: bound}`` overrides of ``error_bound`` — the
        mixed-physics knob (e.g. WarpX E fields at one bound, B fields at
        a tighter one). Overridden fields resolve their bound under the
        same ``mode``; fields not named keep ``error_bound``. Recorded in
        the container index (``ContainerReader.field_bounds``).
    """
    comp = resolve_patch_codec(codec, k_streams=k_streams)
    names = tuple(fields) if fields is not None else hierarchy.field_names
    for name in names:
        if name not in hierarchy.field_names:
            raise CompressionError(f"hierarchy has no field {name!r}")
    if batch not in ("patch", "level"):
        raise CompressionError(f"unknown batch mode {batch!r} (use 'patch' or 'level')")
    field_bounds = validate_field_bounds(field_bounds, names)
    if batch == "level":
        return _compress_hierarchy_batched(
            hierarchy, comp, error_bound, mode, names, exclude_covered,
            parallel, workers, pool, field_bounds,
        )
    # Cut each (level, field) into runs of patches (PatchRuns): the map
    # over runs is pure (paper §3.3) and a run's streams are the per-patch
    # streams byte for byte, so any executor that preserves order — and
    # any cut — produces the same container bytes.
    runs, cutter = [], PatchRuns()
    for lev_idx, lev in enumerate(hierarchy):
        masks = level_covered_masks(hierarchy, lev_idx) if exclude_covered else None
        for name in names:
            field_eb = field_bounds.get(name, error_bound)
            for p_idx, patch in enumerate(lev.patches(name)):
                data = patch.data
                if masks is not None and masks[p_idx].any():
                    # Resolve the bound against the *original* values first:
                    # filling may shrink the range (peaks often live under
                    # the refined region) and must not tighten the bound.
                    bound = comp.resolve_error_bound(data, field_eb, mode)
                    data = _fill_covered(data, masks[p_idx])
                else:
                    bound = comp.resolve_member_bound(data, field_eb, mode)
                runs += cutter.add((lev_idx, name), data, bound)
    runs += cutter.flush()
    tasks = [(comp, members, bounds, "patch") for _, members, bounds in runs]
    results = parallel_map(_compress_task, tasks, mode=parallel, workers=workers, pool=pool)
    streams: list[dict[str, list[bytes]]] = [{name: [] for name in names} for _ in hierarchy]
    for ((lev_idx, name), _, _), result in zip(runs, results):
        streams[lev_idx][name] += result.streams
    original = sum(hierarchy.nbytes(name) for name in names)
    return CompressedHierarchy(
        codec=comp.name,
        error_bound=float(error_bound),
        mode=mode,
        fields=names,
        exclude_covered=exclude_covered,
        streams=streams,
        original_bytes=original,
        field_bounds=field_bounds,
    )


def _compress_hierarchy_batched(
    hierarchy: AMRHierarchy,
    comp: Compressor,
    error_bound: float,
    mode: str,
    names: tuple[str, ...],
    exclude_covered: bool,
    parallel: str,
    workers: int,
    pool,
    field_bounds: dict[str, float],
) -> CompressedHierarchy:
    """The ``batch="level"`` body of :func:`compress_hierarchy`.

    Groups same-shape patches of each (level, field) into one fused
    ``compress_batch`` task; the parallel map runs per group. Group ids
    are assigned in deterministic task order (level ascending, field in
    ``names`` order, shape by first appearance), so the container bytes —
    like the per-patch path's — are identical across execution modes.
    """
    if not getattr(comp, "supports_batch", False):
        raise CompressionError(
            f"codec {comp.name!r} does not implement the level-batched fused "
            "path; use batch='patch' (batch-capable codecs: sz-lr, sz-interp)"
        )
    # One task per (level, field, patch shape): stack the members and
    # resolve every bound to an absolute value up front (identical math to
    # the per-patch path, including the covered-cell fill ordering).
    tasks: list[tuple] = []
    memberships: list[list[tuple[int, str, int]]] = []  # task -> member keys
    counts_by_level: list[dict[str, int]] = []
    for lev_idx, lev in enumerate(hierarchy):
        masks = level_covered_masks(hierarchy, lev_idx) if exclude_covered else None
        counts: dict[str, int] = {}
        for name in names:
            patches = lev.patches(name)
            counts[name] = len(patches)
            field_eb = field_bounds.get(name, error_bound)
            by_shape: dict[tuple[int, ...], list[int]] = {}
            for p_idx, patch in enumerate(patches):
                by_shape.setdefault(patch.box.shape, []).append(p_idx)
            for idxs in by_shape.values():
                stacked = np.stack([patches[p].data for p in idxs])
                # Bounds resolve against the *original* values, vectorized
                # over the stack; the covered-cell fill (which may shrink a
                # patch's range and must not tighten its bound) runs after.
                bounds = comp.resolve_error_bounds(stacked, field_eb, mode)
                if masks is not None:
                    for row, p_idx in enumerate(idxs):
                        if masks[p_idx].any():
                            stacked[row] = _fill_covered(stacked[row], masks[p_idx])
                tasks.append((comp, stacked, bounds, "level"))
                memberships.append([(lev_idx, name, p) for p in idxs])
        counts_by_level.append(counts)
    results = parallel_map(_compress_task, tasks, mode=parallel, workers=workers, pool=pool)
    # Deterministic assembly: gids in task order, skipping fallback groups
    # (pooled alphabet too large -> members became self-contained streams).
    streams: list[dict[str, list[bytes]]] = [
        {name: [b""] * counts[name] for name in names} for counts in counts_by_level
    ]
    groups: list[bytes] = []
    stream_groups: dict[tuple[int, str, int], tuple[int, int]] = {}
    for keys, result in zip(memberships, results):
        if result.codebook is not None:
            gid = len(groups)
            groups.append(pack_group(result.codebook, result.payloads))
            for member, key in enumerate(keys):
                stream_groups[key] = (gid, member)
        for (lev_idx, name, p_idx), blob in zip(keys, result.streams):
            streams[lev_idx][name][p_idx] = blob
    original = sum(hierarchy.nbytes(name) for name in names)
    return CompressedHierarchy(
        codec=comp.name,
        error_bound=float(error_bound),
        mode=mode,
        fields=names,
        exclude_covered=exclude_covered,
        streams=streams,
        original_bytes=original,
        groups=groups,
        stream_groups=stream_groups,
        field_bounds=field_bounds,
    )


def decompress_hierarchy(
    container: CompressedHierarchy,
    template: AMRHierarchy,
    restore: str = "none",
    parallel: str = "serial",
    workers: int = 2,
    pool=None,
) -> AMRHierarchy:
    """Rebuild a hierarchy from compressed streams.

    Parameters
    ----------
    container:
        Output of :func:`compress_hierarchy` (per-patch or level-batched;
        grouped streams decode against their shared codebooks
        transparently).
    template:
        Hierarchy providing the box structure and any fields that were not
        compressed (structure travels with the plotfile, not the codec
        stream — matching how AMReX stores metadata separately).
    restore:
        ``"none"`` — leave decompressed coarse values as stored;
        ``"average_down"`` — rebuild covered coarse cells from fine data
        (recommended with ``exclude_covered=True``).
    parallel, workers:
        Execution mode for the decode (one run of patches per lane:
        ``workers`` under ``"process"``, else one); the rebuilt hierarchy
        is identical across modes.
    pool:
        Optional persistent :class:`repro.parallel.WorkerPool` to run the
        decode on (overrides ``parallel``/``workers``).
    """
    if restore not in ("none", "average_down"):
        raise CompressionError(f"unknown restore mode {restore!r}")
    decoded = container.select(
        levels=range(template.n_levels),
        fields=[name for name in template.field_names if name in container.fields],
        parallel=parallel, workers=workers, pool=pool,
    )
    new_levels = []
    for lev_idx, lev in enumerate(template):
        new = AMRLevel(lev.index, lev.boxes, lev.dx)
        for name in template.field_names:
            if name in container.fields:
                patches = [
                    Patch(box, decoded[(lev_idx, name, p_idx)].reshape(box.shape))
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
    parallel: str = "serial",
    workers: int = 2,
    *,
    steps=None,
    pool=None,
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
    parallel, workers:
        Execution mode for the decode map (``workers`` sizes ``"process"``;
        ``"thread"`` is one background lane).
    steps:
        Timestep selector (scalar, iterable, or ``None`` = all). Only valid
        for time-series sources; a snapshot source rejects it.
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

    reader = open_any(source, backend=backend)
    try:
        return reader.select(
            levels=levels, fields=fields, patches=patches, verify=verify,
            parallel=parallel, workers=workers, pool=pool, steps=steps,
        )
    finally:
        if reader is not source:
            reader.close()
