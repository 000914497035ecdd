"""Plotfile I/O: a self-contained on-disk format for AMR hierarchies.

The paper's datasets are AMReX plotfiles / HDF5 groups with one group per
level (Figure 3 left). HDF5 is unavailable offline, so this module provides
an equivalent directory layout:

.. code-block:: text

    myplt/
      Header.json                     # domain, ratios, boxes, fields
      level_0/density_00000.npy       # one array per (field, patch)
      level_0/density_00001.npy
      level_1/density_00000.npy
      ...

Arrays are stored as ``.npy`` (no pickling), so any NumPy can read them.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.amr.box import Box
from repro.amr.boxarray import BoxArray
from repro.amr.hierarchy import AMRHierarchy
from repro.amr.level import AMRLevel
from repro.amr.patch import Patch
from repro.errors import FormatError
from repro.storage import ByteSource

__all__ = [
    "write_plotfile",
    "read_plotfile",
    "write_container",
    "read_container",
    "open_container",
    "write_series",
    "write_sharded_series",
    "append_step",
    "open_series",
    "recover_series",
]

_FORMAT_NAME = "repro-amr-plotfile"
_FORMAT_VERSION = 1


def write_plotfile(path: str | Path, hierarchy: AMRHierarchy, overwrite: bool = False) -> Path:
    """Serialize ``hierarchy`` to directory ``path``.

    Parameters
    ----------
    path:
        Target directory (created; must not exist unless ``overwrite``).
    hierarchy:
        Dataset to store.
    overwrite:
        Allow writing into an existing directory.

    Returns
    -------
    pathlib.Path
        The plotfile directory.
    """
    root = Path(path)
    if root.exists() and not overwrite:
        raise FormatError(f"plotfile path {root} already exists (pass overwrite=True)")
    root.mkdir(parents=True, exist_ok=True)
    header = {
        "format": _FORMAT_NAME,
        "version": _FORMAT_VERSION,
        "ndim": hierarchy.ndim,
        "domain": {"lo": list(hierarchy.domain.lo), "hi": list(hierarchy.domain.hi)},
        "ref_ratios": [list(r) for r in hierarchy.ref_ratios],
        "fields": list(hierarchy.field_names),
        "levels": [],
    }
    for lev in hierarchy:
        lev_dir = root / f"level_{lev.index}"
        lev_dir.mkdir(exist_ok=True)
        header["levels"].append(
            {
                "index": lev.index,
                "dx": list(lev.dx),
                "boxes": [{"lo": list(b.lo), "hi": list(b.hi)} for b in lev.boxes],
            }
        )
        for field in hierarchy.field_names:
            for i, patch in enumerate(lev.patches(field)):
                np.save(lev_dir / f"{field}_{i:05d}.npy", patch.data, allow_pickle=False)
    (root / "Header.json").write_text(json.dumps(header, indent=2))
    return root


def read_plotfile(path: str | Path) -> AMRHierarchy:
    """Load a hierarchy previously written by :func:`write_plotfile`."""
    root = Path(path)
    header_path = root / "Header.json"
    if not header_path.is_file():
        raise FormatError(f"{root} is not a plotfile (missing Header.json)")
    try:
        header = json.loads(header_path.read_text())
    except json.JSONDecodeError as exc:
        raise FormatError(f"corrupt plotfile header: {exc}") from exc
    if header.get("format") != _FORMAT_NAME:
        raise FormatError(f"unrecognized plotfile format {header.get('format')!r}")
    if header.get("version") != _FORMAT_VERSION:
        raise FormatError(f"unsupported plotfile version {header.get('version')!r}")
    fields = list(header["fields"])
    domain = Box(tuple(header["domain"]["lo"]), tuple(header["domain"]["hi"]))
    levels = []
    for lev_hdr in header["levels"]:
        idx = int(lev_hdr["index"])
        boxes = BoxArray(Box(tuple(b["lo"]), tuple(b["hi"])) for b in lev_hdr["boxes"])
        level = AMRLevel(idx, boxes, tuple(lev_hdr["dx"]))
        lev_dir = root / f"level_{idx}"
        for field in fields:
            patches = []
            for i, box in enumerate(boxes):
                file = lev_dir / f"{field}_{i:05d}.npy"
                if not file.is_file():
                    raise FormatError(f"plotfile missing patch file {file}")
                data = np.load(file, allow_pickle=False)
                if data.shape != box.shape:
                    raise FormatError(
                        f"{file}: stored shape {data.shape} != box shape {box.shape}"
                    )
                patches.append(Patch(box, data))
            level.add_field(field, patches)
        levels.append(level)
    ratios = [tuple(r) for r in header["ref_ratios"]]
    if not ratios:
        return AMRHierarchy(domain, levels, 2)
    return AMRHierarchy(domain, levels, ratios)


# ----------------------------------------------------------------------
# Compressed containers (.rprh): the seekable RPH2 patch-indexed format.
# The compression imports stay inside the functions — repro.compression
# imports this package's submodules, so a module-level import would cycle.
# ----------------------------------------------------------------------
def write_container(path: str | Path, container, overwrite: bool = False) -> Path:
    """Write a :class:`~repro.compression.amr_codec.CompressedHierarchy`
    to ``path`` in the seekable ``RPH2`` container format."""
    target = Path(path)
    if target.exists() and not overwrite:
        raise FormatError(f"container path {target} already exists (pass overwrite=True)")
    target.write_bytes(container.tobytes())
    return target


def read_container(path: str | Path):
    """Load a full :class:`~repro.compression.amr_codec.CompressedHierarchy`
    from an ``RPH2`` container at ``path`` (every stream crc-checked)."""
    from repro.compression.amr_codec import CompressedHierarchy

    with ByteSource.open(path) as src:
        return CompressedHierarchy.frombytes(src.read(0, src.size))


# kept: the snapshot door of docs/api.md, held to the snapshot parser
def open_container(path: str | Path, backend=None):
    """Open ``path`` for random access and return a
    :class:`~repro.compression.container.ContainerReader` — ``repro.open``
    held to the snapshot parser, which refuses anything else by its magic.

    Only the footer and index are read eagerly; use the reader's
    :meth:`~repro.compression.container.ContainerReader.select` /
    :meth:`~repro.compression.container.ContainerReader.read_patch` for
    O(patch)-byte selective decompression. ``backend`` redirects reads
    through a :class:`repro.storage.StorageBackend`.
    """
    from repro.compression.container import ContainerReader

    return ContainerReader.open(path, backend=backend)


# ----------------------------------------------------------------------
# Time-series containers (.rph2s): streaming in-situ campaigns.
# ----------------------------------------------------------------------
def _append_steps(writer, steps) -> None:
    """Feed :func:`write_series`'s ``steps`` contract to a series writer."""
    for item in steps:
        if hasattr(item, "hierarchy"):
            writer.append_step(
                item.hierarchy,
                time=getattr(item, "time", None),
                step=getattr(item, "index", None),
            )
        else:
            writer.append_step(item)


def write_series(
    path: str | Path,
    steps,
    codec: str = "sz-lr",
    error_bound: float = 1e-3,
    mode: str = "rel",
    fields=None,
    exclude_covered: bool = False,
    overwrite: bool = False,
    durability: str = "close",
    pool=None,
) -> Path:
    """Stream an iterable of timesteps into an ``RPH2S`` series at ``path``.

    ``steps`` yields either bare hierarchies (step number = position, time =
    step number) or objects with ``hierarchy`` / ``index`` / ``time``
    attributes (e.g. :class:`repro.sims.streams.SimStep`). The iterable is
    consumed lazily — pass a generator and peak memory stays O(snapshot).
    ``durability="step"`` fsyncs every sealed step (crash loses at most the
    step in flight); the default syncs at close only. ``pool``: as
    :class:`~repro.insitu.StreamingWriter`'s.
    """
    from repro.insitu.writer import StreamingWriter

    with StreamingWriter.create(
        path, codec, error_bound, mode=mode, fields=fields,
        exclude_covered=exclude_covered, overwrite=overwrite,
        durability=durability, pool=pool,
    ) as writer:
        _append_steps(writer, steps)
    return Path(path)


def write_sharded_series(
    path: str | Path,
    steps,
    codec: str = "sz-lr",
    error_bound: float = 1e-3,
    mode: str = "rel",
    n_shards: int = 4,
    fields=None,
    exclude_covered: bool = False,
    overwrite: bool = False,
    parallel: str = "thread",
    durability="close",
    backend=None,
    parity: int = 0,
) -> Path:
    """Stream timesteps into an N-shard campaign behind an RPHM manifest.

    Same ``steps`` contract as :func:`write_series`, but the campaign fans
    out across ``n_shards`` shard files (``parallel="thread"``: appended in
    arrival order on one background lane — asynchrony, not multi-core
    encode); ``path`` is the manifest, and :func:`open_series` on
    it reads the union transparently. ``durability`` may be one mode or a
    per-shard sequence; ``backend`` redirects all bytes through a
    :class:`repro.storage.StorageBackend`. ``parity=p`` additionally
    writes ``p`` XOR parity shards at close, making the finished campaign
    repairable after shard damage or loss
    (:func:`repro.integrity.repair_sharded`, and self-healing reads in
    :mod:`repro.serve`).
    """
    from repro.insitu.sharded import ShardedSeriesWriter

    with ShardedSeriesWriter.create(
        path, codec, error_bound, mode=mode, n_shards=n_shards, fields=fields,
        exclude_covered=exclude_covered, parallel=parallel,
        durability=durability, overwrite=overwrite, backend=backend,
        parity=parity,
    ) as writer:
        _append_steps(writer, steps)
    return Path(path)


def append_step(path: str | Path, hierarchy, time: float | None = None,
                step: int | None = None, durability: str = "close", pool=None):
    """Append one timestep to an existing ``RPH2S`` series file.

    Reopens the series (its recorded codec/bound/fields are authoritative),
    appends the hierarchy as the next step, rewrites the timestep index,
    and returns the new :class:`~repro.insitu.series.SeriesStepEntry`.
    """
    from repro.insitu.writer import StreamingWriter

    with StreamingWriter.append_to(path, pool=pool, durability=durability) as writer:
        return writer.append_step(hierarchy, time=time, step=step)


# kept: the series door of docs/api.md, held to the series parser
def open_series(path: str | Path, backend=None):
    """Open an ``RPH2S`` series for random access and return a
    :class:`~repro.insitu.series.SeriesReader` — ``repro.open`` held to
    the series parser, which refuses a snapshot by its magic.

    Only the series footer and timestep index are read eagerly; use the
    reader's :meth:`~repro.insitu.series.SeriesReader.select` /
    :meth:`~repro.insitu.series.SeriesReader.read_patch` for
    O(selection)-byte access to ``(step, level, field, patch)``.

    A path holding a sharded campaign's ``RPHM`` manifest is opened
    transparently as a :class:`~repro.insitu.sharded.ShardedSeriesReader`
    serving the union of its shards; ``backend`` redirects reads through
    a :class:`repro.storage.StorageBackend`.
    """
    from repro.insitu.series import SeriesReader

    return SeriesReader.open(path, backend=backend)


def recover_series(path: str | Path, commit: bool = False,
                   output: str | Path | None = None, backend=None):
    """Diagnose (and optionally repair) an interrupted ``RPH2S`` write.

    Dry run by default: returns a
    :class:`~repro.insitu.recovery.RecoveryReport` describing every
    fully-sealed step still salvageable from ``path`` without modifying the
    file. With ``commit=True`` trailing garbage is truncated and a fresh
    timestep index + footer appended, after which the series opens
    normally; ``output`` redirects the rewrite to a new file. See
    :mod:`repro.insitu.recovery` for the scan semantics. ``backend``
    resolves ``path`` and ``output`` (default: the local filesystem).

    A sharded campaign's ``RPHM`` manifest routes to
    :func:`repro.insitu.sharded.recover_sharded`: every shard is salvaged
    independently and the manifest rebuilt from the surviving indexes
    (``output`` is not supported there — recovery is per shard, in place).
    A snapshot container is written in one piece and has nothing to
    recover: it is refused by name.
    """
    from repro.door import kind_of
    from repro.insitu.recovery import recover_series as _recover
    from repro.insitu.sharded import recover_sharded

    kind = kind_of(path, backend=backend)
    if kind == "snapshot":
        raise FormatError(
            f"{path} is an RPH2 snapshot container, written in one piece; only "
            "an RPH2S series or an RPHM campaign can be recovered"
        )
    if kind == "campaign":
        if output is not None:
            raise FormatError(
                "recover_series(output=...) is not supported for sharded "
                "manifests; shards are recovered in place"
            )
        return recover_sharded(path, commit=commit, backend=backend)
    return _recover(path, commit=commit, output=output, backend=backend)
