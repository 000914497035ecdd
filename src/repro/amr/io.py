"""Plotfile I/O, plus one-call forms of the compressed writers.

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

:func:`write_container`, :func:`write_series`, :func:`write_sharded_series`
and :func:`append_step` write the compressed formats in one call, each
forwarding its options to the writer that declares them. Everything they
write is read through ``repro.open``; crash recovery is
:func:`repro.insitu.recover_series`.
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

__all__ = [
    "write_plotfile",
    "read_plotfile",
    "write_container",
    "write_series",
    "write_sharded_series",
    "append_step",
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


def write_series(path: str | Path, steps, codec: str = "sz-lr",
                 error_bound: float = 1e-3, **options) -> Path:
    """Stream an iterable of timesteps into an ``RPH2S`` series at ``path``.

    ``steps`` yields either bare hierarchies (step number = position, time =
    step number) or objects with ``hierarchy`` / ``index`` / ``time``
    attributes (e.g. :class:`repro.sims.streams.SimStep`). The iterable is
    consumed lazily — pass a generator and peak memory stays O(snapshot).
    Every other option (``mode``, ``fields``, ``durability``, ``pool``,
    ``backend``, ``field_bounds``, ...) is
    :meth:`StreamingWriter.create <repro.insitu.writer.StreamingWriter.create>`'s.
    """
    from repro.insitu.writer import StreamingWriter

    with StreamingWriter.create(path, codec, error_bound, **options) as writer:
        _append_steps(writer, steps)
    return Path(path)


def write_sharded_series(path: str | Path, steps, codec: str = "sz-lr",
                         error_bound: float = 1e-3, **options) -> Path:
    """Stream timesteps into an N-shard campaign behind an RPHM manifest.

    Same ``steps`` contract as :func:`write_series`; ``path`` is the
    manifest, and ``repro.open`` on it reads the union of the shards.
    Every other option (``n_shards``, ``parallel``, ``durability``,
    ``backend``, ``parity``, ``field_bounds``, ...) is
    :meth:`ShardedSeriesWriter.create
    <repro.insitu.sharded.ShardedSeriesWriter.create>`'s.
    """
    from repro.insitu.sharded import ShardedSeriesWriter

    with ShardedSeriesWriter.create(path, codec, error_bound, **options) as writer:
        _append_steps(writer, steps)
    return Path(path)


def append_step(path: str | Path, hierarchy, time: float | None = None,
                step: int | None = None, **options):
    """Append one timestep to an existing ``RPH2S`` series file.

    Reopens the series (its recorded codec/bound/fields are authoritative),
    appends the hierarchy as the next step, rewrites the timestep index,
    and returns the new :class:`~repro.insitu.series.SeriesStepEntry`.
    Every other option (``pool``, ``durability``, ``backend``) is
    :meth:`StreamingWriter.append_to
    <repro.insitu.writer.StreamingWriter.append_to>`'s.
    """
    from repro.insitu.writer import StreamingWriter

    with StreamingWriter.append_to(path, **options) as writer:
        return writer.append_step(hierarchy, time=time, step=step)
