"""The one way in: ``repro.open`` — whatever the writers produced, opened.

An ``RPH2`` snapshot, an ``RPH2S`` series or an ``RPHM`` campaign manifest
arrives as a path, a byte buffer, a seekable file object or an open reader.
Those decisions are taken here, once: one :class:`~repro.storage.ByteSource`
under the sniff and the parse, one :func:`sniff`, one "not ours" error. The
typed opens are special cases (``SeriesReader.open`` holds whatever is not a
manifest to the series parser; ``ContainerReader.open`` is one source and
the container parser) and every parser still refuses alien bytes itself.
``docs/api.md`` ("Opening data") has the examples.
"""

from __future__ import annotations

import os

from repro.compression.container import CONTAINER_MAGIC, ContainerReader
from repro.errors import CompressionError, FormatError, TruncatedSeriesError
from repro.insitu.recovery import scan_segments
from repro.insitu.series import SERIES_MAGIC, SeriesReader
from repro.insitu.sharded import MANIFEST_MAGIC, ShardedSeriesReader
from repro.storage import ByteSource

__all__ = ["open", "sniff", "kind_of"]

#: Leading bytes -> kind. ``RPH2S`` extends ``RPH2`` by design, so the longer
#: magic comes first; ``RPRH`` is the pre-index snapshot, which the container
#: parser names in its refusal.
_MAGICS = (
    (SERIES_MAGIC, "series"),
    (MANIFEST_MAGIC, "campaign"),
    (CONTAINER_MAGIC, "snapshot"),
    (b"RPRH", "snapshot"),
)
_PARSERS = {"snapshot": ContainerReader, "series": SeriesReader}


def sniff(head) -> str | None:
    """``"snapshot"``, ``"series"`` or ``"campaign"`` for the leading bytes
    of an ``RPH2`` / ``RPH2S`` / ``RPHM`` object, ``None`` for anything else
    — the only place a magic is compared to choose a parser."""
    return next((kind for magic, kind in _MAGICS if head.startswith(magic)), None)


def _source(target, backend, mmap) -> tuple[ByteSource, str | None]:
    """The one source under ``target``, and what it was given as when that
    was not a path: a path is opened through ``backend`` / ``mmap`` and
    owned, anything else borrowed."""
    if isinstance(target, (str, os.PathLike)):
        return ByteSource.open(target, mmap=mmap, backend=backend), None
    src = ByteSource(target)
    return src, "bytes" if src.mapped else "a file object"


def kind_of(target, *, backend=None) -> str | None:
    """:func:`sniff` of a path, buffer or file object, and nothing more."""
    with _source(target, backend, False)[0] as src:
        return sniff(src.read(0, len(SERIES_MAGIC)))


def open(target, *, backend=None, mmap=False, recover=False):
    """Open a snapshot, series or campaign for random access.

    ``target`` is a path, a byte buffer (zero-copy), a seekable binary file
    object (borrowed: closing the reader leaves it open), or an open reader
    — anything with a ``select`` — which is handed back untouched and stays
    the caller's to close. The result is the matching ``ContainerReader``,
    ``SeriesReader`` or ``ShardedSeriesReader``: ``reader.kind`` says which,
    all are context managers, and all take the same ``select(levels=,
    fields=, patches=, verify=, parallel=, workers=, pool=, steps=)``.

    ``backend`` (default: the local filesystem) serves a path's bytes and a
    campaign's shards, ``mmap=True`` maps a local path instead, and
    ``recover=True`` serves the sealed steps a killed writer left behind
    (:meth:`SeriesReader.open <repro.insitu.series.SeriesReader.open>`). A
    missing path is a ``StorageError``, bytes in none of the three formats a
    ``FormatError``, a manifest given without its path a ``CompressionError``.
    """
    if hasattr(target, "select"):
        return target
    return _open(target, None, backend=backend, mmap=mmap, recover=recover)


def _open(target, held_to, *, backend, mmap, recover):
    """:func:`open`; the typed opens pass the parser (``held_to``) that
    whatever is not a manifest must satisfy."""
    src, given = _source(target, backend, mmap)
    try:
        head = src.read(0, len(SERIES_MAGIC))
        kind = sniff(head)
        if kind != "campaign":
            parser = held_to or _PARSERS.get(kind)
            if parser is None:
                raise FormatError(
                    "not an RPH2 container, RPH2S series, or RPHM manifest "
                    f"(magic {head!r})"
                )
            try:
                return parser(src)
            except TruncatedSeriesError:
                if not recover:
                    raise
            report = scan_segments(src)
            if not report.entries:
                raise TruncatedSeriesError(
                    f"{given or target}: damaged series "
                    "holds no fully-sealed steps; nothing to recover"
                )
            return SeriesReader(src, _recovery=report)
        if given:
            raise CompressionError(
                "RPHM manifests reference sibling shard files; pass the "
                f"manifest path (or an open ShardedSeriesReader), not {given}"
            )
        manifest = src.read(0, src.size)
    except BaseException:
        src.close()
        raise
    src.close()
    return ShardedSeriesReader._federate(
        target, manifest, mmap=mmap, recover=recover, backend=backend
    )
