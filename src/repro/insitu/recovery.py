"""Crash recovery for interrupted RPH2S series writes.

A killed in-situ campaign (node failure, preemption, OOM) leaves an RPH2S
file without its series footer — historically unreadable, even though every
already-compressed timestep is sitting intact on disk. This module is the
salvage path:

* :func:`scan_segments` walks the file from offset 0 and rebuilds the
  timestep index from the per-step **seal records**
  (:data:`~repro.insitu.series.SEAL_MAGIC`) the
  :class:`~repro.insitu.writer.StreamingWriter` writes after every
  segment. A sealed step is recovered when its 64-byte seal record
  crc-validates *and* the whole-segment crc32 it restates matches the
  bytes on disk. When a segment's seal itself was destroyed, the scanner
  falls back to locating the segment's own RPH2 footer and validates
  every per-stream crc before trusting it (step number and time are then
  synthesized, monotonically). Damage in the middle of the file is
  skipped by resyncing on the next valid seal.
* :func:`recover_series` wraps the scan as a dry-run report and, with
  ``commit=True``, truncates trailing garbage and appends a fresh
  timestep index + footer (byte-identical to what an uninterrupted
  writer would have emitted for the surviving steps).
* :meth:`SeriesReader.open(..., recover=True)
  <repro.insitu.series.SeriesReader.open>` serves a damaged file
  read-only through the same scan, without modifying it.

Every path reads O(scan) bytes — a bounded constant number of passes over
the file, independent of the number of steps — never O(steps x file).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

from repro.compression.container import (
    CONTAINER_MAGIC,
    CONTAINER_VERSION,
    FOOTER_MAGIC,
    FOOTER_SIZE,
    HEADER_SIZE,
    ContainerReader,
    pack_footer,
    unpack_footer,
)
from repro.errors import FormatError, TruncatedSeriesError
from repro.insitu.series import (
    SEAL_MAGIC,
    SEAL_SIZE,
    SERIES_FOOTER_MAGIC,
    SERIES_MAGIC,
    SERIES_VERSION,
    _SERIES_HEADER,
    SeriesReader,
    extract_series_meta,
    SeriesStepEntry,
    build_series_index_bytes,
    unpack_seal,
)
from repro.storage import ByteSink, ByteSource, StorageBackend

__all__ = [
    "RecoveredStep",
    "DamagedExtent",
    "RecoveryReport",
    "scan_segments",
    "recover_series",
    "commit_recovery",
]

#: Chunk size for the forward magic scans.
_SCAN_CHUNK = 1 << 20


@dataclass(frozen=True)
class RecoveredStep:
    """One salvaged timestep.

    ``sealed`` is True when the step was validated through its seal record
    (whole-segment crc); False when it was reconstructed from the segment's
    own footer (per-stream crcs validated, step number/time synthesized).
    """

    entry: SeriesStepEntry
    sealed: bool


@dataclass(frozen=True)
class DamagedExtent:
    """A byte range the scan had to drop, and why."""

    offset: int
    length: int
    reason: str


@dataclass
class RecoveryReport:
    """Outcome of a recovery scan over one series file.

    ``intact`` is True when the series footer and timestep index parsed
    cleanly (nothing to do); otherwise ``reason`` names the failure that
    triggered the scan. ``data_end`` is the commit truncation point: the
    end of the last recovered seal (or segment), with ``tail_bytes`` of
    unrecoverable bytes after it.
    """

    total_bytes: int
    intact: bool
    reason: str | None
    meta: dict | None
    steps: list[RecoveredStep] = field(default_factory=list)
    damaged: list[DamagedExtent] = field(default_factory=list)
    data_end: int = _SERIES_HEADER.size
    tail_bytes: int = 0

    @property
    def entries(self) -> list[SeriesStepEntry]:
        """The recovered timestep-index rows, ascending."""
        return [s.entry for s in self.steps]

    def describe(self) -> str:
        """Multi-line human-readable summary (the CLI dry-run report)."""
        lines = []
        if self.intact:
            lines.append(
                f"series intact: footer and timestep index valid, "
                f"{len(self.steps)} step(s); nothing to recover"
            )
            return "\n".join(lines)
        lines.append(
            f"series damaged: {self.reason or 'footer/timestep index missing or unreadable'}"
        )
        lines.append(
            f"recovered {len(self.steps)} fully-sealed step(s), "
            f"{self.tail_bytes} trailing byte(s) unrecoverable"
        )
        for s in self.steps:
            e = s.entry
            how = "seal" if s.sealed else "segment footer (step renumbered)"
            lines.append(
                f"  step {e.step:>5} t={e.time:<10.4g} offset {e.offset:>10} "
                f"length {e.length:>10} via {how}"
            )
        for d in self.damaged:
            lines.append(
                f"  dropped [{d.offset}, {d.offset + d.length}): {d.reason}"
            )
        return "\n".join(lines)


def _find_magic(
    src: ByteSource, start: int, end: int, magic: bytes
) -> Iterator[int]:
    """Yield absolute offsets of ``magic`` in ``[start, end)``, forward
    order, reading in bounded chunks with overlap."""
    overlap = len(magic) - 1
    pos = start
    while pos < end:
        chunk_end = min(pos + _SCAN_CHUNK, end)
        blob = src.read(pos, chunk_end - pos + overlap)
        blob = blob[: chunk_end - pos + overlap]
        at = blob.find(magic)
        while at != -1:
            hit = pos + at
            if hit + len(magic) <= end:
                yield hit
            at = blob.find(magic, at + 1)
        pos = chunk_end


def _entry_from_seal(src: ByteSource, pos: int) -> SeriesStepEntry | None:
    return unpack_seal(src.read(pos, SEAL_SIZE))


def _segment_magic_at(src: ByteSource, pos: int) -> bool:
    head = src.read(pos, HEADER_SIZE)
    return (
        len(head) == HEADER_SIZE
        and head[:4] == CONTAINER_MAGIC
        and head[4] == CONTAINER_VERSION
    )


def _recover_in_gap(
    src: ByteSource, start: int, end: int, next_step: int, max_candidates: int = 32
) -> tuple[int, SeriesStepEntry, int] | None:
    """Probe a damaged byte range for an intact, footer-recoverable segment.

    Used by the resync path so that a segment whose *seal* was destroyed is
    still salvaged (the fallback guarantee) instead of being skipped along
    with the surrounding damage. ``max_candidates`` bounds the work on
    adversarial payloads full of fake segment-magic bytes, keeping the
    whole scan O(scan)."""
    probe = CONTAINER_MAGIC + bytes([CONTAINER_VERSION])
    for tried, c in enumerate(_find_magic(src, start, end, probe)):
        if tried >= max_candidates:
            break
        got = _recover_by_inner_footer(src, c, end, next_step)
        if got is not None:
            entry, seg_end = got
            return c, entry, seg_end
    return None


# kept: salvages a series a killed writer left behind (input from outside the program)
def _recover_by_inner_footer(
    src: ByteSource, pos: int, limit: int, next_step: int
) -> tuple[SeriesStepEntry, int] | None:
    """Reconstruct the segment starting at ``pos`` from its own RPH2 footer
    (the seal-destroyed fallback). Validates the segment index crc and every
    per-stream crc before trusting the bytes; step number and time are
    synthesized as ``next_step``."""
    for m in _find_magic(src, pos + HEADER_SIZE, limit, FOOTER_MAGIC):
        f_start = m + len(FOOTER_MAGIC) - FOOTER_SIZE
        if f_start < pos + HEADER_SIZE:
            continue
        try:
            idx_off, idx_len, idx_crc = unpack_footer(src.read(f_start, FOOTER_SIZE))
        except FormatError:
            continue
        # The footer sits directly after the index it locates; offsets are
        # relative to the segment start. Anything else is a payload
        # coincidence.
        if idx_off + idx_len != f_start - pos:
            continue
        idx_bytes = src.read(pos + idx_off, idx_len)
        if len(idx_bytes) != idx_len or zlib.crc32(idx_bytes) != idx_crc:
            continue
        length = f_start + FOOTER_SIZE - pos
        seg = src.read(pos, length)
        try:
            reader = ContainerReader(seg)
            for e in reader.entries:
                reader.read_stream(e, verify=True)
                if e.group is not None:
                    handle = reader.group(e.group, verify=True)
                    handle.read_payload(e.member, verify=True)
            meta = reader.meta()
        except FormatError:
            continue
        entry = SeriesStepEntry(
            step=next_step,
            offset=pos,
            length=length,
            crc32=zlib.crc32(seg),
            container_version=seg[4],
            time=float(next_step),
            n_levels=int(meta["n_levels"]),
            n_patches=len(reader.entries),
            original_bytes=int(meta["original_bytes"]),
        )
        return entry, pos + length
    return None


def _next_step(
    src: ByteSource, pos: int, next_step: int, damaged: list[DamagedExtent]
) -> tuple[RecoveredStep | None, int] | None:
    """Recover the next step at-or-after ``pos``.

    Returns ``(step_or_None, end)`` — ``step_or_None`` is ``None`` when an
    extent had to be dropped but the scan can continue at ``end`` — or
    ``None`` when nothing recoverable remains (trailing garbage).
    """
    total = src.size
    if pos + HEADER_SIZE > total:
        return None
    if _segment_magic_at(src, pos):
        # Fast path: the segment's own seal. Seals are ordered, so the
        # first crc-valid seal at-or-after pos either belongs to this
        # segment (offset/length agree) or proves this segment's seal is
        # gone — which bounds the fallback footer search.
        for s in _find_magic(src, pos + HEADER_SIZE, total, SEAL_MAGIC):
            seal = _entry_from_seal(src, s)
            if seal is None:
                continue
            if seal.offset == pos and seal.length == s - pos:
                seg = src.read(pos, seal.length)
                if len(seg) == seal.length and zlib.crc32(seg) == seal.crc32:
                    return RecoveredStep(seal, sealed=True), s + SEAL_SIZE
                damaged.append(
                    DamagedExtent(
                        pos, s + SEAL_SIZE - pos,
                        f"sealed step {seal.step}: segment crc mismatch "
                        "(corrupt payload)",
                    )
                )
                return None, s + SEAL_SIZE
            if seal.offset + seal.length == s and seal.offset > pos:
                # A later segment's seal: this segment's seal is gone.
                # Try its inner footer within the bounded window.
                got = _recover_by_inner_footer(src, pos, s, next_step)
                if got is not None:
                    entry, end = got
                    return RecoveredStep(entry, sealed=False), end
                break
        else:
            # No valid seal anywhere after pos: last segment of a killed
            # writer. Its inner footer decides whether the step completed.
            got = _recover_by_inner_footer(src, pos, total, next_step)
            if got is not None:
                entry, end = got
                return RecoveredStep(entry, sealed=False), end
            return None
    # Resync: skip damage by trusting the next seal whose record and
    # segment both crc-validate — but first probe the gap for an intact
    # segment whose own seal was destroyed (two adjacent broken seals must
    # not cost the intact segment between them).
    for s in _find_magic(src, pos, total, SEAL_MAGIC):
        seal = _entry_from_seal(src, s)
        if seal is None:
            continue
        if seal.offset < pos or seal.offset + seal.length != s:
            continue
        if not _segment_magic_at(src, seal.offset):
            continue
        seg = src.read(seal.offset, seal.length)
        if len(seg) != seal.length or zlib.crc32(seg) != seal.crc32:
            continue
        got = _recover_in_gap(src, pos, seal.offset, next_step)
        if got is not None:
            c, entry, end = got
            if c > pos:
                damaged.append(
                    DamagedExtent(pos, c - pos, "unreadable bytes (skipped)")
                )
            return RecoveredStep(entry, sealed=False), end
        damaged.append(
            DamagedExtent(pos, seal.offset - pos, "unreadable bytes (skipped)")
        )
        return RecoveredStep(seal, sealed=True), s + SEAL_SIZE
    # No trustworthy seal left at all: the tail may still hold one final
    # footer-recoverable segment (its seal torn by the crash).
    got = _recover_in_gap(src, pos, total, next_step)
    if got is not None:
        c, entry, end = got
        if c > pos:
            damaged.append(
                DamagedExtent(pos, c - pos, "unreadable bytes (skipped)")
            )
        return RecoveredStep(entry, sealed=False), end
    return None


def scan_segments(source) -> RecoveryReport:
    """Walk a series file from offset 0 and rebuild its timestep index.

    ``source`` is a path, a seekable binary file, a byte buffer, or an
    open :class:`~repro.storage.ByteSource` (left open). The scan never
    modifies the file; it returns a :class:`RecoveryReport` whose
    ``entries`` hold every fully-sealed (or footer-validated) step in
    ascending order. Raises :class:`FormatError` when the file is not an
    RPH2S series at all (recovery cannot conjure a format).
    """
    if isinstance(source, ByteSource):
        return _scan(source)
    opened = isinstance(source, (str, Path))
    with ByteSource.open(source) if opened else ByteSource(source) as src:
        return _scan(src)


def _scan(src: ByteSource) -> RecoveryReport:
    total = src.size
    head = src.read(0, _SERIES_HEADER.size)
    if len(head) < _SERIES_HEADER.size or head[:5] != SERIES_MAGIC:
        raise FormatError(
            f"not an RPH2S series (magic {head[:5]!r}); nothing to recover"
        )
    if head[5] != SERIES_VERSION:
        raise FormatError(
            f"unsupported series version {head[5]}; nothing to recover"
        )
    steps: list[RecoveredStep] = []
    damaged: list[DamagedExtent] = []
    pos = _SERIES_HEADER.size
    data_end = pos
    while pos < total:
        nxt = max((s.entry.step for s in steps), default=-1) + 1
        got = _next_step(src, pos, nxt, damaged)
        if got is None:
            break
        step, end = got
        if step is not None:
            if steps and step.entry.step <= steps[-1].entry.step:
                damaged.append(
                    DamagedExtent(
                        step.entry.offset, step.entry.length,
                        f"step {step.entry.step} out of order after "
                        f"{steps[-1].entry.step}",
                    )
                )
            else:
                steps.append(step)
                data_end = end
        pos = end
    meta = None
    if steps:
        last = steps[-1].entry
        seg_meta = ContainerReader(src.window(last.offset, last.length)).meta()
        meta = extract_series_meta(seg_meta)
    return RecoveryReport(
        total_bytes=total,
        intact=False,
        reason=None,
        meta=meta,
        steps=steps,
        damaged=damaged,
        data_end=data_end,
        tail_bytes=total - data_end,
    )


# kept: salvages a series a killed writer left behind (input from outside the program)
def _copy_prefix(src: ByteSource, dst: str | Path, end: int, backend) -> None:
    """Copy ``src[:end]`` to ``dst`` in bounded chunks (campaign files can
    be tens of GB; recovery must not slurp them into memory)."""
    with ByteSink.create(dst, backend=backend) as sink:
        for pos in range(0, min(end, src.size), _SCAN_CHUNK):
            sink.write(src.read(pos, min(_SCAN_CHUNK, end - pos)))
        sink.sync()


def recover_series(
    path: str | Path,
    commit: bool = False,
    output: str | Path | None = None,
    backend: StorageBackend | None = None,
) -> RecoveryReport:
    """Diagnose (and optionally repair) an interrupted series write.

    Dry run by default: opens ``path``, reports whether the footer/index
    are intact, and — when they are not — scans for sealed segments and
    returns the rebuilt index as a :class:`RecoveryReport` without touching
    the file.

    With ``commit=True`` a damaged series is rewritten: trailing
    unrecoverable bytes are truncated and a fresh timestep index + footer
    are appended (fsynced, index before footer), after which the file opens
    normally. ``output`` redirects the rewrite to a new object, leaving
    the damaged original untouched; an intact series is never rewritten in
    place (with ``output`` it is simply copied).

    ``backend`` (a :class:`repro.storage.StorageBackend`) resolves ``path``
    and ``output`` for the scan and the commit alike; the default is the
    local filesystem.
    """
    with ByteSource.open(path, backend=backend) as src:
        try:
            reader = SeriesReader(src)
            report = RecoveryReport(
                total_bytes=src.size,
                intact=True,
                reason=None,
                meta=reader.meta(),
                steps=[RecoveredStep(e, sealed=True) for e in reader.step_entries],
                data_end=reader._index_offset,
                tail_bytes=0,
            )
        except TruncatedSeriesError as exc:
            report = scan_segments(src)
            report.reason = str(exc)
        if commit and output is not None:
            _copy_prefix(
                src, output,
                report.total_bytes if report.intact else report.data_end,
                backend,
            )
    if commit and not report.intact:
        commit_recovery(path if output is None else output, report, backend=backend)
    return report


def commit_recovery(
    path: str | Path, report: RecoveryReport, backend: StorageBackend | None = None
) -> None:
    """Apply a :class:`RecoveryReport` to ``path``: truncate after the last
    recovered step and append a fresh timestep index + footer.

    The index bytes come from
    :func:`~repro.insitu.series.build_series_index_bytes`, so the committed
    file is byte-identical to what an uninterrupted writer would have
    produced for the surviving steps. The index is synced before the
    footer that points at it (the same two-phase commit the writer uses);
    a failing fsync warns (:meth:`repro.storage.ByteSink.sync`) and the
    commit still completes.
    """
    if report.meta is None or not report.steps:
        raise TruncatedSeriesError(
            f"{path}: no fully-sealed steps recovered; refusing to commit "
            "an empty series"
        )
    index_bytes = build_series_index_bytes(report.meta, report.entries)
    footer = pack_footer(
        report.data_end, len(index_bytes), zlib.crc32(index_bytes),
        SERIES_FOOTER_MAGIC,
    )
    with ByteSink.append(path, backend=backend) as sink:
        sink.truncate(report.data_end)
        for blob in (index_bytes, footer):
            sink.write(blob)
            sink.sync()
