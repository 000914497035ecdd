"""Integrity scrub: walk a container and verify every checksum it carries.

Production storage rots silently; the repro's formats were built so that
rot is *detectable* — every layer carries a crc32. This module is the
proactive side of that design: :func:`scrub` walks a file (or a whole
sharded campaign) and verifies every checksum the formats define,
emitting one structured :class:`Finding` per violation instead of raising
on the first. A clean file produces an empty report; production runs
scrub on a schedule and feed findings to
:func:`repro.integrity.repair_sharded`.

What gets verified, per format (magic-sniffed):

* ``RPH2`` snapshot container — footer magic, index crc, every patch
  stream crc, every ``RPGB`` group header crc, every group member
  payload crc.
* ``RPH2S`` series — series footer + timestep-index crc, every
  ``RPH2SEAL`` record (body crc and agreement with the index row), every
  segment's whole-segment crc, then the full container walk above
  *inside every segment*. A footerless (crashed) series is still
  scrubbed: the seal scan locates the segments.
* ``RPHM`` sharded manifest — manifest body crc + schema, then every
  data shard (series walk), every parity shard, and — when every member
  of a stripe is individually healthy — the XOR identity
  ``parity == XOR(members)`` itself.
* ``RPXP`` parity shard — footer + index crc, every stripe's parity
  block crc.

All reads go through a :class:`repro.storage.StorageBackend`, so remote
campaigns scrub the same way local ones do. Surfaced on the CLI as
``python -m repro.compression scrub``.
"""

from __future__ import annotations

import os
import zlib
from dataclasses import dataclass, field
from pathlib import Path

from repro.compression.container import ContainerReader
from repro.door import sniff
from repro.errors import FormatError, StorageError, TruncatedSeriesError
from repro.insitu.series import SEAL_SIZE, SeriesReader, unpack_seal
from repro.insitu.sharded import _load_campaign
from repro.integrity.parity import PARITY_MAGIC, ParityReader, xor_blocks
from repro.storage import ByteSource, LocalFileBackend, StorageBackend

__all__ = ["Finding", "ScrubReport", "scrub"]


@dataclass(frozen=True)
class Finding:
    """One integrity violation: which file, which check, where."""

    #: Object name the damage lives in.
    file: str
    #: Check that failed — one of ``missing``, ``unreadable``, ``framing``,
    #: ``footer``, ``index``, ``segment``, ``seal``, ``stream``,
    #: ``group-header``, ``group-payload``, ``manifest``,
    #: ``parity-stripe``, ``parity-member``, ``parity-mismatch``.
    kind: str
    #: Human-readable specifics (expected vs got, the caught error, ...).
    detail: str
    step: int | None = None
    level: int | None = None
    field: str | None = None
    patch: int | None = None
    gid: int | None = None
    member: int | None = None

    # kept: operator need: the report `scrub` prints
    def describe(self) -> str:
        where = [os.path.basename(self.file)]
        for label, v in (
            ("step", self.step), ("level", self.level), ("field", self.field),
            ("patch", self.patch), ("group", self.gid), ("member", self.member),
        ):
            if v is not None:
                where.append(f"{label}={v}")
        return f"[{self.kind}] {' '.join(where)}: {self.detail}"


@dataclass
class ScrubReport:
    """Everything one :func:`scrub` walk verified, and what failed."""

    #: The object the scrub was pointed at.
    root: str
    findings: list[Finding] = field(default_factory=list)
    #: Files visited (manifest + shards + parity count individually).
    objects: int = 0
    #: Series segments walked.
    segments: int = 0
    #: Patch streams / group payloads crc-checked.
    streams: int = 0
    #: Total bytes actually read and checksummed.
    bytes_verified: int = 0

    @property
    def clean(self) -> bool:
        """True when every checksum the walk touched verified."""
        return not self.findings

    def describe(self) -> str:
        lines = [
            f"{self.root}: scrubbed {self.objects} object(s), "
            f"{self.segments} segment(s), {self.streams} stream(s), "
            f"{self.bytes_verified} byte(s) verified — "
            + ("clean" if self.clean else f"{len(self.findings)} finding(s)")
        ]
        lines.extend("  " + f.describe() for f in self.findings)
        return "\n".join(lines)


class _Scrubber:
    def __init__(self, root: str, backend: StorageBackend):
        self.backend = backend
        self.report = ScrubReport(root=str(root))

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def add(self, file: str, kind: str, detail: str, **loc) -> None:
        self.report.findings.append(Finding(file, kind, detail, **loc))

    def _read_all(self, name: str) -> bytes | None:
        """Whole-object read; a missing/unreadable object is a finding."""
        try:
            with ByteSource.open(name, backend=self.backend) as src:
                return src.read(0, src.size)
        except (OSError, StorageError) as exc:
            kind = "unreadable" if self.backend.exists(name) else "missing"
            self.add(name, kind, str(exc))
            return None

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def scrub_object(self, name: str) -> None:
        blob = self._read_all(name)
        if blob is None:
            return
        self.report.objects += 1
        walk = {
            "snapshot": self.scrub_container,
            "series": self.scrub_series,
            "campaign": self.scrub_manifest,
        }.get(sniff(blob))
        if walk is not None:
            walk(name, blob)
        elif blob.startswith(PARITY_MAGIC):
            self.scrub_parity(name, blob)
        else:
            self.add(
                name, "framing",
                f"unrecognized magic {bytes(blob[:5])!r} — not an "
                "RPH2/RPH2S/RPHM/RPXP object",
            )

    # ------------------------------------------------------------------
    # RPH2 snapshot container
    # ------------------------------------------------------------------
    def scrub_container(
        self, name: str, blob: bytes, step: int | None = None
    ) -> None:
        """Walk one container's bytes: index, streams, groups."""
        try:
            reader = ContainerReader(blob)
        except FormatError as exc:
            self.add(name, "index", str(exc), step=step)
            return
        try:
            for e in reader.entries:
                try:
                    got = reader.read_stream(e, verify=True)
                    self.report.streams += 1
                    self.report.bytes_verified += len(got)
                except FormatError as exc:
                    self.add(
                        name, "stream", str(exc), step=step,
                        level=e.level, field=e.field, patch=e.patch,
                    )
            for g in reader.group_entries:
                try:
                    handle = reader.group(g.gid, verify=True)
                    self.report.bytes_verified += handle.header_len
                except FormatError as exc:
                    self.add(name, "group-header", str(exc), step=step, gid=g.gid)
                    continue
                for m in range(handle.n_patches):
                    try:
                        got = handle.read_payload(m, verify=True)
                        self.report.streams += 1
                        self.report.bytes_verified += len(got)
                    except FormatError as exc:
                        self.add(
                            name, "group-payload", str(exc),
                            step=step, gid=g.gid, member=m,
                        )
        finally:
            reader.close()

    # ------------------------------------------------------------------
    # RPH2S series
    # ------------------------------------------------------------------
    def scrub_series(self, name: str, blob: bytes) -> None:
        """Walk one series: footer/index, seals, segment crcs, and the
        container walk inside every segment."""
        entries = None
        try:
            with SeriesReader(blob) as reader:
                entries = list(reader.step_entries)
        except TruncatedSeriesError as exc:
            self.add(name, "footer", str(exc))
        except FormatError as exc:
            self.add(name, "index", str(exc))
            return
        if entries is None:
            # Footerless (crashed) series: the sealed segments are still
            # worth scrubbing — locate them the way recovery does.
            from repro.insitu.recovery import scan_segments

            try:
                entries = [s.entry for s in scan_segments(blob).steps]
            except FormatError as exc:
                self.add(name, "framing", str(exc))
                return
        for e in entries:
            self.report.segments += 1
            seg = blob[e.offset : e.offset + e.length]
            if len(seg) != e.length:
                self.add(
                    name, "segment",
                    f"segment truncated ({len(seg)} of {e.length} bytes)",
                    step=e.step,
                )
                continue
            if zlib.crc32(seg) != e.crc32:
                self.add(
                    name, "segment",
                    "whole-segment checksum mismatch vs timestep index",
                    step=e.step,
                )
            else:
                self.report.bytes_verified += len(seg)
            seal_blob = blob[e.offset + e.length : e.offset + e.length + SEAL_SIZE]
            sealed = unpack_seal(seal_blob) if len(seal_blob) == SEAL_SIZE else None
            if sealed is None:
                self.add(
                    name, "seal",
                    "seal record missing or fails its body crc", step=e.step,
                )
            elif sealed != e:
                self.add(
                    name, "seal",
                    "seal record disagrees with the timestep-index row",
                    step=e.step,
                )
            else:
                self.report.bytes_verified += SEAL_SIZE
            # Deep-walk the embedded container even when the whole-segment
            # crc failed: the per-stream findings say *where* the rot is.
            self.scrub_container(name, seg, step=e.step)

    # ------------------------------------------------------------------
    # RPXP parity shard
    # ------------------------------------------------------------------
    def scrub_parity(self, name: str, blob: bytes) -> "ParityReader | None":
        """Verify one parity shard's framing, index, and stripe crcs.
        Returns the parsed reader (over in-memory bytes) for the caller's
        cross-file XOR check, or ``None`` when unparseable."""
        try:
            reader = ParityReader(blob, name)
        except FormatError as exc:
            self.add(name, "index", str(exc))
            return None
        for s in reader.stripes:
            try:
                got = reader.parity_bytes(s, verify=True)
                self.report.bytes_verified += len(got)
            except FormatError as exc:
                self.add(name, "parity-stripe", str(exc))
        return reader

    # ------------------------------------------------------------------
    # RPHM sharded manifest (the campaign walk)
    # ------------------------------------------------------------------
    def scrub_manifest(self, name: str, blob: bytes) -> None:
        man, shards, parity, error = _load_campaign(self.backend, name, blob)
        if error is not None:
            self.add(name, "manifest", str(error))
            # Still scrub whatever shards can be discovered by convention.
            for sibling in shards + parity:
                self.scrub_object(sibling)
            return
        self.report.bytes_verified += len(blob)
        shard_blobs: dict[str, bytes | None] = {}
        for full in shards:
            shard_blob = self._read_all(full)
            shard_blobs[os.path.basename(full)] = shard_blob
            if shard_blob is None:
                continue
            self.report.objects += 1
            self.scrub_series(full, shard_blob)
        for full in parity:
            pblob = self._read_all(full)
            if pblob is None:
                continue
            self.report.objects += 1
            reader = self.scrub_parity(full, pblob)
            if reader is None:
                continue
            self._check_parity_identity(full, reader, shard_blobs)

    def _check_parity_identity(
        self,
        pname: str,
        reader: "ParityReader",
        shard_blobs: dict[str, bytes | None],
    ) -> None:
        """The deepest check: for each stripe whose members all pass their
        recorded crcs, assert ``XOR(members) == parity``. A member that
        already failed (or a missing shard) is its own finding; the
        identity check would only re-report it, so it is skipped."""
        for s in reader.stripes:
            blocks = []
            for m in s.members:
                shard_blob = shard_blobs.get(m.shard)
                if shard_blob is None:
                    blocks = None  # shard missing/unreadable: already found
                    break
                seg = shard_blob[m.offset : m.offset + m.length]
                if len(seg) != m.length or zlib.crc32(seg) != m.crc32:
                    self.add(
                        pname, "parity-member",
                        f"{m.shard} step {m.step} fails the crc recorded in "
                        "the parity index", step=m.step,
                    )
                    blocks = None
                    break
                blocks.append(seg)
            if blocks is None:
                continue
            try:
                parity = reader.parity_bytes(s, verify=False)
            except FormatError:
                continue  # already reported as parity-stripe
            if xor_blocks(blocks, length=len(parity)) != parity:
                self.add(
                    pname, "parity-mismatch",
                    f"stripe {s.index}: XOR of all (individually healthy) "
                    "members does not equal the stored parity block — the "
                    "parity is stale or bit-rotted",
                )


def scrub(
    path: str | Path, backend: StorageBackend | None = None
) -> ScrubReport:
    """Verify every checksum ``path`` (and, for a manifest, its whole
    campaign) carries; returns a :class:`ScrubReport`.

    Never modifies anything and never raises on damage — damage becomes
    :class:`Finding` rows. Only a *caller* error (no such object at all,
    through a backend that raises something other than
    :class:`~repro.errors.StorageError`) escapes.

    .. code-block:: python

        from repro.integrity import scrub

        report = scrub("run.rphm")
        if not report.clean:
            print(report.describe())
    """
    scrubber = _Scrubber(str(path), backend or LocalFileBackend())
    scrubber.scrub_object(str(path))
    return scrubber.report
