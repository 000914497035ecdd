"""Parity-based repair: rebuild damaged or missing shard segments bit-exactly.

:func:`repair_sharded` is the write-side counterpart of
:func:`repro.integrity.scrub`: where scrub *reports* damage, repair undoes
it. For every stripe recorded in a campaign's RPXP parity shards
(:mod:`repro.integrity.parity`), each member segment is classified by its
recorded crc32:

* all members healthy — verify the stripe's parity block (and rebuild it
  from the members when the block itself is damaged or stale);
* exactly one member lost (bit-rot, torn bytes, or the whole shard file
  deleted) — reconstruct it as ``parity XOR survivors``, proven by the
  member's recorded crc before anything is written;
* two or more members lost in one stripe — beyond what XOR parity can
  undo; recorded as unrecoverable.

Dry-run by default. With ``commit=True`` the reconstructions are patched
into the damaged shard files **in place**, through whatever backend was
given (:func:`_patch_shard`; a shard that is gone is created), and the
shards are then handed to the existing crash-recovery machinery:
:func:`repro.insitu.recovery.recover_series` re-derives a patched shard's
timestep index from its seals where the index did not survive and
:func:`repro.insitu.sharded.recover_sharded` rewrites the final manifest
from the surviving shard indexes. Repair composes with recovery rather
than duplicating it: parity restores *segment bytes*; recovery rebuilds
*indexes* from those bytes. A commit killed at any point is finished by
running it again.

Surfaced on the CLI as ``python -m repro.compression repair``.

:class:`SegmentHealer` is the read-side primitive the serving layer uses
to do the same reconstruction on the fly (``stats["repairs"]``), without
committing anything.
"""

from __future__ import annotations

import os
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from threading import Lock

from repro.errors import FormatError, IntegrityError, StorageError
from repro.insitu.series import (
    _SERIES_HEADER,
    SEAL_SIZE,
    SERIES_MAGIC,
    SERIES_VERSION,
    SeriesReader,
)
from repro.insitu.sharded import _discover, _load_campaign, _shard_path
from repro.integrity.parity import (
    ParityReader,
    ParityStripe,
    StripeMember,
    build_parity,
    xor_blocks,
)
from repro.storage import ByteSink, ByteSource, LocalFileBackend, StorageBackend

__all__ = ["MemberDamage", "RepairReport", "repair_sharded", "SegmentHealer"]


@dataclass(frozen=True)
class MemberDamage:
    """One stripe member that failed its recorded crc (or whose shard is
    gone), and what happened to it."""

    shard: str
    step: int
    #: Why the member was classified damaged.
    reason: str
    #: ``"reconstructed"`` (parity held), or ``"unrecoverable"`` with the
    #: blocking reason in :attr:`blocked_by`.
    outcome: str
    blocked_by: str | None = None


@dataclass
class RepairReport:
    """What :func:`repair_sharded` found, rebuilt, and could not rebuild."""

    manifest: str
    #: Stripes examined across all parity groups.
    scanned: int = 0
    #: Every damaged member, with its outcome.
    damaged: list[MemberDamage] = field(default_factory=list)
    #: Parity files that were themselves damaged or stale and rebuilt
    #: (or rebuildable) from healthy members.
    parity_rebuilt: list[str] = field(default_factory=list)
    #: Member shards whose segments all verify but which do not open (index
    #: or footer lost — bit-rot, or a commit killed before its re-index):
    #: ``commit=True`` rebuilds their index from the seals.
    reindexed: list[str] = field(default_factory=list)
    #: True when ``commit=True`` actually rewrote files.
    committed: bool = False

    @property
    def reconstructed(self) -> list[MemberDamage]:
        return [d for d in self.damaged if d.outcome == "reconstructed"]

    @property
    def unrecoverable(self) -> list[MemberDamage]:
        return [d for d in self.damaged if d.outcome == "unrecoverable"]

    @property
    def clean(self) -> bool:
        """True when every stripe verified, every shard opens and no parity
        needed rebuilding."""
        return not (self.damaged or self.parity_rebuilt or self.reindexed)

    def describe(self) -> str:
        lines = [
            f"{self.manifest}: {self.scanned} stripe(s) scanned, "
            f"{len(self.reconstructed)} segment(s) "
            + ("reconstructed" if self.committed else "reconstructible")
            + f", {len(self.unrecoverable)} unrecoverable, "
            f"{len(self.parity_rebuilt)} parity file(s) "
            + ("rebuilt" if self.committed else "needing rebuild")
        ]
        for d in self.damaged:
            line = f"  {d.shard} step {d.step}: {d.reason} -> {d.outcome}"
            if d.blocked_by:
                line += f" ({d.blocked_by})"
            lines.append(line)
        for name in self.parity_rebuilt:
            lines.append(f"  {os.path.basename(name)}: parity out of date")
        for name in self.reindexed:
            lines.append(
                f"  {name}: segments verify but the shard does not open -> "
                + ("re-indexed" if self.committed else "needs re-index")
            )
        return "\n".join(lines)


def _read_member(
    backend: StorageBackend, full_name: str, m: StripeMember
) -> tuple[bytes | None, str | None]:
    """Fetch one member's segment+seal bytes; ``(None, reason)`` on damage."""
    try:
        src = ByteSource.open(full_name, backend=backend)
    except StorageError as exc:
        return None, f"shard unreadable ({exc})" if backend.exists(full_name) \
            else "shard file missing"
    try:
        blob = src.read(m.offset, m.length)
    except (OSError, StorageError) as exc:
        return None, f"read failed ({exc})"
    finally:
        src.close()
    if len(blob) != m.length:
        return None, f"segment truncated ({len(blob)} of {m.length} bytes)"
    if zlib.crc32(blob) != m.crc32:
        return None, "segment fails its recorded crc"
    return blob, None


def repair_sharded(
    path: str | Path,
    commit: bool = False,
    backend: StorageBackend | None = None,
) -> RepairReport:
    """Diagnose (and optionally repair) parity-covered damage in a sharded
    campaign.

    Dry-run by default: every stripe is classified and every single-loss
    reconstruction is *performed and crc-proven in memory*, but nothing is
    written — the report says exactly what ``commit=True`` would do. With
    ``commit=True`` the reconstructions are patched into the shard files in
    place (through ``backend``, any backend), stale parity files are
    rebuilt, and the recovery machinery re-derives shard indexes and the
    final manifest. A segment parity cannot rebuild stays where it is,
    listed and flagged by scrub.

    Raises :class:`~repro.errors.IntegrityError` when the campaign has no
    parity at all (nothing to repair *from*); multi-loss stripes do not
    raise — they are reported as unrecoverable so the single-loss stripes
    still heal. A target that is no campaign — no manifest that loads, no
    shard or parity file beside it — raises the manifest's own error.
    """
    backend_ = backend or LocalFileBackend()
    manifest_name = str(path)
    # Manifest gone or damaged (the loader discovers the siblings) or
    # parity-free on paper: the parity files themselves are found by
    # naming convention and carry full membership in their indexes.
    man, shards, parity_files, error = _load_campaign(backend_, manifest_name)
    if man is not None and not parity_files:
        parity_files = _discover(backend_, manifest_name)[1]
    if error is not None and not shards and not parity_files:
        raise error  # not a campaign at all: missing, or not an RPHM manifest
    if not parity_files:
        raise IntegrityError(
            f"{manifest_name}: campaign has no parity shards — nothing to "
            "repair from (write with ShardedSeriesWriter(parity=p) to add "
            "redundancy)"
        )
    report = RepairReport(manifest=manifest_name)
    # shard basename -> {offset: reconstructed segment+seal bytes}
    rebuilt: dict[str, dict[int, bytes]] = {}
    # parity file -> (group, member shard basenames)
    parity_specs: dict[str, tuple[int, list[str]]] = {}

    for pfile in parity_files:
        try:
            reader = ParityReader.open(pfile, backend=backend_)
        except (FormatError, StorageError):
            # The parity file itself is damaged. Its stripes cannot help
            # anyone; it can only be rebuilt if *every* member is healthy,
            # which build_parity verifies implicitly at commit. Without a
            # parseable index we cannot even know the membership from this
            # file — only its manifest row, if any, still names it.
            report.parity_rebuilt.append(pfile)
            for row in (man or {}).get("parity") or []:
                if _shard_path(manifest_name, row["name"]) == pfile:
                    parity_specs[pfile] = (int(row["group"]), list(row["members"]))
            continue
        with reader:
            parity_specs[pfile] = (reader.group, list(reader.members))
            for stripe in reader.stripes:
                report.scanned += 1
                _repair_stripe(
                    backend_, manifest_name, pfile, reader, stripe, report, rebuilt
                )
    # full membership across every parity group (for manifest completion)
    all_members = list(
        dict.fromkeys(m for _, members in parity_specs.values() for m in members)
    )
    # A shard with nothing to reconstruct can still be unopenable. (One
    # that is gone with nothing to rebuild it from stays gone, and named.)
    hurt = {d.shard for d in report.damaged}
    for shard in all_members:
        full = _shard_path(manifest_name, shard)
        if shard in hurt or not backend_.exists(full):
            continue
        try:
            SeriesReader.open(full, backend=backend_).close()
        except (FormatError, StorageError):
            report.reindexed.append(shard)

    if commit and (rebuilt or report.parity_rebuilt or report.reindexed):
        _commit_repair(
            backend_, manifest_name, man, rebuilt, all_members, parity_specs, report
        )
        report.committed = True
    return report


def _repair_stripe(
    backend: StorageBackend,
    manifest_name: str,
    pfile: str,
    reader: ParityReader,
    stripe: ParityStripe,
    report: RepairReport,
    rebuilt: dict[str, dict[int, bytes]],
) -> None:
    healthy: dict[str, bytes] = {}
    lost: list[tuple[StripeMember, str]] = []
    for m in stripe.members:
        blob, reason = _read_member(
            backend, _shard_path(manifest_name, m.shard), m
        )
        if blob is None:
            lost.append((m, reason))
        else:
            healthy[m.shard] = blob
    if not lost:
        # Verify (and if necessary schedule a rebuild of) the parity block.
        try:
            parity = reader.parity_bytes(stripe, verify=True)
            stale = xor_blocks(list(healthy.values()), len(parity)) != parity
        except FormatError:
            stale = True
        if stale and pfile not in report.parity_rebuilt:
            report.parity_rebuilt.append(pfile)
        return
    if len(lost) > 1:
        who = ", ".join(f"{m.shard} step {m.step}" for m, _ in lost)
        for m, reason in lost:
            report.damaged.append(
                MemberDamage(
                    shard=m.shard, step=m.step, reason=reason,
                    outcome="unrecoverable",
                    blocked_by=f"{len(lost)} members lost in one stripe ({who})",
                )
            )
        return
    m, reason = lost[0]
    try:
        blob = reader.reconstruct(
            stripe, m, lambda shard, off, ln: healthy[shard]
        )
    except IntegrityError as exc:
        report.damaged.append(
            MemberDamage(
                shard=m.shard, step=m.step, reason=reason,
                outcome="unrecoverable", blocked_by=str(exc),
            )
        )
        return
    rebuilt.setdefault(m.shard, {})[m.offset] = blob
    report.damaged.append(
        MemberDamage(
            shard=m.shard, step=m.step, reason=reason,
            outcome="reconstructed",
        )
    )


def _patch_shard(
    backend: StorageBackend, full_name: str, patches: dict[int, bytes]
) -> None:
    """Write ``{offset: bytes}`` into a shard in place and make it stable —
    the one way reconstructed bytes reach storage. No rename is needed:
    every byte overwritten already fails its recorded crc (or is the
    constant series header) and parity is not touched, so a write killed
    half-way loses nothing a second run cannot rebuild. A shard that is
    gone is created (a gap a seek leaves past the end reads as zeros)."""
    opener = ByteSink.append if backend.exists(full_name) else ByteSink.create
    with opener(full_name, backend=backend) as sink:
        for offset, blob in sorted(patches.items()):
            sink.seek(offset)
            sink.write(blob)
        sink.sync()


def _commit_repair(
    backend: StorageBackend,
    manifest_name: str,
    man: dict | None,
    rebuilt: dict[str, dict[int, bytes]],
    all_members: list[str],
    parity_specs: dict[str, tuple[int, list[str]]],
    report: RepairReport,
) -> None:
    """Write the repair: patch the reconstructions into their shards,
    re-index what no longer opens, rebuild stale parity, then hand the
    manifest to the recovery machinery."""
    from repro.insitu.recovery import recover_series
    from repro.insitu.sharded import _write_manifest, recover_sharded

    # 1. Patch each damaged shard in place, under a fresh series header (a
    # resurrected shard has none; anywhere else the bytes are the same).
    # Where the shard's own index survived the file is whole again; where
    # it did not (torn, deleted, or only the index was lost) what is left
    # is the footerless-but-sealed shape recover_series commits.
    header = {0: _SERIES_HEADER.pack(SERIES_MAGIC, SERIES_VERSION)}
    for shard in sorted({*rebuilt, *report.reindexed}):
        full = _shard_path(manifest_name, shard)
        _patch_shard(backend, full, {**header, **rebuilt.get(shard, {})})
        recover_series(full, commit=True, backend=backend)
    # 2. Make sure the manifest names every member shard (a shard dropped
    # by an earlier recover run must reappear now that its file is back),
    # then let recover_sharded rebuild routing + final manifest from the
    # shard indexes. Parity accounting rows are preserved by it.
    if man is not None:
        known = {row["name"] for row in man["shards"]}
        missing_rows = [m for m in all_members if m not in known]
        if missing_rows:
            rows = list(man["shards"]) + [
                {"name": m, "durability": "close", "steps": []}
                for m in missing_rows
            ]
            meta = {
                k: man[k]
                for k in ("codec", "error_bound", "mode", "fields",
                          "exclude_covered")
            }
            _write_manifest(
                backend, manifest_name, meta, rows, final=False,
                parity=man.get("parity"),
            )
    recover_sharded(manifest_name, commit=True, backend=backend)
    # 3. Rebuild any parity file that was damaged or went stale. Member
    # extents are re-read from the (now healthy) shard indexes.
    for pfile in report.parity_rebuilt:
        if pfile not in parity_specs:
            continue
        group, members = parity_specs[pfile]
        member_names = [_shard_path(manifest_name, m) for m in members]
        member_segments = []
        try:
            for full in member_names:
                with SeriesReader.open(full, backend=backend) as sr:
                    member_segments.append(
                        [(e.step, e.offset, e.length + SEAL_SIZE) for e in sr.step_entries]
                    )
        except (FormatError, StorageError):
            continue
        build_parity(backend, pfile, group, member_names, member_segments)


class SegmentHealer:
    """On-the-fly single-segment reconstruction for the serving layer.

    Built from a campaign's manifest path and parity rows
    (:attr:`repro.insitu.sharded.ShardedSeriesReader.parity`); thread-safe.
    :meth:`heal` reconstructs one step's segment+seal bytes from the
    surviving shards without writing anything;
    :meth:`write_back` optionally patches the reconstruction into the
    damaged shard file in place (best-effort — a deleted or torn shard
    also needs its index rebuilt and is left to :func:`repair_sharded`).
    """

    def __init__(
        self,
        manifest_path: str,
        parity_rows,
        backend: StorageBackend | None = None,
    ):
        self._manifest = str(manifest_path)
        self._rows = list(parity_rows or [])
        self._backend = backend or LocalFileBackend()
        self._readers: dict[str, ParityReader] = {}
        self._lock = Lock()

    def close(self) -> None:
        with self._lock:
            for r in self._readers.values():
                r.close()
            self._readers.clear()

    @property
    def covers(self) -> bool:
        """True when the campaign recorded any parity at all."""
        return bool(self._rows)

    def _reader_for(self, shard_base: str) -> ParityReader | None:
        for row in self._rows:
            if shard_base not in row["members"]:
                continue
            pfile = _shard_path(self._manifest, row["name"])
            with self._lock:
                # A failed open is not remembered: the healer outlives a
                # transient storage fault.
                if pfile not in self._readers:
                    try:
                        self._readers[pfile] = ParityReader.open(
                            pfile, backend=self._backend
                        )
                    except (FormatError, StorageError):
                        return None
                return self._readers[pfile]
        return None

    def segments(self, shard_name: str) -> list[tuple[int, int, int]]:
        """The ``(step, offset, length)`` extent of every segment of one
        member shard, as its parity stripe index records them (without the
        seal a stripe member also spans) — what stands in for the step
        table of a shard that cannot be opened. Raises
        :class:`~repro.errors.IntegrityError` when no readable parity
        shard covers it."""
        base = os.path.basename(shard_name)
        reader = self._reader_for(base)
        if reader is None:
            raise IntegrityError(
                f"{base} is not covered by a readable parity shard"
            )
        return [
            (m.step, m.offset, m.length - SEAL_SIZE)
            for stripe in reader.stripes
            for m in stripe.members
            if m.shard == base
        ]

    def heal(self, shard_name: str, step: int) -> tuple[StripeMember, bytes]:
        """Reconstruct ``step``'s segment+seal bytes from parity.

        ``shard_name`` is the damaged shard (full name or basename).
        Returns the parity index's member record plus the proven bytes.
        Raises :class:`~repro.errors.IntegrityError` when the step is not
        parity-covered or the stripe has more than one loss.
        """
        base = os.path.basename(shard_name)
        reader = self._reader_for(base)
        if reader is None:
            raise IntegrityError(
                f"step {step} of {base} is not covered by a readable parity "
                "shard"
            )
        found = reader.stripe_for(base, step)
        if found is None:
            raise IntegrityError(
                f"parity shard {os.path.basename(reader.name)} does not "
                f"cover step {step} of {base}"
            )
        stripe, member = found

        def read(shard: str, offset: int, length: int) -> bytes:
            name = _shard_path(self._manifest, shard)
            with ByteSource.open(name, backend=self._backend) as src:
                return src.read(offset, length)

        return member, reader.reconstruct(stripe, member, read)

    def write_back(self, shard_name: str, member: StripeMember, blob: bytes) -> bool:
        """Best-effort in-place write of a reconstruction into the damaged
        shard file. Returns False (without raising) when the file is
        missing or too short to patch in place — those need
        :func:`repair_sharded`."""
        full = _shard_path(self._manifest, os.path.basename(shard_name))
        try:
            if not self._backend.exists(full):
                return False
            if self._backend.size(full) < member.offset + member.length:
                return False
            _patch_shard(self._backend, full, {member.offset: blob})
            return True
        except (OSError, StorageError):
            return False
