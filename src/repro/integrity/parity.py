"""RPXP parity shards: XOR redundancy over sharded campaigns.

A sharded RPHM campaign (:mod:`repro.insitu.sharded`) already *detects*
damage — every sealed step segment carries a whole-segment crc32 — but a
dead or bit-rotted shard is permanent data loss. This module adds the
redundancy that turns detection into repair: ``ShardedSeriesWriter``
created with ``parity=p`` writes ``p`` **parity shard files** alongside
the data shards, each holding the byte-wise XOR of its member shards'
sealed step segments.

Scheme (``xor-stripe-v1``, spec'd in ``docs/container_format.md``):

* Data shard ``k`` belongs to parity group ``k % p``; parity shard ``j``
  covers the group's members in shard order.
* **Stripe** ``i`` of a group XORs the ``i``-th sealed step segment of
  each member that has at least ``i + 1`` steps. Segments differ in
  length, so each member's bytes are zero-padded to the longest member's
  length (the *padded-block* rule: ``XOR`` of nothing is ``0``, so
  padding is free and reconstruction just truncates back to the recorded
  member length).
* A stripe member is the segment **plus its seal record** — exactly the
  bytes crash recovery needs to re-index a reconstructed shard.

Losing at most one member per stripe is recoverable bit-exactly:
``parity XOR (all surviving members, padded)`` is the lost member, and
the member's recorded crc32 proves the reconstruction before anyone
trusts it.

Parity file layout:

.. code-block:: text

    offset 0   magic    b"RPXP"                                 (4 bytes)
    offset 4   u8       parity version (currently 1)
    offset 5   stripe parity blocks, back to back (raw XOR bytes)
    ...        parity index: JSON document (see below)
    EOF-28     footer: the 28-byte trailer RPH2 and RPH2S end in
               (:func:`~repro.compression.container.pack_footer`) under
               the footer magic b"RPXP-IDX"

Parity index schema (JSON)::

    {
      "format": "rpxp", "version": 1, "scheme": "xor-stripe-v1",
      "group": int,                      # which parity group this file is
      "members": [str, ...],             # member shard basenames, in order
      "stripes": [[stripe, offset, length, crc32,
                   [[member, step, seg_offset, seg_length, seg_crc32],
                    ...]], ...]
    }

``offset``/``length``/``crc32`` locate and check the stripe's parity
bytes inside this file; each member row records which shard (an index
into ``members``), which step, where the segment+seal lives in that
shard, how long it is, and the crc32 of those exact bytes.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from repro.compression.container import FOOTER_SIZE, pack_footer, read_index
from repro.errors import FormatError, IntegrityError, StorageError
from repro.storage import ByteSink, ByteSource, Closing, StorageBackend

__all__ = [
    "PARITY_MAGIC",
    "PARITY_FOOTER_MAGIC",
    "PARITY_VERSION",
    "PARITY_SCHEME",
    "StripeMember",
    "ParityStripe",
    "ParityReader",
    "parity_names",
    "parity_groups",
    "build_parity",
    "pack_parity_index",
    "xor_blocks",
]

PARITY_MAGIC = b"RPXP"
PARITY_FOOTER_MAGIC = b"RPXP-IDX"
PARITY_VERSION = 1
#: The one scheme this version writes and reads.
PARITY_SCHEME = "xor-stripe-v1"
_PARITY_HEADER = struct.Struct("<4sB")


def parity_names(manifest: str | Path, parity: int) -> list[str]:
    """Full parity object names for a manifest name (same directory)."""
    root, _ = os.path.splitext(str(manifest))
    return [f"{root}.parity{j:03d}.rpxp" for j in range(parity)]


def parity_groups(n_shards: int, parity: int) -> list[list[int]]:
    """Member data-shard indices of each parity group (``k % parity``)."""
    return [
        [k for k in range(n_shards) if k % parity == j] for j in range(parity)
    ]


def xor_blocks(blocks: Sequence[bytes], length: int | None = None) -> bytes:
    """Byte-wise XOR of ``blocks``, each zero-padded to the longest (or to
    ``length``) — the padded-block rule both build and repair use."""
    width = max((len(b) for b in blocks), default=0)
    if length is not None:
        width = max(width, int(length))
    acc = np.zeros(width, dtype=np.uint8)
    for b in blocks:
        if b:
            acc[: len(b)] ^= np.frombuffer(b, dtype=np.uint8)
    return acc.tobytes()


@dataclass(frozen=True)
class StripeMember:
    """One data-shard segment covered by a stripe."""

    #: Member shard basename (resolves against the parity file's directory).
    shard: str
    step: int
    #: Absolute offset of the segment inside the shard file.
    offset: int
    #: Segment length *including* its seal record.
    length: int
    #: crc32 of exactly those ``length`` bytes.
    crc32: int


@dataclass(frozen=True)
class ParityStripe:
    """One XOR block over the i-th sealed segment of each group member."""

    index: int
    #: Where the parity bytes live inside the parity file.
    offset: int
    length: int
    crc32: int
    members: tuple[StripeMember, ...]

    def member_for(self, shard: str, step: int) -> StripeMember | None:
        for m in self.members:
            if m.shard == shard and m.step == step:
                return m
        return None


def pack_parity_index(
    group: int, members: Sequence[str], stripes: Sequence[ParityStripe]
) -> bytes:
    """Serialize the parity index JSON (canonical key order)."""
    member_pos = {name: i for i, name in enumerate(members)}
    index = {
        "format": "rpxp",
        "version": PARITY_VERSION,
        "scheme": PARITY_SCHEME,
        "group": int(group),
        "members": list(members),
        "stripes": [
            [
                s.index, s.offset, s.length, s.crc32,
                [
                    [member_pos[m.shard], m.step, m.offset, m.length, m.crc32]
                    for m in s.members
                ],
            ]
            for s in stripes
        ],
    }
    return json.dumps(index, separators=(",", ":")).encode()


class ParityReader(Closing):
    """Random access over one RPXP parity shard.

    ``source`` is a seekable file or byte buffer (or an open
    :class:`~repro.storage.ByteSource`, which the reader adopts), ``name``
    what messages call it; :meth:`open` opens a named object and owns the
    handle. The footer and index are read eagerly (a few hundred bytes);
    stripe parity blocks are fetched on demand. :meth:`reconstruct` is the
    repair primitive: given a ``read`` callable over the member shards,
    it rebuilds one lost member's segment+seal bytes bit-exactly (crc
    proven) or raises :class:`~repro.errors.IntegrityError`.
    """

    def __init__(self, source, name: str | Path):
        self._name = str(name)
        with ByteSource.under(source) as self._src:
            self._parse()

    @classmethod
    def open(
        cls, name: str | Path, *, mmap: bool = False,
        backend: StorageBackend | None = None,
    ) -> "ParityReader":
        """Open a parity shard by name (the reader owns the handle), from
        the local filesystem or through ``backend``."""
        src = ByteSource.open(name, mmap=mmap, backend=backend)
        try:
            return cls(src, name)
        except BaseException:
            src.close()
            raise

    def _parse(self) -> None:
        total = self._src.size
        if total < _PARITY_HEADER.size + FOOTER_SIZE:
            raise FormatError(
                f"{self._name}: too short ({total} bytes) for RPXP framing"
            )
        magic, version = _PARITY_HEADER.unpack(
            self._src.read(0, _PARITY_HEADER.size)
        )
        if magic != PARITY_MAGIC:
            raise FormatError(
                f"{self._name}: not an RPXP parity shard (magic {magic!r})"
            )
        if version != PARITY_VERSION:
            raise FormatError(f"unsupported parity version {version}")
        index, _ = read_index(self._src, PARITY_FOOTER_MAGIC, self._name)
        try:
            if index["format"] != "rpxp":
                raise FormatError(
                    f"unexpected parity index format {index['format']!r}"
                )
            if index["scheme"] != PARITY_SCHEME:
                raise FormatError(
                    f"unsupported parity scheme {index['scheme']!r}"
                )
            self.group = int(index["group"])
            self.members: tuple[str, ...] = tuple(index["members"])
            stripes = []
            for si, off, ln, crc, rows in index["stripes"]:
                stripes.append(
                    ParityStripe(
                        index=int(si), offset=int(off), length=int(ln),
                        crc32=int(crc),
                        members=tuple(
                            StripeMember(
                                shard=self.members[int(mi)], step=int(st),
                                offset=int(so), length=int(sl), crc32=int(sc),
                            )
                            for mi, st, so, sl, sc in rows
                        ),
                    )
                )
        except (KeyError, IndexError, ValueError, TypeError) as exc:
            raise FormatError(
                f"{self._name}: corrupt parity index: {exc!r}"
            ) from exc
        self.stripes: tuple[ParityStripe, ...] = tuple(stripes)
        self._by_member = {
            (m.shard, m.step): (s, m)
            for s in self.stripes
            for m in s.members
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        self._src.close()

    @property
    def name(self) -> str:
        return self._name

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def stripe_for(self, shard: str, step: int) -> tuple[ParityStripe, StripeMember] | None:
        """The stripe (and member row) covering ``step`` of shard basename
        ``shard``, or ``None`` when this parity file does not cover it."""
        return self._by_member.get((os.path.basename(shard), int(step)))

    def parity_bytes(self, stripe: ParityStripe, verify: bool = True) -> bytes:
        """One stripe's raw XOR block (crc-checked unless ``verify=False``)."""
        blob = self._src.read(stripe.offset, stripe.length)
        if len(blob) != stripe.length:
            raise FormatError(
                f"{self._name}: parity stripe {stripe.index}: read "
                f"{len(blob)} of {stripe.length} bytes (truncated?)"
            )
        if verify and zlib.crc32(blob) != stripe.crc32:
            raise FormatError(
                f"{self._name}: parity stripe {stripe.index} checksum mismatch"
            )
        return blob

    def reconstruct(
        self,
        stripe: ParityStripe,
        lost: StripeMember,
        read: Callable[[str, int, int], bytes],
    ) -> bytes:
        """Rebuild one lost member's segment+seal bytes from the stripe.

        ``read(shard_basename, offset, length)`` must return the exact
        bytes of a *surviving* member (raising
        :class:`~repro.errors.StorageError` / :class:`~repro.errors.FormatError`
        when it cannot). Survivors are crc-checked before use — XORing a
        silently-corrupt survivor would manufacture plausible garbage —
        and the reconstruction is only returned once it matches the lost
        member's recorded crc32.
        """
        blocks = [self.parity_bytes(stripe)]
        for m in stripe.members:
            if m is lost or (m.shard == lost.shard and m.step == lost.step):
                continue
            try:
                blob = read(m.shard, m.offset, m.length)
            except (StorageError, FormatError, OSError) as exc:
                raise IntegrityError(
                    f"cannot reconstruct step {lost.step} of {lost.shard}: "
                    f"surviving member {m.shard} step {m.step} is also "
                    f"unreadable ({exc}) — {PARITY_SCHEME} covers one lost "
                    "member per stripe"
                ) from exc
            if len(blob) != m.length or zlib.crc32(blob) != m.crc32:
                raise IntegrityError(
                    f"cannot reconstruct step {lost.step} of {lost.shard}: "
                    f"surviving member {m.shard} step {m.step} fails its "
                    f"recorded crc — two lost members in one stripe exceed "
                    f"what {PARITY_SCHEME} can repair"
                )
            blocks.append(blob)
        out = xor_blocks(blocks)[: lost.length]
        if len(out) != lost.length or zlib.crc32(out) != lost.crc32:
            raise IntegrityError(
                f"reconstruction of step {lost.step} of {lost.shard} fails "
                "its recorded crc (parity block damaged or stale)"
            )
        return out


def build_parity(
    backend: StorageBackend,
    parity_name: str,
    group: int,
    member_names: Sequence[str],
    member_segments: Sequence[Sequence[tuple[int, int, int]]],
) -> dict:
    """Write one parity shard over its member shards' sealed segments.

    ``member_segments[i]`` lists ``(step, offset, length)`` rows for
    ``member_names[i]`` — the segment **plus seal** extents, in step
    order. Reads the member bytes back through ``backend``, XORs stripe
    by stripe (bounded memory: one stripe at a time), and writes the
    RPXP file. Returns the manifest accounting row::

        {"name": basename, "group": j, "members": [basenames],
         "stripes": n, "bytes": parity_file_size}
    """
    basenames = [os.path.basename(n) for n in member_names]
    sources: dict[str, ByteSource] = {}
    stripes: list[ParityStripe] = []
    try:
        # Members first: a missing one must not truncate an existing file.
        for name in member_names:
            sources[os.path.basename(name)] = ByteSource.open(name, backend=backend)
        with ByteSink.create(parity_name, backend=backend) as sink:
            sink.write(_PARITY_HEADER.pack(PARITY_MAGIC, PARITY_VERSION))
            depth = max((len(rows) for rows in member_segments), default=0)
            for i in range(depth):
                members: list[StripeMember] = []
                blocks: list[bytes] = []
                for shard, rows in zip(basenames, member_segments):
                    if i >= len(rows):
                        continue
                    step, offset, length = rows[i]
                    blob = sources[shard].read(offset, length)
                    if len(blob) != length:
                        raise FormatError(
                            f"{shard} step {step} segment: read {len(blob)} of "
                            f"{length} bytes (truncated?)"
                        )
                    members.append(
                        StripeMember(
                            shard=shard, step=int(step), offset=int(offset),
                            length=int(length), crc32=zlib.crc32(blob),
                        )
                    )
                    blocks.append(blob)
                parity = xor_blocks(blocks)
                stripes.append(
                    ParityStripe(
                        index=i, offset=sink.pos, length=len(parity),
                        crc32=zlib.crc32(parity), members=tuple(members),
                    )
                )
                sink.write(parity)
            index_bytes = pack_parity_index(group, basenames, stripes)
            footer = pack_footer(
                sink.pos, len(index_bytes), zlib.crc32(index_bytes),
                PARITY_FOOTER_MAGIC,
            )
            sink.write(index_bytes)
            sink.write(footer)
            # Stable before any manifest that names this file is written.
            sink.sync()
    finally:
        for src in sources.values():
            src.close()
    return {
        "name": os.path.basename(str(parity_name)),
        "group": int(group),
        "members": basenames,
        "stripes": len(stripes),
        "bytes": sink.pos,
    }
