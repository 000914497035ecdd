"""Seekable patch-indexed container for compressed AMR hierarchies.

The paper's central structural observation is that patches are independent:
each (level, field, patch) triple compresses to its own self-describing
codec stream, so a container that *indexes* those streams makes selective
decompression a free by-product of the layout. This module implements that
container (magic ``RPH2``):

.. code-block:: text

    offset 0   magic  b"RPH2"
    offset 4   u8     container version (currently 1)
    offset 5   patch streams, concatenated back to back; each stream is an
               independent self-describing codec blob (``RPRC`` framing)
    ...        group sections (only in grouped containers; see below)
    ...        index: JSON document (see below)
    EOF-28     footer: u64 index_offset, u64 index_length,
               u32 crc32(index bytes), followed at EOF-8 by the
               footer magic b"RPH2-IDX"

The index is *footer-located*: a reader seeks to the last 28 bytes, checks
the footer magic, then reads exactly the index — so random access to one
patch costs O(footer + index + that patch's stream) bytes, never O(file).
The RPH2S series and RPXP parity formats end in the same 28-byte trailer
under their own footer magics; :func:`pack_footer` writes and
:func:`read_index` parses it for all three.

Index schema (JSON)::

    {
      "format": "rph2", "version": 1,
      "codec": str, "error_bound": float, "mode": str,
      "fields": [str, ...], "exclude_covered": bool,
      "original_bytes": int, "n_levels": int,
      "entries": [[level, field, patch, offset, length, codec, crc32], ...],
      "groups": [[gid, offset, length, header_crc32], ...]   # optional
    }

Every stream carries its own crc32 in the index; corruption is detected
per patch and reported with the failing ``(level, field, patch)`` triple.

Grouped streams
---------------
``compress_hierarchy`` (and every series segment) entropy-codes each run
of consecutive patches of one (level, field) that an sz-lr or sz-interp
codec encodes together against a **shared Huffman codebook**. The
codebook and the per-patch entropy payloads
live in a *group section* (magic ``RPGB``), one per group, after the patch
streams in group-id order:

.. code-block:: text

    offset 0   magic  b"RPGB"
    offset 4   u32    n_patches (group members)
    offset 8   u32    codebook_length
    offset 12  u64    payload_length (sum of all member payloads)
    offset 20  shared codebook (HUFB blob, see repro.compression.huffman)
    ...        extents: n_patches rows of
               (u64 payload_offset, u64 payload_length, u32 crc32) —
               offsets relative to the payload region start
    ...        member payloads, concatenated (each a backend-compressed
               HUFS blob)

A grouped patch's index entry grows two columns —
``[..., crc32, gid, member]`` — naming its group and its row in the extent
table; its codec stream keeps every per-patch section (modes,
coefficients, ...) but no codes section. Random access to one patch reads
the group *header* (codebook + extents, small, cached per reader) plus
only that member's payload extent, so ``decompress_selection`` stays
O(selection) payload bytes. The group header carries its own crc32 in the
index row; each payload extent carries one in the extent table.

A container without groups (a codec without a grouped path,
``entropy="deflate"``) has no ``"groups"`` key and 7-column entries;
readers older than the grouped layout cannot open grouped containers.
"""

from __future__ import annotations

import io
import json
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping, Sequence

import numpy as np

from repro.compression import huffman
from repro.compression.base import BatchResult, SharedEntropy
from repro.compression.lossless import compress_bytes, decompress_bytes
from repro.compression.registry import make_codec
from repro.errors import CompressionError, DecompressionError, FormatError, ReproError
from repro.parallel.pool import WorkerPool, check_pool
from repro.storage import ByteSink, ByteSource, Closing

__all__ = [
    "CONTAINER_MAGIC",
    "CONTAINER_VERSION",
    "FOOTER_MAGIC",
    "GROUP_MAGIC",
    "PatchIndexEntry",
    "GroupIndexEntry",
    "GroupHandle",
    "ReaderView",
    "ContainerReader",
    "HEADER_SIZE",
    "FOOTER_SIZE",
    "pack_container",
    "pack_group",
    "pack_header",
    "pack_footer",
    "unpack_footer",
    "read_index",
    "build_index_bytes",
]

CONTAINER_MAGIC = b"RPH2"
FOOTER_MAGIC = b"RPH2-IDX"
#: Magic prefix of a shared-codebook group section.
GROUP_MAGIC = b"RPGB"
#: Current container format version (the u8 after the magic).
CONTAINER_VERSION = 1
_VERSION = CONTAINER_VERSION
_HEADER = struct.Struct("<4sB")
_FOOTER = struct.Struct("<QQI8s")
#: Fixed framing sizes, public for tools that walk raw container bytes
#: (the series recovery scanner, tools/faultsim.py).
HEADER_SIZE = _HEADER.size
FOOTER_SIZE = _FOOTER.size
#: Fixed prefix of a group section: magic, n_patches (u32),
#: codebook_length (u32), payload_length (u64).
_GROUP_HEAD = struct.Struct("<4sIIQ")
#: One extent-table row: payload offset (u64, relative to the payload
#: region), payload length (u64), crc32 (u32).
_GROUP_EXTENT = struct.Struct("<QQI")
#: Version byte a reader sees when handed an RPH2S *series* file: the series
#: magic b"RPH2S" shares the 4-byte RPH2 prefix on purpose, so the byte at
#: offset 4 is ord("S") and snapshot readers can point at the series API.
_SERIES_VERSION_BYTE = 0x53

#: Meta keys serialized into the index besides the patch entries.
_META_KEYS = (
    "codec",
    "error_bound",
    "mode",
    "fields",
    "exclude_covered",
    "original_bytes",
    "n_levels",
)


#: How error messages name the patch ``(level, field, patch)``.
_describe = "(level={}, field={!r}, patch={})".format


@dataclass(frozen=True)
class PatchIndexEntry:
    """One row of the patch index: where a stream lives and how to check it.

    ``group``/``member`` are ``None`` for self-contained streams; a grouped
    stream names its shared-codebook group section and its row in that
    group's extent table.
    """

    level: int
    field: str
    patch: int
    offset: int
    length: int
    codec: str
    crc32: int
    group: int | None = None
    member: int | None = None

    @property
    def key(self) -> tuple[int, str, int]:
        """The ``(level, field, patch)`` triple identifying this stream."""
        return (self.level, self.field, self.patch)

    def describe(self) -> str:
        """Human-readable patch identifier for error messages."""
        return _describe(*self.key)


@dataclass(frozen=True)
class GroupIndexEntry:
    """One row of the group table: where a group section lives and the
    crc32 of its header region (prefix + codebook + extent table)."""

    gid: int
    offset: int
    length: int
    header_crc32: int


def pack_group(codebook: bytes, payloads: Sequence[bytes]) -> bytes:
    """Serialize one shared-codebook group section (``RPGB`` layout).

    ``codebook`` is the group's ``HUFB`` blob — stored DEFLATEd in the
    self-describing :func:`repro.compression.lossless.compress_bytes`
    framing (a sorted int64 alphabet plus a length table compresses ~2x,
    and the cost is one zlib call per *group*); ``payloads`` are the
    members' ``HUFS`` blobs, in member order. See the module docstring
    for the byte layout.
    """
    if not payloads:
        raise CompressionError("a group section needs at least one member payload")
    wrapped = compress_bytes(codebook, "deflate")
    extents = bytearray()
    rel = 0
    for blob in payloads:
        extents += _GROUP_EXTENT.pack(rel, len(blob), zlib.crc32(blob))
        rel += len(blob)
    out = bytearray()
    out += _GROUP_HEAD.pack(GROUP_MAGIC, len(payloads), len(wrapped), rel)
    out += wrapped
    out += extents
    for blob in payloads:
        out += blob
    return bytes(out)


def _group_header_len(n_patches: int, codebook_len: int) -> int:
    return _GROUP_HEAD.size + codebook_len + n_patches * _GROUP_EXTENT.size


def _group_row(gid: int, offset: int, blob: bytes) -> list:
    """The group-table row of the :func:`pack_group` section ``blob``
    written at ``offset``: ``[gid, offset, length, header_crc32]``."""
    n_patches, codebook_len = struct.unpack_from("<II", blob, 4)
    header_len = _group_header_len(n_patches, codebook_len)
    return [gid, offset, len(blob), zlib.crc32(bytes(blob[:header_len]))]


class GroupHandle:
    """Parsed header of one group section plus lazy member-payload access.

    ``section`` is the group section's :class:`~repro.storage.ByteSource`
    window of a container (:meth:`ContainerReader.group`, whether the
    container is a file or the bytes an in-memory
    :class:`~repro.compression.amr_codec.CompressedHierarchy` holds). The
    header — shared codebook bytes and extent table — is read once, and
    checked against ``header_crc32`` before it is parsed when one is given;
    payloads are fetched per member, so a selection touches only its
    members' extents. The decoded
    :class:`~repro.compression.huffman.SharedCodebook` (and with it the
    flat decode tables) is cached, which is what amortizes table
    construction across all members of the group.
    """

    def __init__(self, gid: int, section: ByteSource, header_crc32: int | None = None):
        prefix = section.read(0, _GROUP_HEAD.size)
        if len(prefix) < _GROUP_HEAD.size or prefix[:4] != GROUP_MAGIC:
            raise FormatError(f"group {gid}: not a group section (bad magic)")
        magic, n_patches, codebook_len, payload_len = _GROUP_HEAD.unpack(prefix)
        header_len = _group_header_len(n_patches, codebook_len)
        header = prefix + section.read(_GROUP_HEAD.size, header_len - _GROUP_HEAD.size)
        #: crc32 of the header region as read (the group table records it).
        self.header_crc32 = zlib.crc32(header)
        if header_crc32 is not None and self.header_crc32 != header_crc32:
            raise FormatError(
                f"group {gid}: header checksum mismatch (corrupt shared "
                "codebook or extent table)"
            )
        if n_patches < 1:
            raise FormatError(f"group {gid}: empty group section")
        if len(header) < header_len:
            raise FormatError(
                f"group {gid}: truncated shared codebook or extent table "
                f"(header needs {header_len} bytes, section gave {len(header)})"
            )
        if header_len + payload_len > section.size:
            raise FormatError(
                f"group {gid}: recorded payload region ({payload_len} bytes) "
                "extends past the group section end"
            )
        self.gid = gid
        self.n_patches = int(n_patches)
        self.header_len = header_len
        self.payload_len = int(payload_len)
        try:
            self.codebook_bytes = decompress_bytes(
                header[_GROUP_HEAD.size : _GROUP_HEAD.size + codebook_len],
                huffman.blob_bound(1 << huffman.MAX_CODE_LENGTH),
            )
        except DecompressionError as exc:
            raise FormatError(
                f"group {gid}: corrupt shared codebook wrapper: {exc}"
            ) from exc
        ext = header[_GROUP_HEAD.size + codebook_len : header_len]
        self._extents = [
            _GROUP_EXTENT.unpack_from(ext, i * _GROUP_EXTENT.size)
            for i in range(self.n_patches)
        ]
        for m, (rel, ln, _) in enumerate(self._extents):
            if rel + ln > self.payload_len:
                raise FormatError(
                    f"group {gid}: member {m} payload extent "
                    f"[{rel}, {rel + ln}) past the group payload end "
                    f"({self.payload_len} bytes)"
                )
        self._section = section
        self._codebook: huffman.SharedCodebook | None = None

    @property
    def codebook(self) -> huffman.SharedCodebook:
        """The group's shared codebook, parsed once and cached."""
        if self._codebook is None:
            try:
                self._codebook = huffman.SharedCodebook.frombytes(self.codebook_bytes)
            except Exception as exc:
                raise FormatError(
                    f"group {self.gid}: corrupt shared codebook: {exc}"
                ) from exc
        return self._codebook

    # kept: the member extent table a selection planner reads
    @property
    def extents(self) -> tuple[tuple[int, int, int], ...]:
        """The member extent table: ``(rel_offset, length, crc32)`` per
        member, offsets relative to the payload region start."""
        return tuple(self._extents)

    def member_extent(self, member: int) -> tuple[int, int, int]:
        """One member's ``(rel_offset, length, crc32)`` extent-table row —
        what a selection planner needs to target the payload bytes without
        reading them here."""
        if not 0 <= member < self.n_patches:
            raise FormatError(
                f"group {self.gid} has {self.n_patches} members, not member {member}"
            )
        return self._extents[member]

    def read_payload(self, member: int, verify: bool = True):
        """One member's entropy payload (crc-checked against the extent
        table when ``verify``)."""
        if not 0 <= member < self.n_patches:
            raise FormatError(
                f"group {self.gid} has {self.n_patches} members, not member {member}"
            )
        rel, length, crc = self._extents[member]
        blob = self._section.view(self.header_len + rel, length)
        if len(blob) != length:
            raise FormatError(
                f"group {self.gid}: member {member} payload truncated "
                f"(wanted {length} bytes, got {len(blob)})"
            )
        if verify and zlib.crc32(blob) != crc:
            raise FormatError(
                f"group {self.gid}: checksum mismatch in member {member} payload"
            )
        return blob

    def shared(self, member: int, verify: bool = True, copy: bool = False) -> SharedEntropy:
        """The :class:`~repro.compression.base.SharedEntropy` for one
        member. ``copy=True`` materializes owned ``bytes`` and ships the
        raw codebook (picklable; the process-mode path)."""
        payload = self.read_payload(member, verify=verify)
        if copy:
            return SharedEntropy(self.codebook_bytes, bytes(payload))
        return SharedEntropy(self.codebook, payload)


def pack_header() -> bytes:
    """The 5-byte ``RPH2`` container header (magic + version)."""
    return _HEADER.pack(CONTAINER_MAGIC, _VERSION)


def pack_footer(
    index_offset: int, index_length: int, index_crc32: int,
    magic: bytes = FOOTER_MAGIC,
) -> bytes:
    """The 28-byte trailer locating (and checksumming) an index — the RPH2
    container's by default; the RPH2S series and RPXP parity formats pass
    their own footer ``magic``."""
    return _FOOTER.pack(index_offset, index_length, index_crc32, magic)


def unpack_footer(blob: bytes, magic: bytes = FOOTER_MAGIC) -> tuple[int, int, int]:
    """Parse a 28-byte trailer into ``(index_offset, index_length,
    index_crc32)``. Raises :class:`FormatError` on a short read or bad
    footer magic — the two signatures of a truncated file."""
    if len(blob) != FOOTER_SIZE:
        raise FormatError(f"footer truncated ({len(blob)} of {FOOTER_SIZE} bytes)")
    index_offset, index_length, index_crc, footer_magic = _FOOTER.unpack(blob)
    if footer_magic != magic:
        raise FormatError(
            f"bad footer magic {footer_magic!r}, expected {magic!r} "
            "(truncated mid-write or never finalized?)"
        )
    return index_offset, index_length, index_crc


def read_index(
    src: ByteSource, footer_magic: bytes, what: str, error=FormatError, hint: str = ""
) -> tuple[dict, int]:
    """Locate, bound, checksum and JSON-decode the index behind the
    trailer of ``src``; returns ``(index, index_offset)``.

    The one trailer parser of RPH2, RPH2S and RPXP: each passes its footer
    magic, ``what`` it is called in messages, and the ``error`` class (plus
    a ``hint`` appended to the message) its damage is reported as.
    """
    end = src.size - FOOTER_SIZE
    try:
        index_offset, index_length, index_crc = unpack_footer(
            src.read(end, FOOTER_SIZE), footer_magic
        )
        if index_offset + index_length > end:
            raise FormatError("index extends past end of file (truncated?)")
        index_bytes = src.read(index_offset, index_length)
        if len(index_bytes) != index_length or zlib.crc32(index_bytes) != index_crc:
            raise FormatError("index checksum mismatch (corrupt index)")
        try:
            return json.loads(index_bytes.decode()), index_offset
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise FormatError(f"corrupt index: {exc}") from exc
    except FormatError as exc:
        raise error(f"{what}: {exc}{hint}") from exc


def build_index_bytes(
    meta: Mapping[str, Any],
    n_levels: int,
    entries: Sequence[Sequence],
    groups: Sequence[Sequence] | None = None,
) -> bytes:
    """Serialize the container index JSON (canonical key order).

    Called by :meth:`~repro.compression.amr_codec.SegmentWriter.finish`,
    the one writer of every ``RPH2`` container and series segment. The ``groups``
    table is only emitted when non-empty, keeping containers without
    shared codebooks byte-identical to the pre-group format.
    """
    index = {
        "format": "rph2",
        "version": _VERSION,
        "codec": str(meta["codec"]),
        "error_bound": float(meta["error_bound"]),
        "mode": str(meta["mode"]),
        "fields": list(meta["fields"]),
        "exclude_covered": bool(meta["exclude_covered"]),
        "original_bytes": int(meta["original_bytes"]),
        "n_levels": int(n_levels),
        "entries": [list(e) for e in entries],
    }
    # Per-field error-bound overrides are an optional key: only emitted
    # when non-empty, so single-bound containers stay byte-identical to
    # the pre-override format.
    if meta.get("field_bounds"):
        index["field_bounds"] = {
            str(k): float(v) for k, v in sorted(meta["field_bounds"].items())
        }
    if groups:
        index["groups"] = [list(g) for g in groups]
    return json.dumps(index, separators=(",", ":")).encode()


# kept: benchmarks/e2e/trace.py ENTRY_POINTS names it
def pack_container(
    meta: Mapping[str, Any], streams: Sequence[Mapping[str, Sequence[bytes]]]
) -> bytes:
    """An ``RPH2`` container of self-contained per-patch ``streams``
    (``streams[level][field][patch] -> bytes``) under ``meta`` (every index
    key but ``n_levels``), laid out by the one
    :class:`~repro.compression.amr_codec.SegmentWriter`."""
    from repro.compression.amr_codec import SegmentWriter  # it imports this module

    buf = io.BytesIO()
    segment = SegmentWriter(ByteSink(buf), None)
    for lev_idx, level in enumerate(streams):
        for field in sorted(level):
            for p_idx, blob in enumerate(level[field]):
                segment.write_run(lev_idx, field, p_idx, BatchResult(None, [], [blob]))
    segment.finish(meta)
    return buf.getvalue()


def _normalize_selector(value, kind: str) -> set | None:
    """Turn a scalar-or-iterable selector into a set (``None`` = all).

    ``field`` selectors hold strings; ``step``/``level``/``patch``
    selectors hold integers — ints, NumPy integers, or floats with an
    integral finite value — and nothing is coerced: a bool, a fractional
    or non-finite number, a bool array or anything else is a
    :class:`~repro.errors.CompressionError` naming the selector, never a
    rounded index or a downstream ``TypeError`` / ``OverflowError``.
    """
    if value is None:
        return None
    if kind == "field":
        if isinstance(value, str):
            return {value}
        try:
            items = set(value)
        except TypeError:
            items = None
        if items is None or not all(isinstance(v, str) for v in items):
            raise CompressionError(
                f"invalid {kind} selector {value!r}: pass a field name, an "
                "iterable of names, or None"
            )
        return items
    if isinstance(value, (int, float, np.number, np.bool_)):
        return {_selector_int(value, value, kind)}
    try:
        items = None if isinstance(value, (str, bytes)) else tuple(value)
    except TypeError:
        items = None
    if items is None:
        raise CompressionError(
            f"invalid {kind} selector {value!r}: pass an int, an iterable of "
            "ints, or None"
        )
    if set(map(type, items)) <= {int}:  # plain ints, the common case: one pass
        return set(items)
    return {_selector_int(v, value, kind) for v in items}


def _selector_int(v, value, kind: str) -> int:
    """One item of an integer selector ``value``, exactly as given."""
    if isinstance(v, (int, np.integer)) and not isinstance(v, bool):
        return int(v)
    if (
        isinstance(v, (float, np.floating))
        and np.isfinite(v)
        and float(v).is_integer()
    ):
        return int(v)
    raise CompressionError(
        f"invalid {kind} selector {value!r}: {v!r} is not an integer; pass "
        "an int, an iterable of ints, or None"
    )


def _selection(levels, fields, patches) -> tuple[set | None, set | None, set | None]:
    """The three patch selectors, validated, as the sets
    :meth:`ContainerReader.lookup` takes."""
    return (
        _normalize_selector(levels, "level"),
        _normalize_selector(fields, "field"),
        _normalize_selector(patches, "patch"),
    )


class ReaderView(Closing):
    """What every reader serves from its parsed ``self._meta`` — the
    compression settings recorded at write time — and the ``with`` block.
    :class:`ContainerReader`, both series readers (``repro.insitu``) and the
    read service (:class:`repro.serve.QueryService`) extend it; each names
    what it reads in :attr:`kind`."""

    _meta: dict
    #: ``"snapshot"``, ``"series"`` or ``"campaign"`` (``repro.open``'s sniff).
    kind: str

    @property
    def codec(self) -> str:
        """Default codec name recorded at compression time."""
        return str(self._meta["codec"])

    @property
    def error_bound(self) -> float:
        """Error bound the data was compressed under."""
        return float(self._meta["error_bound"])

    @property
    def mode(self) -> str:
        """Error-bound mode (``"abs"`` or ``"rel"``)."""
        return str(self._meta["mode"])

    @property
    def fields(self) -> tuple[str, ...]:
        """Compressed field names (identical across a series' steps)."""
        return tuple(self._meta["fields"])

    # kept: operator need: whether a container stores covered coarse cells (its hierarchy oracle reads it)
    @property
    def exclude_covered(self) -> bool:
        """Whether the §2.2 covered-cell optimization was applied."""
        return bool(self._meta["exclude_covered"])

    @property
    def field_bounds(self) -> dict[str, float]:
        """Per-field error-bound overrides (empty when single-bound)."""
        return dict(self._meta.get("field_bounds", {}))

    def meta(self) -> dict[str, Any]:
        """Copy of the container- or series-level metadata."""
        return dict(self._meta)


class ContainerReader(ReaderView):
    """Random access over a seekable ``RPH2`` container.

    Reads the footer and index eagerly (a few hundred bytes for typical
    hierarchies) and individual patch streams lazily, so a single-patch
    fetch consumes O(patch) bytes of the payload.

    Parameters
    ----------
    source:
        Either a seekable binary file-like object positioned anywhere
        (streams are fetched via seek + read and returned as ``bytes``),
        or any byte buffer — ``bytes``, ``bytearray``, ``memoryview``, or
        an ``mmap`` (the **zero-copy mode**: :meth:`read_stream` returns
        ``memoryview`` slices of the buffer, crc-verified against the
        view, and the codecs decode them without an intermediate ``bytes``
        copy). :meth:`open` with ``mmap=True`` builds the zero-copy mode
        over a memory-mapped file. The reader does not own a file-like
        source unless constructed through :meth:`open`.
    """

    kind = "snapshot"

    def __init__(self, source):
        with ByteSource.under(source) as self._src:
            self._parse_index()

    def _parse_index(self) -> None:
        total = self._src.size
        head = self._src.read(0, _HEADER.size)
        # The one rejection of the pre-index monolithic format, ahead of
        # the size check: a legacy blob of any length is named as such.
        if head[:4] == b"RPRH":
            raise FormatError(
                "unsupported legacy magic b'RPRH': the pre-index monolithic "
                "container is no longer readable; re-compress the source data "
                "with the current writer"
            )
        if total < _HEADER.size + _FOOTER.size:
            raise FormatError(f"container too short ({total} bytes) for RPH2 framing")
        magic, version = _HEADER.unpack(head)
        if magic != CONTAINER_MAGIC:
            raise FormatError(
                f"not an RPH2 container (magic {magic!r}, expected {CONTAINER_MAGIC!r})"
            )
        if version == _SERIES_VERSION_BYTE:
            raise FormatError(
                "this is an RPH2S time-series container; open it with "
                "repro.insitu.SeriesReader / repro.amr.io.open_series"
            )
        if version != _VERSION:
            raise FormatError(f"unsupported container version {version}")
        index, index_offset = read_index(self._src, FOOTER_MAGIC, "container")
        try:
            self._meta = {k: index[k] for k in _META_KEYS}
            if "field_bounds" in index:
                self._meta["field_bounds"] = {
                    str(k): float(v) for k, v in index["field_bounds"].items()
                }
            self._payload_end = index_offset
            self.entries: list[PatchIndexEntry] = []
            for row in index["entries"]:
                if len(row) == 7:
                    l, f, p, off, ln, c, crc = row
                    gid = member = None
                elif len(row) == 9:
                    l, f, p, off, ln, c, crc, gid, member = row
                    gid = int(gid)
                    member = int(member)
                else:
                    raise ValueError(f"entry row has {len(row)} columns")
                self.entries.append(
                    PatchIndexEntry(
                        int(l), str(f), int(p), int(off), int(ln), str(c),
                        int(crc), gid, member,
                    )
                )
            self.group_entries: list[GroupIndexEntry] = [
                GroupIndexEntry(int(g), int(off), int(ln), int(crc))
                for g, off, ln, crc in index.get("groups", [])
            ]
            n_levels = int(index["n_levels"])
        except (KeyError, ValueError, TypeError) as exc:
            raise FormatError(f"malformed container index: {exc!r}") from exc
        self._by_gid = {g.gid: g for g in self.group_entries}
        if len(self._by_gid) != len(self.group_entries):
            raise FormatError("container group table has duplicate group ids")
        self._group_members: dict[int, int] = {}
        for g in self.group_entries:
            if g.length < _GROUP_HEAD.size:
                raise FormatError(f"group {g.gid} section too short")
            if g.offset < _HEADER.size or g.offset + g.length > self._payload_end:
                raise FormatError(f"group {g.gid} section points outside the payload")
        # The selection lookup (:meth:`lookup`): the catalog cut into runs of
        # consecutive entries that share a (level, field) and repeat no
        # patch, each a patch -> catalog position map in catalog order.
        runs: list[tuple[int, str, dict[int, int]]] = []
        where: dict[int, int] = {}
        for i, e in enumerate(self.entries):
            if not runs or runs[-1][0] != e.level or runs[-1][1] != e.field or e.patch in where:
                where = {}
                runs.append((e.level, e.field, where))
            where[e.patch] = i
            if not 0 <= e.level < n_levels:
                raise FormatError(
                    f"index entry {e.describe()} has out-of-range level "
                    f"(container has {n_levels} levels)"
                )
            if e.patch < 0 or e.length < 0:
                raise FormatError(f"index entry {e.describe()} is malformed")
            if e.offset < _HEADER.size or e.offset + e.length > self._payload_end:
                raise FormatError(
                    f"index entry {e.describe()} points outside the payload"
                )
            if e.group is not None:
                if e.group not in self._by_gid:
                    raise FormatError(
                        f"index entry {e.describe()} references unknown group "
                        f"{e.group}"
                    )
                if e.member is None or e.member < 0:
                    raise FormatError(
                        f"index entry {e.describe()} has a malformed group member"
                    )
                self._group_members[e.group] = self._group_members.get(e.group, 0) + 1
        self._runs = runs
        self._by_key = {e.key: e for e in self.entries}
        self._group_cache: dict[int, GroupHandle] = {}

    # ------------------------------------------------------------------
    # Construction / lifecycle
    # ------------------------------------------------------------------
    # kept: repro.open reports whether a reader serves zero-copy views
    @property
    def mapped(self) -> bool:
        """True when the reader serves zero-copy views of a byte buffer."""
        return self._src.mapped

    @classmethod
    def open(
        cls, path: str | Path, *, mmap: bool = False, backend=None
    ) -> "ContainerReader":
        """Open a container file for random access (reader owns the handle).

        With ``mmap=True`` the file is memory-mapped and the reader runs in
        zero-copy mode: :meth:`read_stream` (and therefore :meth:`select` /
        ``decompress_selection``) hands the codecs ``memoryview`` slices of
        the mapping instead of copied ``bytes``.

        ``backend`` (a :class:`repro.storage.StorageBackend`) redirects all
        byte reads through the backend — e.g. a
        :class:`repro.storage.RangedBackend` serving retried, readahead
        ranged GETs — instead of the local filesystem; mutually exclusive
        with ``mmap``.
        """
        src = ByteSource.open(path, mmap=mmap, backend=backend)
        try:
            return cls(src)
        except BaseException:
            src.close()
            raise

    def close(self) -> None:
        """Close the underlying file/mapping if this reader opened it.

        In zero-copy mode, any ``memoryview`` handed out by
        :meth:`read_stream` must be released before closing — a live view
        pins the mapping and makes this raise ``BufferError``. Decoded
        arrays are fresh allocations and never pin it.
        """
        self._src.close()

    # ------------------------------------------------------------------
    # Metadata (the rest is :class:`ReaderView`)
    # ------------------------------------------------------------------
    @property
    def original_bytes(self) -> int:
        """Uncompressed size of the stored fields."""
        return int(self._meta["original_bytes"])

    @property
    def n_levels(self) -> int:
        """Number of AMR levels in the container."""
        return int(self._meta["n_levels"])

    @property
    def compressed_bytes(self) -> int:
        """Total payload size across all patch streams and group sections."""
        return sum(e.length for e in self.entries) + sum(
            g.length for g in self.group_entries
        )

    # ------------------------------------------------------------------
    # Random access
    # ------------------------------------------------------------------
    # kept: operator need: look one patch up by (level, field, patch)
    def entry(self, level: int, field: str, patch: int) -> PatchIndexEntry:
        """Look up the index entry for one patch."""
        try:
            return self._by_key[(int(level), str(field), int(patch))]
        except KeyError:
            raise FormatError(
                f"container has no patch (level={level}, field={field!r}, patch={patch})"
            ) from None

    def lookup(
        self, levels: set | None, fields: set | None, patches: set | None
    ) -> list[int]:
        """Positions in :attr:`entries` of the entries a selection picks, in
        catalog order (the order a walk of :attr:`entries` meets them).

        The selectors are :func:`_selection`'s sets (``None`` = all). Only
        the catalog's ``(level, field)`` runs are walked; a selected run
        costs the smaller of its length and the ``patches`` set, so a
        selection visits about the entries it returns, on every catalog —
        interleaved runs, gaps and unsorted patch numbers included.
        """
        out: list[int] = []
        for level, field, where in self._runs:
            if (levels is not None and level not in levels) or (
                fields is not None and field not in fields
            ):
                continue
            if patches is None:
                out += where.values()
            elif len(patches) < len(where):
                out += sorted([where[p] for p in patches if p in where])
            else:
                out += [i for p, i in where.items() if p in patches]
        return out

    def read_stream(self, entry: PatchIndexEntry, verify: bool = True):
        """Read one patch's raw compressed stream, crc-checked.

        File mode seeks + reads and returns ``bytes``; zero-copy mode
        returns a ``memoryview`` slice of the underlying buffer (the crc
        is computed against the view — no intermediate copy is made, and
        the codecs decode the view directly).
        """
        blob = self._src.view(entry.offset, entry.length)
        if len(blob) != entry.length:
            raise FormatError(
                f"container truncated in patch stream {entry.describe()}: "
                f"wanted {entry.length} bytes, got {len(blob)}"
            )
        if verify and zlib.crc32(blob) != entry.crc32:
            raise FormatError(f"checksum mismatch in patch stream {entry.describe()}")
        return blob

    # ------------------------------------------------------------------
    # Group sections
    # ------------------------------------------------------------------
    def group_entry(self, gid: int) -> GroupIndexEntry:
        """Look up the group-table row for one group section (its offset
        within the container, section length, and header crc)."""
        try:
            return self._by_gid[gid]
        except KeyError:
            raise FormatError(f"container has no group {gid}") from None

    def group(self, gid: int, verify: bool = True) -> GroupHandle:
        """Open one group section's header (codebook + extents), cached.

        Only the header region is read here — O(codebook + extents) bytes;
        member payloads are fetched lazily through the handle. The header
        crc from the group table is checked on the first *verified* access
        (a handle cached by a ``verify=False`` read does not exempt later
        verified reads from the check); the group's member count must
        match the index's references to it (a "group/index patch-count
        mismatch" is corruption).
        """
        g = self.group_entry(gid)
        handle = self._group_cache.get(gid)
        if handle is None:
            handle = GroupHandle(
                gid, self._src.window(g.offset, g.length),
                g.header_crc32 if verify else None,
            )
            refs = self._group_members.get(gid, 0)
            if refs != handle.n_patches:
                raise FormatError(
                    f"group {gid} records {handle.n_patches} members but the "
                    f"index references it from {refs} entries "
                    "(group/index patch-count mismatch)"
                )
            self._group_cache[gid] = handle
        elif verify and handle.header_crc32 != g.header_crc32:
            raise FormatError(
                f"group {gid}: header checksum mismatch (corrupt shared "
                "codebook or extent table)"
            )
        return handle

    def _entry_shared(
        self, entry: PatchIndexEntry, verify: bool = True, copy: bool = False
    ) -> SharedEntropy | None:
        """The shared-entropy pair for a grouped entry (``None`` otherwise)."""
        if entry.group is None:
            return None
        handle = self.group(entry.group, verify=verify)
        if entry.member is None or entry.member >= handle.n_patches:
            raise FormatError(
                f"index entry {entry.describe()} names member {entry.member} "
                f"of group {entry.group}, which has {handle.n_patches} members"
            )
        try:
            return handle.shared(entry.member, verify=verify, copy=copy)
        except FormatError as exc:
            raise FormatError(f"patch stream {entry.describe()}: {exc}") from exc

    # kept: operator need: decode one patch by (level, field, patch)
    def read_patch(self, level: int, field: str, patch: int, verify: bool = True) -> np.ndarray:
        """Decompress a single patch identified by ``(level, field, patch)``."""
        entry = self.entry(level, field, patch)
        blob = self.read_stream(entry, verify=verify)
        shared = self._entry_shared(entry, verify=verify)
        return _decode_entry_stream(entry.key, entry.codec, blob, shared)

    def select(
        self,
        levels=None,
        fields=None,
        patches=None,
        verify: bool = True,
        pool: WorkerPool | None = None,
        *,
        steps=None,
    ) -> dict[tuple[int, str, int], np.ndarray]:
        """Decompress the subset of patches matching the selectors.

        ``levels`` / ``fields`` / ``patches`` accept a scalar, an iterable,
        or ``None`` (no restriction); results are keyed by the entry's
        ``(level, field, patch)`` triple. ``steps`` is the keyword every
        reader's ``select`` takes; a snapshot has no timesteps and rejects
        anything but ``None``. Stream reads are serial (one
        seekable handle); the selection then decodes as one run, inline
        (``pool=None``) or on ``pool``, or one run per process of a
        process pool.
        In zero-copy (mmap/buffer) mode the streams reach the codecs as
        ``memoryview`` slices — except in process mode, where they are
        copied to ``bytes`` once for pickling. Only the selected members'
        extents of a group are read, so the byte cost stays O(selection).
        """
        check_pool(pool)
        if steps is not None:
            raise CompressionError(
                "steps= selector given but the source is a single-snapshot "
                "container; only RPH2S time-series sources carry timesteps"
            )
        entries = self.entries
        chosen = [entries[i] for i in self.lookup(*_selection(levels, fields, patches))]
        copy = pool is not None and pool.mode == "process"
        blobs = [self.read_stream(e, verify=verify) for e in chosen]
        members = [
            (e.key, e.codec, bytes(blob) if copy else blob,
             self._entry_shared(e, verify=verify, copy=copy))
            for e, blob in zip(chosen, blobs)
        ]
        arrays = _decode_selection(members, pool)
        return {e.key: arr for e, arr in zip(chosen, arrays)}


# kept: names the patch whose stream is corrupt (input from outside the program)
def _decode_entry_stream(key, codec: str, blob, shared: SharedEntropy | None = None) -> np.ndarray:
    """Decode one stream, attributing any codec failure to its patch."""
    try:
        return make_codec(codec).decompress_batch([blob], [shared])[0]
    except (FormatError, CompressionError, DecompressionError) as exc:
        raise type(exc)(f"patch stream {_describe(*key)}: {exc}") from exc


def _decode_run(task) -> list[np.ndarray]:
    """Decode a run of patch streams as one batch — the one decode task of
    every reader (module-level: picklable for process pools).

    ``task`` is ``(members, extents)``. A member is ``(key, codec, blob,
    shared)``: the ``(level, field, patch)`` an error names it by, its
    codec, its stream and its :class:`SharedEntropy` or ``None``.
    ``extents`` is ``None`` for streams already checked (or in memory, with
    no index to check against), else every member's ``(length, crc32,
    payload_crc32)`` as recorded — a crc32 ``None`` when not verifying, or
    not grouped — checked first. Then each codec's members decode through
    one :meth:`Compressor.decompress_batch`; a failing batch is decoded
    again one member at a time, so the corrupt member raises the named
    error a lone ``read_patch`` raises.
    """
    members, extents = task
    for (key, _, blob, shared), (length, crc, payload_crc) in zip(members, extents or ()):
        what = f"patch stream {_describe(*key)}"
        if len(blob) != length:
            raise FormatError(f"{what}: fetched {len(blob)} of {length} extent bytes")
        if crc is not None and zlib.crc32(blob) != crc:
            raise FormatError(f"checksum mismatch in {what}")
        if payload_crc is not None and zlib.crc32(shared.payload) != payload_crc:
            raise FormatError(f"checksum mismatch in group payload of {_describe(*key)}")
    by_codec: dict[str, list[int]] = {}
    for i, member in enumerate(members):
        by_codec.setdefault(member[1], []).append(i)
    out: list = [None] * len(members)
    for codec, run in by_codec.items():
        try:
            _, _, blobs, shareds = zip(*(members[i] for i in run))
            arrays = make_codec(codec).decompress_batch(blobs, shareds)
        except ReproError:
            for i in run:
                _decode_entry_stream(*members[i])
            raise
        for i, arr in zip(run, arrays):
            out[i] = arr
    return out


def _decode_selection(members, pool: WorkerPool | None) -> list[np.ndarray]:
    """Decode a selection (:func:`_decode_run` members, already checked) as
    contiguous runs, one per lane of ``pool`` (one run inline for ``None``):
    one run unless it is a process pool — a lockstep round costs the same
    however many members ride it, so a run is as wide as it can be."""
    if pool is None:
        return _decode_run((members, None))
    n_runs = max(1, min(pool.workers, len(members)))
    cuts = [len(members) * r // n_runs for r in range(n_runs + 1)]
    tasks = [(members[a:b], None) for a, b in zip(cuts, cuts[1:])]
    return [arr for run in pool.map(_decode_run, tasks) for arr in run]
