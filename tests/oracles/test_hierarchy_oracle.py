"""Oracle for the in-memory hierarchy: the stream model it replaced.

``CompressedHierarchy`` is a ``ContainerReader`` over the ``RPH2`` bytes it
owns, so an in-memory snapshot is read exactly as a file is. It used to keep
its own data model — ``streams[level][field][patch]``, the group sections and
the ``(level, field, patch) -> (gid, member)`` membership — with its own
``select`` (``_key_filter`` over ``_iter_streams``) and a ``fromreader`` that
turned a container back into that model. Those are kept here verbatim as
:class:`StreamModel`, with the ``pack_container`` that serialized it (its
unused ``stream_codecs=`` knob left out) and the ``decompress_hierarchy``
that read it, and the reader must agree with them exactly. Under hypothesis —
small one- and two-level hierarchies, ``batch`` patch or level,
``exclude_covered``, ``field_bounds``, every selector form (invalid ones
included) and serial or thread decodes, plus one process-pool case:

(a) ``select`` and ``decompress_hierarchy`` give the stream model's arrays
    bit for bit (or refuse a selector with the same error);
(b) ``tobytes()`` is the stream model's ``pack_container`` output byte for
    byte;
(c) ``CompressedHierarchy.frombytes(x).tobytes() == x``.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Sequence

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.amr import AMRHierarchy, AMRLevel, Patch
from repro.compression.amr_codec import (
    CompressedHierarchy,
    average_down,
    compress_hierarchy,
    decompress_hierarchy,
)
from repro.compression.container import (
    ContainerReader,
    GroupHandle,
    _decode_selection,
    _group_header_len,
    _selection,
    build_index_bytes,
    pack_footer,
    pack_header,
)
from repro.errors import CompressionError, FormatError
from repro.parallel import WorkerPool
from repro.storage import ByteSource

from tests.oracles.common import outcome, same_arrays, same_outcome
from tests.strategies import COMPRESS, FIELDS, LEVELS, PATCHES, hierarchies, small_hierarchy


# ----------------------------------------------------------------------
# The stream model, verbatim
# ----------------------------------------------------------------------
def _iter_streams(
    streams: Sequence[Mapping[str, Sequence[bytes]]],
) -> Iterable[tuple[int, str, int, bytes]]:
    """Deterministic stream order: level ascending, field sorted, patch
    ascending — the order the bytes are laid out on disk."""
    for lev_idx, level in enumerate(streams):
        for field in sorted(level):
            for p_idx, blob in enumerate(level[field]):
                yield lev_idx, field, p_idx, blob


def pack_container(
    meta: Mapping[str, Any],
    streams: Sequence[Mapping[str, Sequence[bytes]]],
    groups: Sequence[bytes] | None = None,
    stream_groups: Mapping[tuple[int, str, int], tuple[int, int]] | None = None,
) -> bytes:
    """Serialize per-patch streams plus ``meta`` into an ``RPH2`` container."""
    default_codec = str(meta["codec"])
    out = bytearray(pack_header())
    entries: list[list] = []
    for lev_idx, field, p_idx, blob in _iter_streams(streams):
        codec = default_codec
        row = [lev_idx, field, p_idx, len(out), len(blob), codec, zlib.crc32(blob)]
        if stream_groups is not None:
            membership = stream_groups.get((lev_idx, field, p_idx))
            if membership is not None:
                row += [int(membership[0]), int(membership[1])]
        entries.append(row)
        out += blob
    group_rows: list[list] = []
    for gid, blob in enumerate(groups or ()):
        n_patches, codebook_len = struct.unpack_from("<II", blob, 4)
        header_len = _group_header_len(n_patches, codebook_len)
        group_rows.append(
            [gid, len(out), len(blob), zlib.crc32(bytes(blob[:header_len]))]
        )
        out += blob
    index_bytes = build_index_bytes(meta, len(streams), entries, group_rows)
    index_offset = len(out)
    out += index_bytes
    out += pack_footer(index_offset, len(index_bytes), zlib.crc32(index_bytes))
    return bytes(out)


def _key_filter(levels, fields, patches):
    """The three patch selectors (validated here) as one predicate over
    ``(level, field, patch)`` keys — for in-memory streams, which have no
    catalog to look up."""
    wants = _selection(levels, fields, patches)
    return lambda key: all(want is None or k in want for want, k in zip(wants, key))


def _reject_steps(steps) -> None:
    """A snapshot's answer to the ``steps=`` keyword every ``select`` takes."""
    if steps is not None:
        raise CompressionError(
            "steps= selector given but the source is a single-snapshot "
            "container; only RPH2S time-series sources carry timesteps"
        )


def read_group_blob(reader: ContainerReader, gid: int):
    """One group section's full bytes (header + payloads) — used to
    materialize an in-memory :class:`CompressedHierarchy`."""
    g = reader.group_entry(gid)
    blob = reader._src.read(g.offset, g.length)
    if len(blob) != g.length:
        raise FormatError(f"group {gid}: section truncated")
    return blob


@dataclass
class StreamModel:
    """Container of per-patch compressed streams for one hierarchy."""

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

    def _group_handle(self, gid: int) -> GroupHandle:
        """Parsed handle over one in-memory group section, cached (the
        shared codebook's decode tables amortize across members)."""
        cache = self.__dict__.setdefault("_group_handles", {})
        if gid not in cache:
            if not 0 <= gid < len(self.groups):
                raise FormatError(f"hierarchy has no group {gid}")
            cache[gid] = GroupHandle(gid, ByteSource(self.groups[gid]))
        return cache[gid]

    def select(
        self,
        levels=None,
        fields=None,
        patches=None,
        verify: bool = True,
        pool=None,
        *,
        steps=None,
    ) -> dict[tuple[int, str, int], np.ndarray]:
        """Decompress a subset of in-memory streams."""
        _reject_steps(steps)
        wanted = _key_filter(levels, fields, patches)
        copy = pool is not None and pool.mode == "process"
        members = []
        for lev_idx, field, p_idx, blob in _iter_streams(self.streams):
            if wanted(key := (lev_idx, field, p_idx)):
                gid, member = self.stream_groups.get(key, (None, None))
                shared = None if gid is None else self._group_handle(gid).shared(member, copy=copy)
                members.append((key, self.codec, blob, shared))
        arrays = _decode_selection(members, pool)
        return {member[0]: arr for member, arr in zip(members, arrays)}

    @classmethod
    def fromreader(cls, reader: ContainerReader) -> "StreamModel":
        """Materialize every stream of an open :class:`ContainerReader`."""
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
        groups = [bytes(read_group_blob(reader, g.gid)) for g in group_rows]
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


def oracle_decompress_hierarchy(
    container, template: AMRHierarchy, restore: str = "none", pool=None,
) -> AMRHierarchy:
    """Rebuild a hierarchy from compressed streams."""
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


# ----------------------------------------------------------------------
# The reader against the stream model
# ----------------------------------------------------------------------
@settings(max_examples=100, deadline=None)
@given(hierarchy=hierarchies(), options=COMPRESS,
       selectors=st.tuples(LEVELS, FIELDS, PATCHES),
       parallel=st.sampled_from(["serial", "thread"]))
def test_reader_is_the_stream_model(hierarchy, options, selectors, parallel):
    held = compress_hierarchy(hierarchy, mode="rel", **options)
    raw = held.tobytes()
    model = StreamModel.fromreader(ContainerReader(raw))
    # (b) the bytes are the stream model's serialization, of what the
    # builder was asked for; (c) they round-trip
    assert model.tobytes() == raw
    names = tuple(options["fields"] or hierarchy.field_names)
    assert (model.codec, model.error_bound, model.mode, model.fields) == (
        options["codec"], options["error_bound"], "rel", names)
    assert model.exclude_covered == options["exclude_covered"]
    assert model.field_bounds == (options["field_bounds"] or {})
    assert model.original_bytes == sum(hierarchy.nbytes(name) for name in names)
    assert [len(level) for level in model.streams] == [len(names)] * hierarchy.n_levels
    parsed = CompressedHierarchy.frombytes(bytearray(raw))
    assert parsed.tobytes() == raw
    stored = sum(len(blob) for *_, blob in _iter_streams(model.streams))
    assert parsed.ratio == held.ratio == model.original_bytes / (
        stored + sum(map(len, model.groups)))
    # (a) every selection decodes to the stream model's arrays
    levels, fields, patches = selectors
    with WorkerPool(parallel) as pool:
        want = outcome(lambda: model.select(levels, fields, patches, pool=pool))
        for reader in (held, parsed):
            same_outcome(
                outcome(lambda: reader.select(levels, fields, patches, pool=pool)),
                want,
            )
        for restore in ("none", "average_down"):
            got = decompress_hierarchy(held, hierarchy, restore=restore, pool=pool)
            ref = oracle_decompress_hierarchy(model, hierarchy, restore=restore, pool=pool)
            for lev_got, lev_ref in zip(got, ref):
                for name in hierarchy.field_names:
                    for p, q in zip(lev_got.patches(name), lev_ref.patches(name)):
                        assert p.data.tobytes() == q.data.tobytes()


@pytest.mark.parametrize("batch", ["patch", "level"])
def test_process_pool_selection_is_the_stream_model(batch):
    hierarchy = small_hierarchy(3, {0: True, 2: False}, seed=7)
    held = compress_hierarchy(hierarchy, "sz-lr", 1e-3, batch=batch, exclude_covered=True)
    model = StreamModel.fromreader(ContainerReader(held.tobytes()))
    with WorkerPool("process", workers=2) as pool:
        for selectors in ((None, None, None), (1, "b", [0, 2])):
            same_arrays(held.select(*selectors, pool=pool), model.select(*selectors, pool=pool))
