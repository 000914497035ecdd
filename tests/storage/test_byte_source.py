"""The one byte source and the one trailer parser under every reader.

:class:`repro.storage.ByteSource` decides where a reader's bytes come from
(file-like, buffer, memory map, backend handle); ``read_index`` parses the
28-byte trailer RPH2, RPH2S and RPXP share. Pinned here: every source kind
serves the same bytes; a read past the end comes back short and sizes no
allocation; ownership on ``close``; each format answers a hostile trailer
with its own typed error inside a time and memory cap; closed readers are
freed without the cyclic collector; and an open through a ranged backend
fetches no range twice.
"""

from __future__ import annotations

import gc
import io
import json
import mmap
import struct
import time
import tracemalloc
import weakref
import zlib

import pytest

from repro.amr.io import write_series, write_sharded_series
from repro.compression.amr_codec import compress_hierarchy
from repro.compression.container import ContainerReader
from repro.errors import CompressionError, FormatError, TruncatedSeriesError
from repro.faults import FaultPlan, FaultyBackend
from repro.insitu import SeriesReader
from repro.insitu.writer import StreamingWriter
from repro.integrity import ParityReader
from repro.serve import QueryService
from repro.storage import (
    ByteSource,
    LocalFileBackend,
    MemoryBackend,
    RangedBackend,
)
from tests.strategies import many_patch_hierarchy, step_hierarchy

DATA = bytes(range(256)) * 40 + b"tail"
SIZE = len(DATA)

KINDS = [
    "file", "bytesio", "bytes", "bytearray", "memoryview", "mmap",
    "memory-backend", "ranged-backend", "faulty-backend", "bare-handle",
]


class _BareHandle:
    """Exactly what a ``StorageBackend.open_read`` handle promises."""

    def __init__(self, raw: bytes):
        self._inner = io.BytesIO(raw)
        self.seek, self.tell = self._inner.seek, self._inner.tell
        self.read, self.close = self._inner.read, self._inner.close


@pytest.fixture(scope="module")
def data_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("bytesource") / "data.bin"
    path.write_bytes(DATA)
    return path


@pytest.fixture(params=KINDS)
def source(request, data_path):
    """A :class:`ByteSource` over ``DATA``, one per kind of source."""
    kind = request.param
    opened = []
    if kind in ("file", "mmap"):
        handle = data_path.open("rb")
        opened.append(handle)
        raw = handle
        if kind == "mmap":
            raw = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
            opened.insert(0, raw)
    elif kind.endswith("-backend"):
        backend = MemoryBackend()
        with backend.open_write("data.bin") as out:
            out.write(DATA)
        if kind == "ranged-backend":
            backend = RangedBackend(backend, readahead=512)
        elif kind == "faulty-backend":
            backend = FaultyBackend(backend, FaultPlan(seed=1))
        raw = backend.open_read("data.bin")
        opened.append(raw)
    else:
        raw = {
            "bytesio": io.BytesIO, "bytes": bytes, "bytearray": bytearray,
            "memoryview": memoryview, "bare-handle": _BareHandle,
        }[kind](DATA)
    src = ByteSource(raw)
    yield src
    src.close()
    for thing in opened:
        thing.close()


class TestEverySourceServesTheSameBytes:
    def test_size_and_mode(self, source, request):
        assert source.size == SIZE
        zero_copy = request.node.callspec.params["source"] in (
            "bytes", "bytearray", "memoryview", "mmap",
        )
        assert source.mapped == zero_copy

    def test_read_view_and_window_agree(self, source):
        for offset, length in [(0, 1), (0, SIZE), (7, 300), (SIZE - 4, 4), (1000, 0)]:
            want = DATA[offset : offset + length]
            assert source.read(offset, length) == want
            assert type(source.read(offset, length)) is bytes
            view = source.view(offset, length)
            assert bytes(view) == want
            assert isinstance(view, memoryview if source.mapped else bytes)
            window = source.window(offset, length)
            assert window.size == length and window.mapped == source.mapped
            assert window.read(0, length) == want

    def test_window_of_a_window(self, source):
        outer = source.window(100, 5000)
        inner = outer.window(50, 200)
        assert inner.size == 200
        assert inner.read(0, 200) == DATA[150:350]
        assert inner.read(190, 50) == DATA[340:350]  # clamped to the window
        assert bytes(inner.view(10, 5)) == DATA[160:165]
        assert outer.window(4990, 100).size == 10  # cut to what outer holds
        inner.close()
        outer.close()
        assert source.read(0, 4) == DATA[:4]  # a window closes nothing

    def test_reads_at_across_and_past_the_end_come_back_short(self, source):
        tracemalloc.start()
        try:
            assert source.read(SIZE - 3, 10) == DATA[-3:]
            assert source.read(SIZE, 10) == b""
            assert source.read(SIZE + 5, 10) == b""
            assert source.read(-1, 5) == b""
            assert source.read(0, 2**62) == DATA
            assert bytes(source.view(SIZE - 3, 2**62)) == DATA[-3:]
            window = source.window(SIZE - 10, 2**62)
            assert window.size == 10 and window.read(0, 2**62) == DATA[-10:]
            assert source.window(SIZE + 1, 10).read(0, 10) == b""
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * SIZE


class TestOwnership:
    def test_rejects_what_is_neither_file_nor_buffer(self):
        with pytest.raises(CompressionError, match="cannot read"):
            ByteSource(12345)

    def test_close_leaves_a_borrowed_file_open(self, data_path):
        with data_path.open("rb") as handle:
            src = ByteSource(handle)
            src.close()
            src.close()  # idempotent
            handle.seek(0)
            assert handle.read(4) == DATA[:4]

    def test_close_closes_what_open_opened(self):
        handles = []

        class Recording(MemoryBackend):
            def open_read(self, name):
                handles.append(super().open_read(name))
                return handles[-1]

        backend = Recording()
        with backend.open_write("obj") as out:
            out.write(DATA)
        src = ByteSource.open("obj", backend=backend)
        assert src.read(5, 5) == DATA[5:10] and not handles[0].closed
        src.close()
        assert handles[0].closed

    def test_open_maps_and_close_releases_the_mapping(self, data_path):
        src = ByteSource.open(data_path, mmap=True)
        assert src.mapped
        pinned = src.view(0, 16)
        assert isinstance(pinned.obj, mmap.mmap)
        with pytest.raises(BufferError):
            src.close()  # a live view slice pins the mapping
        pinned.release()
        src.close()
        assert not src.mapped

    def test_backend_and_mmap_are_exclusive(self, data_path):
        with pytest.raises(CompressionError, match="mutually exclusive"):
            ByteSource.open(data_path, mmap=True, backend=LocalFileBackend())

    def test_failed_parse_under_mmap_names_the_corruption(self, tmp_path):
        """The constructor's FormatError, not a BufferError from closing a
        mapping the half-built reader still pins."""
        junk = tmp_path / "junk.rpxp"
        junk.write_bytes(b"\x81" * 80)
        with pytest.raises(FormatError, match="not an RPXP parity shard"):
            ParityReader.open(junk, mmap=True)


# ---------------------------------------------------------------------------
# One trailer, three formats.
# ---------------------------------------------------------------------------
_TRAILER = struct.Struct("<QQI8s")


def _steps(n: int, cells: int = 8):
    return [step_hierarchy(s, cells) for s in range(n)]


@pytest.fixture(scope="module")
def blobs(tmp_path_factory):
    """One healthy file of each trailer-carrying format."""
    root = tmp_path_factory.mktemp("trailers")
    write_series(root / "run.rph2s", _steps(2), "sz-lr", 1e-3)
    write_sharded_series(root / "camp.rphm", _steps(2), "sz-lr", 1e-3,
                         n_shards=2, parity=1, parallel="serial")
    return {
        "RPH2": compress_hierarchy(_steps(1)[0], "sz-lr", 1e-3).tobytes(),
        "RPH2S": (root / "run.rph2s").read_bytes(),
        "RPXP": (root / "camp.parity000.rpxp").read_bytes(),
    }


#: format -> (open the bytes, the typed error, what its message must say)
FORMATS = {
    "RPH2": (ContainerReader, FormatError, "container"),
    "RPH2S": (SeriesReader, TruncatedSeriesError, "recover"),
    "RPXP": (lambda raw: ParityReader(raw, "camp.parity000.rpxp"),
             FormatError, r"camp\.parity000\.rpxp"),
}


def _retrailed(raw: bytes, *, offset=None, length=None, crc=None, index=None) -> bytes:
    """``raw`` with trailer fields (or the index bytes, crc recomputed)
    replaced."""
    off, ln, c, magic = _TRAILER.unpack(raw[-_TRAILER.size :])
    body = raw[: -_TRAILER.size]
    if index is not None:
        body, ln, c = raw[:off] + index, len(index), zlib.crc32(index)
    return body + _TRAILER.pack(
        off if offset is None else offset, ln if length is None else length,
        c if crc is None else crc, magic,
    )


def _hostile_trailers(raw: bytes):
    size = len(raw)
    for cut in range(1, 65):
        yield f"truncated by {cut}", raw[:-cut]
    yield "footer magic flipped", raw[:-3] + bytes([raw[-3] ^ 0xFF]) + raw[-2:]
    for value in (0, size, size + 1, 1 << 40, (1 << 64) - 1):
        yield f"index_offset={value}", _retrailed(raw, offset=value)
        yield f"index_length={value}", _retrailed(raw, length=value)
    crc = _TRAILER.unpack(raw[-_TRAILER.size :])[2]
    yield "crc flipped", _retrailed(raw, crc=crc ^ 1)
    n = _TRAILER.unpack(raw[-_TRAILER.size :])[1]
    yield "index not UTF-8", _retrailed(raw, index=b"\xff" * n)
    yield "index not JSON", _retrailed(raw, index=b"{" + b"x" * (n - 1))


@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_hostile_trailers_get_the_formats_typed_error(blobs, fmt):
    open_bytes, error, says = FORMATS[fmt]
    raw = blobs[fmt]
    open_bytes(raw).close()  # the healthy file opens
    offset, length, _, _ = _TRAILER.unpack(raw[-_TRAILER.size :])
    assert json.loads(raw[offset : offset + length])["format"] == fmt.lower()
    tracemalloc.start()
    start = time.perf_counter()
    try:
        for label, hostile in _hostile_trailers(raw):
            with pytest.raises(error, match=says) as caught:
                open_bytes(hostile)
            assert type(caught.value) is error, (label, caught.value)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 5.0
    assert peak < 16 * len(raw) + (1 << 20), (peak, len(raw))


# ---------------------------------------------------------------------------
# Readers die when closed.
# ---------------------------------------------------------------------------
@pytest.fixture()
def no_collector():
    gc.collect()
    gc.disable()
    yield
    gc.enable()


def test_closed_grouped_reader_is_freed_without_the_collector(tmp_path, no_collector):
    """A grouped container (runs of many patches) that served a grouped
    select: the group handles it cached must not keep it (and its codebooks
    and decode tables) alive in a reference cycle."""
    path = tmp_path / "snap.rph2"
    path.write_bytes(compress_hierarchy(many_patch_hierarchy(), "sz-lr", 1e-3).tobytes())
    for build in (lambda: ContainerReader.open(path),
                  lambda: ContainerReader(path.read_bytes())):
        opened = build()
        assert any(e.group is not None for e in opened.entries)
        assert opened.select(fields=["a"])
        ref = weakref.ref(opened)
        opened.close()
        del opened
        assert ref() is None


def test_closed_segment_reader_is_freed_without_the_collector(tmp_path, no_collector):
    path = tmp_path / "run.rph2s"
    write_series(path, _steps(2), "sz-lr", 1e-3)
    with SeriesReader.open(path) as series:
        segment = series.open_step(1)
        assert segment.select()
        ref = weakref.ref(segment)
        segment.close()
        del segment
        assert ref() is None
    series_ref = weakref.ref(series)
    del series
    assert series_ref() is None


# ---------------------------------------------------------------------------
# Fewer round trips: one handle serves the sniff and the parse.
# ---------------------------------------------------------------------------
class _LoggedRanged(RangedBackend):
    """A ranged backend at the default readahead that logs its GETs."""

    def __init__(self, inner):
        super().__init__(inner)
        self.gets: list[tuple[str, int, int]] = []

    def _fetch(self, name, offset, length):
        self.gets.append((name, offset, length))
        return super()._fetch(name, offset, length)


@pytest.fixture(scope="module")
def remote():
    """A series and a 2-shard parity campaign in an object store, every
    file larger than the 64 KiB readahead."""
    store = MemoryBackend()
    steps = _steps(16, 16)
    with StreamingWriter.create("run.rph2s", "sz-lr", 1e-3, backend=store) as w:
        for h in steps:
            w.append_step(h)
    write_sharded_series("camp.rphm", steps, "sz-lr", 1e-3, n_shards=2,
                         parity=1, parallel="serial", backend=store)
    assert min(store.size(n) for n in store.list() if n.endswith(".rph2s")) > 1 << 16
    return store


@pytest.mark.parametrize("what, most", [("series", 3), ("campaign", 7), ("harvest", 7)])
def test_an_open_fetches_no_range_twice(remote, what, most):
    backend = _LoggedRanged(remote)
    if what == "series":
        SeriesReader.open("run.rph2s", backend=backend).close()
    elif what == "campaign":
        SeriesReader.open("camp.rphm", backend=backend).close()
    else:
        QueryService("camp.rphm", backend=backend).close()
    assert backend.stats["requests"] == len(backend.gets) <= most, backend.gets
    assert len(set(backend.gets)) == len(backend.gets), backend.gets
