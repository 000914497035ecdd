"""Cross-path oracle for the batched decode.

Every reader decodes a *run* of streams in one pass: all the members'
Huffman streams advance in one lockstep (``huffman.decode_many``), under
``Compressor.decompress_batch``, under the one pool task
``container._decode_run``. The oracle is the path that pass replaced —
one member at a time through the per-symbol scalar loop — and, below the
codecs, a bit-by-bit canonical-Huffman decoder kept in this file. The two
must agree byte for byte: on every patch of the pinned file fixtures, on
a grouped snapshot, on ragged hypothesis runs, and under serial /
thread / process pools. Forged blobs placed *inside* a healthy run are
refused with the same typed error they get alone.
"""

from __future__ import annotations

import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from repro.amr.io import write_sharded_series
from repro.compression import base, huffman
from repro.compression.amr_codec import (
    compress_hierarchy,
    decompress_hierarchy,
    decompress_selection,
)
from repro.compression.container import ContainerReader, _decode_run
from repro.compression.lossless import compress_bytes
from repro.compression.registry import make_codec
from repro.errors import DecompressionError
from repro.insitu.series import SeriesReader
from repro.parallel import WorkerPool

from tests.oracles.common import assert_same
from tests.strategies import FILE_CASES, many_patch_hierarchy, ragged_runs


# ----------------------------------------------------------------------
# The oracles
# ----------------------------------------------------------------------
def reference_decode(blob, codebook: huffman.SharedCodebook | None = None) -> np.ndarray:
    """A ``HUF2`` blob (or, with its group's codebook, a ``HUFS`` payload)
    decoded one bit at a time from the layout in
    ``docs/container_format.md``: canonical codes rebuilt from the lengths,
    each byte-aligned stream walked on its own, symbols dealt round-robin."""
    blob = bytes(blob)
    if codebook is None:
        magic, n, k, alpha = struct.unpack_from("<4sQII", blob, 0)
        assert magic == b"HUF2"
        pos = 20
        alphabet = np.frombuffer(blob, np.int64, alpha, pos).tolist()
        lengths = np.frombuffer(blob, np.uint8, alpha, pos + 8 * alpha).tolist()
        pos += 9 * alpha
    else:
        magic, n, k = struct.unpack_from("<4sQI", blob, 0)
        assert magic == b"HUFS"
        pos = 16
        alphabet, lengths = codebook.alphabet.tolist(), codebook.lengths.tolist()
    if n == 0:
        return np.empty(0, dtype=np.int64)
    symbol_of, code, prev = {}, 0, 0
    for length, row in sorted(zip(lengths, range(len(lengths)))):
        code <<= length - prev
        symbol_of[(length, code)] = alphabet[row]
        code, prev = code + 1, length
    stream_bits = struct.unpack_from(f"<{k}Q", blob, pos)
    pos += 8 * k
    out = np.empty(n, dtype=np.int64)
    for lane, bits in enumerate(stream_bits):
        data = blob[pos : pos + (bits + 7) // 8]
        pos += len(data)
        cursor = 0
        for i in range(lane, n, k):
            length = code = 0
            while (length, code) not in symbol_of:
                code = (code << 1) | (data[cursor >> 3] >> (7 - (cursor & 7)) & 1)
                cursor, length = cursor + 1, length + 1
            out[i] = symbol_of[(length, code)]
        assert cursor == bits
    return out


def scalar_loop_only(monkeypatch) -> None:
    """From here on every decode call takes the per-symbol scalar loop —
    the path the lockstep replaced."""
    monkeypatch.setattr(huffman, "_SCALAR_CUTOFF", 1 << 62)


def one_at_a_time(codec_name: str, blobs, shareds) -> list[np.ndarray]:
    codec = make_codec(codec_name)
    return [codec.decompress_batch([blob], [shared])[0] for blob, shared in zip(blobs, shareds)]


# ----------------------------------------------------------------------
# Huffman stage: decode_many == the bit-by-bit reference, any ragged run
# ----------------------------------------------------------------------


class TestLockstepAgainstTheReference:
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(ragged_runs())
    def test_any_ragged_run(self, run):
        blobs, codebooks, symbols = run
        decoded = huffman.decode_many(blobs, codebooks)
        assert_same(decoded, symbols)
        assert_same(decoded, [reference_decode(b, c) for b, c in zip(blobs, codebooks)])

    def test_empty_run_and_single_members(self, rng):
        assert huffman.decode_many([]) == []
        for n, k in [(1, 1), (1, 64), (4096, 32), (4097, 32), (9000, 1024)]:
            syms = rng.integers(-7, 7, size=n)
            (out,) = huffman.decode_many([huffman.encode_many([syms], k_streams=k)[0]])
            assert np.array_equal(out, syms)

    def test_wide_run_really_takes_the_lockstep(self, rng, monkeypatch):
        """46 blobs of 512 symbols, each far below the cutoff on its own."""
        taken = []
        real = huffman._decode_streams_vector
        monkeypatch.setattr(huffman, "_decode_streams_vector",
                            lambda members: taken.append(len(members)) or real(members))
        members = [rng.integers(-30, 30, size=512) for _ in range(46)]
        blobs = huffman.encode_many(members)
        assert_same(huffman.decode_many(blobs), members)
        assert taken == [46]
        assert_same(huffman.decode_many(blobs[:3]), members[:3])  # 1536 symbols: scalar
        assert taken == [46]

    def test_member_that_would_dominate_decodes_on_its_own(self, rng, monkeypatch):
        """A ``k_streams=1`` member of 100 k symbols among small patches
        must not drag the lockstep to 100 k rounds."""
        widths = []
        real = huffman._decode_streams_vector
        monkeypatch.setattr(huffman, "_decode_streams_vector",
                            lambda members: widths.append(len(members)) or real(members))
        small = [rng.integers(-30, 30, size=512) for _ in range(45)]
        long = rng.integers(-5, 5, size=100_000)
        blobs = huffman.encode_many(small) + [huffman.encode_many([long], k_streams=1)[0]]
        out = huffman.decode_many(blobs)
        assert_same(out, small + [long])
        assert widths == [45]

    def test_group_members_share_one_table(self, rng, monkeypatch):
        """One table build per decode call: a group's members pass one
        codebook once, and a run of many codebooks is still one build."""
        codes = rng.integers(-25, 25, size=(40, 512))
        book = huffman.SharedCodebook.from_symbols(codes)
        built = []
        real = huffman._decode_table
        monkeypatch.setattr(huffman, "_decode_table",
                            lambda books: built.append(len(books)) or real(books))
        out = huffman.decode_many(huffman.encode_batch(codes, book), [book] * 40)
        assert np.array_equal(out, codes)
        assert built == [1]
        own = huffman.encode_many(list(codes[:20]))
        out = huffman.decode_many(own + huffman.encode_batch(codes[20:], book), [None] * 20 + [book] * 20)
        assert np.array_equal(out, codes)
        assert built == [1, 21]


# ----------------------------------------------------------------------
# Forged blobs inside a healthy run
# ----------------------------------------------------------------------
def _forgeries(layout: str):
    """``(name, forged blob, codebook)`` — PR 15's batteries, each over a
    blob that decodes fine before it is doctored."""
    rng = np.random.default_rng(5)
    syms = rng.integers(-50, 50, size=9000)
    if layout == "HUF2":
        book, blob, head = None, huffman.encode_many([syms], k_streams=64)[0], 20
        (alpha,) = struct.unpack_from("<I", blob, 16)
    else:
        book = huffman.SharedCodebook.from_symbols(syms)
        blob, head, alpha = huffman.encode_batch(syms[None, :], book, k_streams=64)[0], 16, 0
    table = head + 9 * alpha

    def patched(offset, fmt, value):
        doctored = bytearray(blob)
        struct.pack_into(fmt, doctored, offset, value)
        return bytes(doctored)

    (bits,) = struct.unpack_from("<Q", blob, table)
    yield "n_symbols + 1", patched(4, "<Q", 9001), book
    yield "n_symbols huge", patched(4, "<Q", 2**64 - 1), book
    yield "stream_bits + 8", patched(table, "<Q", bits + 8), book
    yield "stream_bits wraps", patched(table, "<Q", 2**63 - 7), book
    yield "truncated table", blob[: table + 8 * 64 - 1], book
    yield "truncated stream", blob[:-17], book
    if layout == "HUF2":
        swapped = bytearray(blob)
        swapped[head : head + 16] = blob[head + 8 : head + 16] + blob[head : head + 8]
        yield "swapped alphabet", bytes(swapped), book


@pytest.mark.parametrize("layout", ["HUF2", "HUFS"])
def test_forged_member_inside_a_healthy_run(layout):
    rng = np.random.default_rng(6)
    healthy = huffman.encode_many([rng.integers(-30, 30, size=512) for _ in range(45)])
    for name, forged, book in _forgeries(layout):
        with pytest.raises(DecompressionError) as alone:
            huffman.decode_many([forged], [book])
        run = healthy[:20] + [forged] + healthy[20:]
        tracemalloc.start()
        try:
            with pytest.raises(DecompressionError) as inside:
                huffman.decode_many(run, [None] * 20 + [book] + [None] * 25)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(inside.value) == str(alone.value), name
        assert peak < 64 * sum(map(len, run)) + (1 << 21), (name, peak)


def test_forged_member_through_the_codec_stage():
    """The same, one layer up: ``decode_codes`` over wrapped sections."""
    rng = np.random.default_rng(7)
    members = [rng.integers(-30, 30, size=512) for _ in range(10)]
    sections = [compress_bytes(b, "deflate", 1) for b in huffman.encode_many(members)]
    doctored = bytearray(huffman.encode_many([members[3]])[0])
    struct.pack_into("<Q", doctored, 4, 2**40)
    sections[3] = compress_bytes(bytes(doctored), "deflate", 1)
    with pytest.raises(DecompressionError, match="symbol count"):
        base.decode_codes(sections, ["huffman"] * 10, [None] * 10, [512] * 10)


# ----------------------------------------------------------------------
# Codecs and readers: decompress_batch == one member at a time, scalar loop
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def hierarchy():
    return many_patch_hierarchy()


def _reader_run(reader: ContainerReader):
    entries = list(reader.entries)
    blobs = [reader.read_stream(e) for e in entries]
    shareds = [reader._entry_shared(e) for e in entries]
    return entries, blobs, shareds


class TestDecompressBatchAgainstTheScalarLoop:
    @pytest.mark.parametrize("case", sorted(FILE_CASES))
    def test_pinned_containers(self, hierarchy, case, monkeypatch):
        raw = compress_hierarchy(hierarchy, "sz-lr", 1e-3, **FILE_CASES[case]).tobytes()
        entries, blobs, shareds = _reader_run(ContainerReader(raw))
        assert len(entries) == 2 * (16 + 60)
        batched = make_codec("sz-lr").decompress_batch(blobs, shareds)
        scalar_loop_only(monkeypatch)
        assert_same(batched, one_at_a_time("sz-lr", blobs, shareds))

    def test_pinned_sharded_campaign(self, hierarchy, tmp_path, monkeypatch):
        manifest = write_sharded_series(
            tmp_path / "camp.rphm", [hierarchy] * 3, error_bound=1e-3, n_shards=2, parity=1)
        with SeriesReader.open(manifest) as series:
            runs = [_reader_run(series.open_step(step)) for step in series.steps]
        batched = [make_codec("sz-lr").decompress_batch(b, s) for _, b, s in runs]
        scalar_loop_only(monkeypatch)
        for got, (_, blobs, shareds) in zip(batched, runs):
            assert_same(got, one_at_a_time("sz-lr", blobs, shareds))

    @pytest.mark.parametrize("codec", ["sz-lr", "sz-interp"])
    def test_level_batched_snapshot(self, hierarchy, codec, monkeypatch):
        """Grouped (``HUFS``) members of several groups — and, for the
        members a group could not take, self-contained ones — in one run."""
        raw = compress_hierarchy(hierarchy, codec, 1e-3, batch="level").tobytes()
        entries, blobs, shareds = _reader_run(ContainerReader(raw))
        assert len({e.group for e in entries if e.group is not None}) >= 2
        batched = make_codec(codec).decompress_batch(blobs, shareds)
        scalar_loop_only(monkeypatch)
        assert_same(batched, one_at_a_time(codec, blobs, shareds))

    def test_codec_without_groups_and_deflate_members(self, rng, monkeypatch):
        """Self-contained streams (each ``compress``, the run of one member)
        decode in one run beside a DEFLATE member."""
        codec = make_codec("sz-lr")
        fields = [rng.normal(size=(8, 8, 8)).cumsum(axis=0) for _ in range(12)]
        blobs = [codec.compress(f, 1e-3) for f in fields]
        # Too many distinct codes to Huffman-code: a DEFLATE member.
        blobs.append(codec.compress(rng.normal(size=(44, 44, 44)) * 1e3, 1e-3))
        assert base.StreamReader(blobs[-1]).params["entropy"] == "deflate"
        batched = codec.decompress_batch(blobs)
        scalar_loop_only(monkeypatch)
        assert_same(batched, one_at_a_time("sz-lr", blobs, [None] * 13))

    def test_grouped_row_of_a_codec_without_groups_is_refused(self, rng):
        """An index row that is grouped over a self-contained stream (a
        malformed index): the shared entropy is not silently ignored, and
        the run names the patch."""
        codec = make_codec("sz-lr")
        blob = codec.compress(rng.normal(size=(8, 8, 8)), 1e-3)
        shared = base.SharedEntropy(b"", b"")
        with pytest.raises(DecompressionError, match="self-contained"):
            codec.decompress(blob, shared)
        members = [((0, "a", 0), "sz-lr", blob, None), ((0, "a", 1), "sz-lr", blob, shared)]
        with pytest.raises(DecompressionError, match=r"patch=1\).*self-contained"):
            _decode_run((members, None))

    @pytest.mark.parametrize("pool_workers", [2, 4])
    @pytest.mark.parametrize("mode", ["serial", "thread", "process"])
    @pytest.mark.parametrize("batch", ["patch", "level"])
    def test_every_pool_kind(self, hierarchy, mode, batch, pool_workers):
        """A selection decodes as one run, or as one run per process of a
        process pool; the arrays do not depend on where the cuts fall."""
        container = compress_hierarchy(hierarchy, "sz-lr", 1e-3, batch=batch)
        raw = container.tobytes()
        reference = decompress_selection(raw)
        assert reference.keys() == {e.key for e in ContainerReader(raw).entries}
        for workers in (2, 3):
            with WorkerPool(mode, workers=workers) as pool:
                got = decompress_selection(raw, pool=pool)
            assert_same([got[k] for k in reference], list(reference.values()))
        with WorkerPool(mode, workers=pool_workers) as pool:
            got = container.select(pool=pool)
            assert_same([got[k] for k in reference], list(reference.values()))
            rebuilt = decompress_hierarchy(container, hierarchy, pool=pool)
        for lev_idx, level in enumerate(rebuilt):
            for name in ("a", "b"):
                for p_idx, patch in enumerate(level.patches(name)):
                    want = reference[(lev_idx, name, p_idx)]
                    assert patch.data.tobytes() == want.reshape(patch.data.shape).tobytes()
