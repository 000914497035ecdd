"""Tests for the canonical Huffman coder."""

from __future__ import annotations

import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.compression import base, huffman
from repro.compression.lossless import compress_bytes
from repro.errors import CompressionError, DecompressionError


class TestCodeLengths:
    def test_uniform_four_symbols(self):
        lengths = huffman.code_lengths(np.array([1, 1, 1, 1]))
        assert (lengths == 2).all()

    def test_skewed_shorter_for_frequent(self):
        lengths = huffman.code_lengths(np.array([100, 1, 1]))
        assert lengths[0] < lengths[1]

    def test_kraft_inequality(self):
        rng = np.random.default_rng(0)
        freqs = rng.integers(1, 1000, size=50)
        lengths = huffman.code_lengths(freqs)
        assert np.sum(2.0 ** -lengths.astype(float)) <= 1.0 + 1e-12

    def test_single_symbol(self):
        assert huffman.code_lengths(np.array([5]))[0] == 1

    def test_length_cap_respected(self):
        # Fibonacci-like frequencies force deep trees without limiting.
        freqs = np.array([1, 1] + [int(1.6**k) + 1 for k in range(2, 40)])
        lengths = huffman.code_lengths(freqs)
        assert lengths.max() <= huffman.MAX_CODE_LENGTH
        assert np.sum(2.0 ** -lengths.astype(float)) <= 1.0 + 1e-12

    def test_zero_frequency_rejected(self):
        with pytest.raises(CompressionError):
            huffman.code_lengths(np.array([3, 0, 2]))

    def test_oversized_alphabet_rejected(self):
        with pytest.raises(huffman.HuffmanAlphabetError):
            huffman.code_lengths(np.ones((1 << 16) + 1, dtype=np.int64))


class TestRoundtrip:
    def test_skewed_symbols(self, rng):
        syms = (rng.geometric(0.4, size=50_000) - 1).astype(np.int64)
        syms *= rng.choice([-1, 1], size=syms.size)
        assert np.array_equal(huffman.decode_many([huffman.encode_many([syms])[0]])[0], syms)

    def test_empty(self):
        out = huffman.decode_many([huffman.encode_many([np.empty(0, dtype=np.int64)])[0]])[0]
        assert out.size == 0

    def test_single_value_repeated(self):
        syms = np.full(1000, -7, dtype=np.int64)
        assert np.array_equal(huffman.decode_many([huffman.encode_many([syms])[0]])[0], syms)

    def test_two_symbols(self):
        syms = np.array([0, 1, 0, 0, 1, 1, 0], dtype=np.int64)
        assert np.array_equal(huffman.decode_many([huffman.encode_many([syms])[0]])[0], syms)

    def test_large_sparse_values(self):
        syms = np.array([2**40, -(2**41), 2**40, 0], dtype=np.int64)
        assert np.array_equal(huffman.decode_many([huffman.encode_many([syms])[0]])[0], syms)

    def test_compresses_skewed_data(self, rng):
        syms = (rng.geometric(0.6, size=100_000) - 1).astype(np.int64)
        blob = huffman.encode_many([syms])[0]
        assert len(blob) < syms.nbytes / 4

    def test_multidimensional_input_flattened(self, rng):
        syms = rng.integers(-5, 5, size=(10, 10)).astype(np.int64)
        blob = huffman.encode_many([syms])[0]
        assert np.array_equal(huffman.decode_many([blob])[0], syms.ravel())


class TestErrors:
    def test_truncated_blob(self):
        with pytest.raises(Exception):
            huffman.decode_many([b"\x01\x02"])[0]

    def test_truncated_bitstream(self, rng):
        syms = rng.integers(0, 100, size=1000).astype(np.int64)
        blob = huffman.encode_many([syms])[0]
        with pytest.raises(Exception):
            huffman.decode_many([blob[: len(blob) // 2]])[0]


class TestProperties:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(-1000, 1000), min_size=1, max_size=500))
    def test_roundtrip_random(self, values):
        syms = np.asarray(values, dtype=np.int64)
        assert np.array_equal(huffman.decode_many([huffman.encode_many([syms])[0]])[0], syms)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 200), st.integers(1, 8))
    def test_roundtrip_small_alphabet(self, n, k):
        rng = np.random.default_rng(n * 31 + k)
        syms = rng.integers(0, k, size=n).astype(np.int64)
        assert np.array_equal(huffman.decode_many([huffman.encode_many([syms])[0]])[0], syms)


# ----------------------------------------------------------------------
# HUF2: K-way interleaved layout
# ----------------------------------------------------------------------
class TestHUF2Layout:
    """Structural contract of the K-way interleaved blob."""

    def test_encode_emits_huf2_magic(self, rng):
        syms = rng.integers(-5, 5, size=100).astype(np.int64)
        assert huffman.encode_many([syms])[0][:4] == huffman.HUF2_MAGIC

    def test_legacy_or_unknown_magic_is_rejected_typed(self, rng):
        """A blob without the ``HUF2`` magic — such as the headerless
        pre-HUF2 layout, which opened with a u64 symbol count — is a typed
        error naming the magic, never a guess at another layout."""
        syms = rng.integers(-5, 5, size=100).astype(np.int64)
        blob = huffman.encode_many([syms], k_streams=8)[0]
        for head in (struct.pack("<QI", 100, 10), b"HUF1", b"HUF3" + blob[4:8]):
            with pytest.raises(DecompressionError, match="magic"):
                huffman.decode_many([head + blob[len(head):]])[0]

    def test_k_does_not_divide_n(self, rng):
        """Ragged final round: lanes k >= n % K decode one symbol fewer."""
        for n, k in [(7, 3), (100, 7), (4097, 64), (12345, 32)]:
            syms = rng.integers(-9, 9, size=n).astype(np.int64)
            blob = huffman.encode_many([syms], k_streams=k)[0]
            assert np.array_equal(huffman.decode_many([blob])[0], syms), (n, k)

    def test_sparse_negative_alphabet_kway(self):
        syms = np.array(
            [2**40, -(2**41), 0, -1, 2**40, 2**40, -(2**41), 7] * 600,
            dtype=np.int64,
        )
        blob = huffman.encode_many([syms], k_streams=64)[0]
        assert np.array_equal(huffman.decode_many([blob])[0], syms)

    def test_single_symbol_degenerate_kway(self):
        syms = np.full(10_001, -3, dtype=np.int64)
        blob = huffman.encode_many([syms], k_streams=16)[0]
        assert np.array_equal(huffman.decode_many([blob])[0], syms)

    def test_empty_kway(self):
        blob = huffman.encode_many([np.empty(0, dtype=np.int64)], k_streams=8)[0]
        assert huffman.decode_many([blob])[0].size == 0

    def test_vector_and_scalar_decoders_agree(self, rng):
        """The lockstep gather path and per-stream scalar path are one
        semantics: decode the same blob through both, symbol-for-symbol."""
        syms = rng.integers(-100, 100, size=20_000).astype(np.int64)
        blob = huffman.encode_many([syms], k_streams=64)[0]
        member = huffman._parse(blob, None)
        (vec,) = huffman._decode_streams_vector([member])
        scl = huffman._decode_streams_scalar(*member)
        assert np.array_equal(vec, syms)
        assert np.array_equal(scl, syms)

    def test_lone_reads_of_a_group_convert_its_tables_once(self):
        """The scalar loop indexes lists; a shared codebook keeps them, so
        repeated one-patch reads of a group do not each pay the ``tolist``.
        (A call too small for lists to pay indexes the arrays, uncached.)"""
        book = huffman.SharedCodebook.from_symbols(np.arange(64).repeat(np.arange(1, 65)))
        assert isinstance(book.scalar_tables(1)[0], np.ndarray)
        tsym, tlen = book.scalar_tables(4096)
        assert isinstance(tsym, list) and isinstance(tlen, list)
        assert book.scalar_tables(4096)[0] is tsym

    def test_auto_widens_with_input(self):
        # Below the 8-stream floor, K clamps to the symbol count.
        assert huffman.resolve_k_streams("auto", 3) == 3
        assert huffman.resolve_k_streams("auto", 10) == huffman._AUTO_MIN_STREAMS
        small = huffman.resolve_k_streams("auto", 5_000)
        large = huffman.resolve_k_streams("auto", 64**3)
        assert small < large <= huffman._AUTO_MAX_STREAMS
        # Explicit K is clamped to the symbol count so no stream is empty.
        assert huffman.resolve_k_streams(64, 10) == 10

    def test_k_streams_validation(self):
        for bad in (0, -1, huffman.MAX_STREAMS + 1, 2.5, "wide", True, None):
            with pytest.raises(CompressionError):
                huffman.resolve_k_streams(bad, 100)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(-(2**50), 2**50), min_size=1, max_size=300),
        st.integers(1, 40),
    )
    def test_roundtrip_any_alphabet_any_k(self, values, k):
        syms = np.asarray(values, dtype=np.int64)
        blob = huffman.encode_many([syms], k_streams=k)[0]
        assert np.array_equal(huffman.decode_many([blob])[0], syms)


# ----------------------------------------------------------------------
# HUF2 and HUFS: adversarial blobs
# ----------------------------------------------------------------------
class _Layout:
    """One stream layout under attack: how to encode and decode it, and
    where its sections sit (both keep ``n_symbols`` at byte 4 and
    ``k_streams`` at byte 12)."""

    def __init__(self, name):
        self.name = name

    def __repr__(self):
        return self.name

    def blob(self, n=9000, k=64, lo=-50, hi=50, seed=0):
        """``(blob, symbols, decode)`` of a fresh seeded symbol array."""
        rng = np.random.default_rng(seed)
        syms = rng.integers(lo, hi, size=n).astype(np.int64)
        if self.name == "HUF2":
            blob = huffman.encode_many([syms], k_streams=k)[0]
            return blob, syms, lambda b: huffman.decode_many([b])[0]
        book = huffman.SharedCodebook.from_symbols(syms)
        blob = huffman.encode_batch(syms[None, :], book, k_streams=k)[0]
        return blob, syms, lambda b: huffman.decode_many([b], [book])[0]

    def sections(self, blob):
        """Byte offsets of (alphabet, lengths, stream_bits, payload)."""
        if self.name == "HUF2":
            _, n, k, alpha = huffman._HUF2_HEAD.unpack_from(blob, 0)
            head = huffman._HUF2_HEAD.size
        else:
            _, n, k = huffman._HUFS_HEAD.unpack_from(blob, 0)
            head, alpha = huffman._HUFS_HEAD.size, 0
        return {
            "alphabet": (head, head + 8 * alpha),
            "lengths": (head + 8 * alpha, head + 9 * alpha),
            "stream_bits": (head + 9 * alpha, head + 9 * alpha + 8 * k),
            "payload": (head + 9 * alpha + 8 * k, len(blob)),
            "n": n,
            "k": k,
            "alpha": alpha,
        }

    def decode_section(self, blob, book_syms):
        """Decode ``blob`` the way a codec stream does: wrapped by the
        lossless backend, through :func:`base.decode_codes`."""
        wrapped = compress_bytes(blob, "deflate", 1)
        if self.name == "HUF2":
            return base.decode_codes([wrapped], ["huffman"], [None], [book_syms.size])[0]
        book = huffman.SharedCodebook.from_symbols(book_syms)
        shared = base.SharedEntropy(book.tobytes(), wrapped)
        return base.decode_codes([None], [base.GROUPED_STAGE], [shared], [book_syms.size])[0]


_HUF2 = _Layout("HUF2")
_LAYOUTS = [_HUF2, _Layout("HUFS")]


@pytest.mark.parametrize("layout", _LAYOUTS, ids=repr)
class TestAdversarialStreams:
    """Corrupt K-way blobs of either layout must raise DecompressionError,
    never return garbage, read out of bounds or size an allocation by a
    header field."""

    def test_truncated_header(self, layout):
        blob, _, decode = layout.blob()
        lo, hi = layout.sections(blob)["stream_bits"]
        for cut in (10, lo - 1, hi - 1):
            with pytest.raises(DecompressionError):
                decode(blob[:cut])

    def test_truncated_stream(self, layout):
        """Payload shorter than the recorded per-stream bit lengths."""
        blob, _, decode = layout.blob()
        with pytest.raises(DecompressionError):
            decode(blob[:-17])

    @pytest.mark.parametrize("k", [4, 64])
    def test_bad_per_stream_bit_length(self, layout, k):
        """Tampered stream_bits must fail on both decode paths (k=4 routes
        to the scalar path, k=64 to the vectorized lockstep path) — up to
        values whose byte count wraps int64."""
        blob, _, decode = layout.blob(k=k)
        lo, _ = layout.sections(blob)["stream_bits"]
        (bits,) = struct.unpack_from("<Q", blob, lo)
        for forged in (bits - 8, bits + 8, 2**62, 2**63 - 7, 2**63 - 1, 2**63, 2**64 - 1):
            doctored = bytearray(blob)
            struct.pack_into("<Q", doctored, lo, forged)
            with pytest.raises(DecompressionError):
                decode(bytes(doctored))

    def test_bad_stream_count(self, layout):
        blob, _, decode = layout.blob()
        doctored = bytearray(blob)
        for k in (0, huffman.MAX_STREAMS + 1):
            struct.pack_into("<I", doctored, 12, k)
            with pytest.raises(DecompressionError):
                decode(bytes(doctored))

    def test_truncation_sweep_never_returns_garbage(self, layout):
        """Any prefix of a valid blob either raises or (never) round-trips."""
        blob, syms, decode = layout.blob(n=500, k=8)
        for cut in range(0, len(blob) - 1, 37):
            try:
                out = decode(blob[:cut])
            except Exception:
                continue
            assert not np.array_equal(out, syms) or cut >= len(blob)

    @pytest.mark.parametrize("one_symbol", [False, True], ids=["multi", "one-symbol"])
    @pytest.mark.parametrize("k", [4, 64])
    def test_forged_symbol_count(self, layout, k, one_symbol):
        """A doctored ``n_symbols`` is a typed error from the decoder and
        from the codec-stream entry above it, and allocates nothing sized
        by the forged count: every symbol costs >= 1 bit, so a count above
        the streams' total bits is refused by the parser outright."""
        blob, syms, decode = layout.blob(k=k, hi=-49 if one_symbol else 50)
        sec = layout.sections(blob)
        lo, hi = sec["stream_bits"]
        total_bits = sum(struct.unpack_from(f"<{sec['k']}Q", blob, lo))
        assert np.array_equal(decode(blob), syms)
        for forged in (sec["n"] + 1, 10 * sec["n"], 2**40, 2**64 - 1):
            doctored = bytearray(blob)
            struct.pack_into("<Q", doctored, 4, forged)
            doctored = bytes(doctored)
            tracemalloc.start()
            try:
                with pytest.raises(DecompressionError):
                    decode(doctored)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # Refused by the parser: the K-entry table and the error only.
            # Otherwise a real decode of n + 1 symbols ran and failed.
            limit = 1 << 14 if forged > total_bits else 64 * len(blob) + (1 << 21)
            assert peak < limit, (forged, peak)
            with pytest.raises(DecompressionError):
                layout.decode_section(doctored, syms)


@pytest.mark.parametrize("layout", _LAYOUTS, ids=repr)
def test_one_symbol_alphabet_still_validates_its_streams(layout):
    """A one-symbol alphabet walks no table, but its streams are written
    with a 1-bit code: ``stream_bits`` forged 10 -> 16 (one pad byte
    appended so the bytes are all there) used to decode silently."""
    blob, syms, decode = layout.blob(n=10, k=1, lo=7, hi=8)
    lo, hi = layout.sections(blob)["stream_bits"]
    assert struct.unpack_from("<Q", blob, lo) == (10,)
    assert np.array_equal(decode(blob), syms)
    doctored = bytearray(blob) + b"\x00"
    struct.pack_into("<Q", doctored, lo, 16)
    with pytest.raises(DecompressionError, match="one-symbol"):
        decode(bytes(doctored))
    k4, _, decode4 = layout.blob(n=10, k=4, lo=7, hi=8)  # lanes of 3, 3, 2, 2 symbols
    lo, _ = layout.sections(k4)["stream_bits"]
    assert struct.unpack_from("<4Q", k4, lo) == (3, 3, 2, 2)
    struct.pack_into("<Q", doctored := bytearray(k4), lo + 16, 3)
    with pytest.raises(DecompressionError, match="one-symbol"):
        decode4(bytes(doctored))


class TestHUF2Adversarial:
    """Corruption of the sections only the self-contained layout has."""

    def test_non_full_code_table(self):
        """A lengths section whose canonical codes do not tile the window
        space exactly is rejected before any symbol is emitted."""
        blob = _HUF2.blob()[0]
        sec = _HUF2.sections(blob)
        doctored = bytearray(blob)
        lo, hi = sec["lengths"]
        doctored[lo:hi] = bytes([huffman.MAX_CODE_LENGTH]) * (hi - lo)
        with pytest.raises(DecompressionError):
            huffman.decode_many([bytes(doctored)])[0]

    def test_zero_code_length_rejected(self):
        blob = _HUF2.blob()[0]
        lo, _ = _HUF2.sections(blob)["lengths"]
        doctored = bytearray(blob)
        doctored[lo] = 0
        with pytest.raises(DecompressionError):
            huffman.decode_many([bytes(doctored)])[0]

    def test_bad_alphabet_size(self):
        blob = _HUF2.blob()[0]
        doctored = bytearray(blob)
        struct.pack_into("<I", doctored, 16, (1 << huffman.MAX_CODE_LENGTH) + 1)
        with pytest.raises(DecompressionError):
            huffman.decode_many([bytes(doctored)])[0]

    def test_unsorted_alphabet_rejected(self):
        """The encoder writes alphabets sorted; a swapped pair would decode
        to other symbols without any stream-length mismatch."""
        blob = _HUF2.blob()[0]
        lo, _ = _HUF2.sections(blob)["alphabet"]
        doctored = bytearray(blob)
        doctored[lo : lo + 16] = blob[lo + 8 : lo + 16] + blob[lo : lo + 8]
        with pytest.raises(DecompressionError, match="strictly increasing"):
            huffman.decode_many([bytes(doctored)])[0]


class TestExtremeAlphabets:
    def test_int64_min_vector_path(self):
        """np.abs(INT64_MIN) overflows negative; the fused-gather guard
        must compare min/max directly or extreme symbols decode wrong."""
        lo = np.iinfo(np.int64).min
        syms = np.array([lo, 0, 1, 2] * 2000, dtype=np.int64)
        blob = huffman.encode_many([syms], k_streams=64)[0]
        assert np.array_equal(huffman.decode_many([blob])[0], syms)

    def test_int64_extremes_scalar_path(self):
        hi = np.iinfo(np.int64).max
        lo = np.iinfo(np.int64).min
        syms = np.array([lo, hi, 0, -1] * 50, dtype=np.int64)
        blob = huffman.encode_many([syms], k_streams=4)[0]
        assert np.array_equal(huffman.decode_many([blob])[0], syms)


# ----------------------------------------------------------------------
# Reference implementations: what the vectorized/int-keyed builders replaced
# ----------------------------------------------------------------------
def _reference_heap_lengths(freqs: np.ndarray) -> np.ndarray:
    """The historical tuple-heap tree build: (freq, tiebreak, node_id)."""
    import heapq

    n = freqs.size
    heap = [(int(freqs[i]), i, i) for i in range(n)]
    heapq.heapify(heap)
    parent = np.full(2 * n - 1, -1, dtype=np.int64)
    next_id = tiebreak = n
    while len(heap) > 1:
        fa, _, a = heapq.heappop(heap)
        fb, _, b = heapq.heappop(heap)
        parent[a] = parent[b] = next_id
        heapq.heappush(heap, (fa + fb, tiebreak, next_id))
        next_id += 1
        tiebreak += 1
    depths = np.zeros(2 * n - 1, dtype=np.uint32)
    for node in range(next_id - 2, -1, -1):
        depths[node] = depths[parent[node]] + 1
    return depths[:n].astype(np.uint8)


def _reference_canonical_codes(lengths: np.ndarray) -> np.ndarray:
    """The historical per-symbol loop in (length, symbol) order."""
    order = np.lexsort((np.arange(lengths.size), lengths))
    codes = np.zeros(lengths.size, dtype=np.uint32)
    code = prev_len = 0
    for sym in order:
        length = int(lengths[sym])
        code <<= length - prev_len
        codes[sym] = code
        code += 1
        prev_len = length
    return codes


def _reference_bit_scatter(sym_codes, sym_lens, offsets, total_bytes) -> np.ndarray:
    """The packer ``_scatter_pack`` once ran below 65 536 symbols, spelled
    out: one boolean-masked scatter per bit position."""
    bits = np.zeros(8 * total_bytes, dtype=np.uint8)
    for b in range(int(sym_lens.max())):
        active = sym_lens > b
        shift = (sym_lens[active] - 1 - b).astype(np.uint32)
        bits[offsets[active] + b] = (sym_codes[active] >> shift) & 1
    return np.packbits(bits)


def _frequency_cases():
    rng = np.random.default_rng(99)
    for _ in range(300):
        n = int(rng.integers(2, 400))
        kind = int(rng.integers(0, 4))
        if kind == 0:
            yield rng.integers(1, 5, n)  # many ties
        elif kind == 1:
            yield rng.integers(1, 10**6, n)
        elif kind == 2:
            yield np.maximum(1, (rng.standard_exponential(n) * 1000).astype(np.int64))
        else:
            yield np.ones(n, dtype=np.int64)
    fib = [1, 1]
    while len(fib) < 60:
        fib.append(fib[-1] + fib[-2])
    yield np.array(fib, dtype=np.int64)  # depth 59: forces the length cap
    yield np.array(fib[:30][::-1], dtype=np.int64)


class TestAgainstReferences:
    def test_tree_build_and_canonical_codes_match_the_historical_ones(self):
        for freqs in _frequency_cases():
            freqs = np.asarray(freqs, dtype=np.int64)
            lengths = huffman._tree_lengths(freqs)
            assert lengths.dtype == np.uint8
            assert np.array_equal(lengths, _reference_heap_lengths(freqs))
            capped = huffman.code_lengths(freqs)
            assert capped.max() <= huffman.MAX_CODE_LENGTH
            codes = huffman._canonical_codes(capped)
            assert codes.dtype == np.uint32
            assert np.array_equal(codes, _reference_canonical_codes(capped))

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(1, 10**9), min_size=2, max_size=300))
    def test_tree_build_property(self, freqs):
        f = np.asarray(freqs, dtype=np.int64)
        assert np.array_equal(huffman._tree_lengths(f), _reference_heap_lengths(f))

    def test_pinned_lengths_and_codes(self):
        """The parent commit's output for one fixed alphabet, literally."""
        freqs = np.array([50, 1, 1, 2, 3, 5, 8, 13, 21, 34, 4, 4, 4], dtype=np.int64)
        lengths = huffman.code_lengths(freqs)
        assert lengths.tolist() == [2, 7, 7, 6, 5, 5, 4, 3, 3, 2, 5, 5, 5]
        assert huffman._canonical_codes(lengths).tolist() == [
            0, 126, 127, 62, 26, 27, 12, 4, 5, 1, 28, 29, 30]

    @pytest.mark.parametrize("n", [1, 7, 8, 511, 512, 4096, 65_535, 65_536, 70_000])
    def test_packer_matches_the_bit_scatter(self, n):
        rng = np.random.default_rng(n)
        lens = rng.integers(1, huffman.MAX_CODE_LENGTH + 1, n).astype(np.int64)
        codes = (rng.integers(0, 1 << 16, n) & ((1 << lens) - 1)).astype(np.uint32)
        offsets = np.concatenate(([0], np.cumsum(lens)[:-1]))
        total = int((lens.sum() + 7) // 8)
        packed = huffman._scatter_pack(codes, lens, offsets, total)
        assert packed.dtype == np.uint8
        assert np.array_equal(packed, _reference_bit_scatter(codes, lens, offsets, total))

    def test_packer_at_the_edges_of_its_24_bit_window(self):
        """The two extremes the byte-accumulation argument rests on: the
        widest reach from a byte's start (a 16-bit code at bit 7 ends at
        bit 23), and the most windows summed into one byte (eight 1-bit
        codes), over enough bytes that a float32 sum would drift."""
        n = 5000
        lens = np.full(n, 16, dtype=np.int64)
        codes = np.random.default_rng(1).integers(0, 1 << 16, n).astype(np.uint32)
        codes[:3] = 0xFFFF, 0, 0x8001
        offsets = 7 + 24 * np.arange(n)
        packed = huffman._scatter_pack(codes, lens, offsets, 3 * n)
        assert np.array_equal(packed, _reference_bit_scatter(codes, lens, offsets, 3 * n))

        n_bytes = (1 << 16) + 3
        lens = np.ones(8 * n_bytes, dtype=np.int64)
        codes = np.ones(8 * n_bytes, dtype=np.uint32)
        codes[8 * 1000 : 8 * 1001] = 1, 0, 1, 1, 0, 0, 1, 0
        offsets = np.arange(8 * n_bytes)
        packed = huffman._scatter_pack(codes, lens, offsets, n_bytes)
        assert np.array_equal(packed, _reference_bit_scatter(codes, lens, offsets, n_bytes))
        assert packed[1000] == 0b10110010 and (np.delete(packed, 1000) == 0xFF).all()


class TestEncodeMany:
    def test_ragged_members_each_match_encode(self, rng):
        members = [
            rng.integers(-40, 40, 512), np.zeros(64, dtype=np.int64),
            np.empty(0, dtype=np.int64), rng.integers(-3, 3, 1000),
            rng.integers(-(2**40), 2**40, 512), rng.integers(-40, 40, 512),
        ]
        for k in ("auto", 1, 5, 64):
            blobs = huffman.encode_many(members, k)
            assert blobs == [huffman.encode_many([m], k)[0] for m in members]
            for blob, member in zip(blobs, members):
                assert np.array_equal(huffman.decode_many([blob])[0], member)

    def test_oversized_alphabet_yields_none_for_that_member_only(self, rng):
        members = [rng.integers(-9, 9, 300), np.arange(70000), rng.integers(-9, 9, 300)]
        blobs = huffman.encode_many(members)
        assert blobs[1] is None
        assert blobs[0] == huffman.encode_many([members[0]])[0]
        assert blobs[2] == huffman.encode_many([members[2]])[0]
        assert huffman.encode_many([members[1]])[0] is None
