"""``huffman._tree_lengths``, ``huffman._canonical_codes`` and the packer
``huffman._scatter_pack`` against the tuple-heap tree build, the
per-symbol canonical-code loop and the one-scatter-per-bit packer they
replaced, kept here; one alphabet's lengths and codes are pinned."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.compression import huffman

from tests.strategies import fibonacci


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
    fib = fibonacci(60)
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
