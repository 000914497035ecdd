"""Canonical Huffman coding for quantization codes, from scratch.

SZ's entropy stage is a "customized Huffman coding" over the quantization
codes followed by a general lossless pass (paper §2.1). This module
implements that stage:

* code lengths from the two-queue Huffman build (leaves sorted once,
  merges queued in creation order — no heap),
* length limiting to :data:`MAX_CODE_LENGTH` bits (frequency-halving
  heuristic) so decoding can use a single flat lookup table,
* canonical code assignment (sorted by length, then symbol; one pass for
  every codebook of a run) so only the lengths need to be stored,
* **K-way interleaved streams** (``HUF2`` layout): the symbol array is
  split round-robin into K independent bitstreams sharing one canonical
  codebook, so the decoder can run all K in lockstep — each vectorized
  round gathers K windows against the flat table and emits K symbols,
  replacing the per-symbol Python loop,
* vectorized bit packing on encode (byte accumulation, one histogram):
  one pass for all K streams and, through :func:`encode_many`, for a
  whole run of ragged members, each keeping its own codebook, K and
  byte-aligned streams,
* **shared codebooks** (``HUFB`` + ``HUFS`` layouts): many small symbol
  arrays — the per-patch quantization codes of one run of patches — can
  be coded against one :class:`SharedCodebook`
  built from their pooled frequencies. The codebook (alphabet + lengths)
  is serialized once per group; each member's payload carries only its
  bitstreams, and :func:`encode_batch` packs every member of a group, of
  one size or ragged, in a single vectorized pass. This is what makes
  batched compression cheap: the pure-Python tree build and the codebook
  bytes are paid per *group*, not per patch.

The alphabet is the set of distinct int64 code values; streams record the
alphabet explicitly, so arbitrary (sparse, negative) code values work.

Stream interleave (``k_streams``)
---------------------------------
Entropy decode is inherently bit-serial *within* a stream: symbol ``i+1``
starts where symbol ``i`` ended. Interleaving breaks the dependency chain
into K independent chains that advance together, one NumPy gather round
per symbol rank. NumPy's fixed per-op dispatch cost (~0.5 µs) means a
round over K lanes costs nearly the same for K=8 as for K=512, so wide
interleaves are what buy throughput: on a 64³ grid the lockstep decoder
is >=10x faster than the scalar loop at K≈512 but *slower* than it at
K=8 (measured in ``benchmarks/bench_entropy.py``). ``k_streams="auto"``
therefore scales K with the input so each lockstep round stays wide
(~:data:`_AUTO_TARGET_ROUNDS` rounds total), clamped to
[:data:`_AUTO_MIN_STREAMS`, :data:`_AUTO_MAX_STREAMS`].

The same arithmetic is why a *run* of blobs decodes in one lockstep
(:func:`decode_many`): the paper's data are many small patches (8^3-32^3)
whose blobs are each too small and too narrow to vectorize, but the
streams of all the blobs a reader decodes together are lanes of one wide
round. Only small or narrow *calls* (a lone small patch) fall back to the
scalar loop, which wins there.

A run also builds **one decode table** (:func:`_decode_table`): every
distinct codebook of the call gets its ``2**max_len`` entries in one
stacked array, built by one stable argsort over ``(book, length)`` and one
:func:`numpy.repeat` — not a sort and a repeat per codebook, which on a
run of ~60 small self-contained patches cost more than the table's lookups.
The scalar loop's tables (:meth:`SharedCodebook.tables`) are its one-book
case.

Blob layouts
------------
:func:`encode_many` emits, and :func:`decode_many` reads, the ``HUF2``
layout; any other magic is rejected with a typed error. ``HUFS`` payloads
are *not* self-contained on purpose — :func:`decode_many` decodes them
only against their group's ``HUFB`` codebook (see
the grouped-stream layout in ``docs/container_format.md``).
"""

from __future__ import annotations

import struct

import numpy as np

from repro.errors import CompressionError, DecompressionError

__all__ = [
    "MAX_CODE_LENGTH",
    "MAX_STREAMS",
    "HUF2_MAGIC",
    "HUFB_MAGIC",
    "HUFS_MAGIC",
    "HuffmanAlphabetError",
    "SharedCodebook",
    "encode_many",
    "decode_many",
    "blob_bound",
    "encode_batch",
    "code_lengths",
    "resolve_k_streams",
]

#: Longest permitted code, bounding the decode table at 2**16 entries.
MAX_CODE_LENGTH = 16

#: Most interleaved streams a HUF2/HUFS blob may carry.
MAX_STREAMS = 4096

#: Magic prefix of the K-way interleaved blob layout.
HUF2_MAGIC = b"HUF2"

#: Magic prefix of a serialized shared codebook (alphabet + lengths only).
HUFB_MAGIC = b"HUFB"

#: Magic prefix of a shared-codebook payload (bitstreams only; decodes
#: only against its group's codebook).
HUFS_MAGIC = b"HUFS"

#: ``HUF2`` fixed header: magic, n_symbols (u64), k_streams (u32),
#: alphabet_size (u32).
_HUF2_HEAD = struct.Struct("<4sQII")

#: ``HUFB`` fixed header: magic, alphabet_size (u32).
_HUFB_HEAD = struct.Struct("<4sI")

#: ``HUFS`` fixed header: magic, n_symbols (u64), k_streams (u32).
_HUFS_HEAD = struct.Struct("<4sQI")

#: ``k_streams="auto"`` sizes K so the lockstep decode runs about this
#: many rounds — wide rounds amortize NumPy's per-op dispatch cost.
_AUTO_TARGET_ROUNDS = 256
_AUTO_MIN_STREAMS = 8
_AUTO_MAX_STREAMS = 1024

#: Below this symbol count in a decode *call* the scalar loop beats the
#: vectorized decoder's setup cost; fewer streams than ``_VECTOR_MIN_STREAMS``
#: make the lockstep rounds too thin to amortize NumPy dispatch (module notes).
_SCALAR_CUTOFF = 4096
_VECTOR_MIN_STREAMS = 32


class HuffmanAlphabetError(CompressionError):
    """Raised when the alphabet cannot be Huffman-coded (too many symbols)."""


def _alphabet_inverse(syms: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(alphabet, inverse, freqs)`` of a flat int64 symbol array.

    Quantization codes cluster in a narrow value band, so when the value
    span is comparable to the symbol count a dense :func:`numpy.bincount`
    histogram beats sort-based :func:`numpy.unique` by several times —
    three linear passes instead of an O(n log n) sort. Wide/sparse spans
    fall back to ``unique``.
    """
    lo = int(syms.min())
    hi = int(syms.max())
    span = hi - lo + 1
    if span <= max(4 * syms.size, 1 << 16):
        shifted = syms - lo
        counts = np.bincount(shifted, minlength=span)
        present = counts > 0
        alphabet = np.flatnonzero(present) + lo
        remap = np.cumsum(present, dtype=np.int64) - 1
        return alphabet, remap[shifted], counts[present]
    alphabet, inverse = np.unique(syms, return_inverse=True)
    return alphabet, inverse, np.bincount(inverse)


def resolve_k_streams(k_streams: int | str, n_symbols: int) -> int:
    """Concrete stream count for ``n_symbols`` symbols.

    ``"auto"`` widens the interleave with the input (see module notes);
    an explicit int is validated against [1, :data:`MAX_STREAMS`] and
    clamped to the symbol count so no stream is empty.
    """
    if k_streams == "auto":
        k = _AUTO_MIN_STREAMS
        while k < _AUTO_MAX_STREAMS and k * _AUTO_TARGET_ROUNDS < n_symbols:
            k *= 2
    else:
        if (
            isinstance(k_streams, bool)
            or not isinstance(k_streams, (int, np.integer))
            or not 1 <= int(k_streams) <= MAX_STREAMS
        ):
            raise CompressionError(
                f"k_streams must be 'auto' or an int in [1, {MAX_STREAMS}], "
                f"got {k_streams!r}"
            )
        k = int(k_streams)
    return max(1, min(k, n_symbols))


def code_lengths(freqs: np.ndarray) -> np.ndarray:
    """Huffman code lengths for positive frequencies, capped at
    :data:`MAX_CODE_LENGTH` via frequency halving.

    Parameters
    ----------
    freqs:
        Positive occurrence counts, one per alphabet symbol.

    Returns
    -------
    numpy.ndarray
        uint8 lengths, same order as ``freqs``.
    """
    f = np.asarray(freqs, dtype=np.int64)
    if f.ndim != 1 or f.size == 0:
        raise CompressionError("freqs must be a non-empty 1-D array")
    if (f <= 0).any():
        raise CompressionError("all frequencies must be positive")
    if f.size > (1 << MAX_CODE_LENGTH):
        raise HuffmanAlphabetError(
            f"alphabet of {f.size} symbols exceeds {1 << MAX_CODE_LENGTH}"
        )
    if f.size == 1:
        return np.array([1], dtype=np.uint8)
    work = f.copy()
    while True:
        lengths = _tree_lengths(work)
        if lengths.max() <= MAX_CODE_LENGTH:
            return lengths
        # Flatten the distribution; guaranteed to terminate because equal
        # frequencies give a balanced tree of depth ceil(log2(n)) <= 16.
        work = (work + 1) // 2


def _tree_lengths(freqs: np.ndarray) -> np.ndarray:
    """Unrestricted Huffman code lengths of ``n >= 2`` symbols, by the
    two-queue build: leaves wait in stable ``(freq, id)`` order and merges
    join a second queue in creation order, which their sums never leave.
    Taking the smaller head, ties to the leaf, is exactly the pop order of
    a ``(freq, id)`` heap where merges take ids ``n, n + 1, ...``. Plain
    lists and both pops written out: a call or an ndarray index per pop
    costs more than the pop.
    """
    n = freqs.size
    order = np.argsort(freqs, kind="stable")
    leaf_f = freqs[order].tolist() + [float("inf")]
    leaves = order.tolist()
    merged = [float("inf")] * n  # merge m's sum; its id is n + m
    up = [0] * (2 * n - 1)  # by id: the merge a node went into
    i = j = 0
    for m in range(n - 1):
        if leaf_f[i] <= merged[j]:
            a, fa, i = leaves[i], leaf_f[i], i + 1
        else:
            a, fa, j = n + j, merged[j], j + 1
        if leaf_f[i] <= merged[j]:
            b, fb, i = leaves[i], leaf_f[i], i + 1
        else:
            b, fb, j = n + j, merged[j], j + 1
        up[a] = up[b] = m
        merged[m] = fa + fb
    depth = [0] * (n - 1)  # of the merges; the last one is the root
    for m in range(n - 3, -1, -1):
        depth[m] = depth[up[n + m]] + 1
    return (np.array(depth)[up[:n]] + 1).astype(np.uint8)


def _canonical_codes(lengths: np.ndarray, sizes=None) -> np.ndarray:
    """Canonical code values (uint32) of one codebook's lengths or, with
    ``sizes``, of a run's codebooks laid end to end (``sizes[i]`` symbols
    each) in one pass.

    Codes are assigned in (length, symbol-index) order, the standard
    canonical construction, so lengths alone reproduce the codebook: a
    symbol's code is the first code of its length plus its rank among the
    symbols of that length.
    """
    lens = lengths.astype(np.int64)
    sizes = [lens.size] if sizes is None else sizes
    width = int(lens.max()) + 1
    key = lens + width * np.repeat(np.arange(len(sizes)), sizes)
    counts = np.bincount(key, minlength=width * len(sizes))
    per_length = counts.reshape(-1, width)
    first = np.zeros_like(per_length)  # per (member, length): its first code
    for length in range(1, width):
        first[:, length] = (first[:, length - 1] + per_length[:, length - 1]) << 1
    # Minus the sorted position of the key's first symbol: add a rank.
    base = first.ravel() - (np.cumsum(counts) - counts)
    order = np.argsort(key, kind="stable")
    codes = np.empty(lens.size, dtype=np.uint32)
    codes[order] = base[key[order]] + np.arange(lens.size)
    return codes


def _decode_table(books: list) -> tuple[np.ndarray, np.ndarray]:
    """The stacked decode table of a run's codebooks, ``(table,
    max_lens)``: book ``b`` owns ``1 << max_lens[b]`` consecutive entries,
    and each of its ``max_len``-bit windows maps to ``row << 5 | length``
    of the code it starts with — ``row`` indexing the books' alphabets
    laid end to end, so any int64 alphabet fits (the decoder maps rows
    back once, at the end). One builder for every table: the scalar loop's
    :meth:`SharedCodebook.tables` is its one-book case.

    Built in one pass without a per-entry or per-book Python loop:
    canonical codes sorted by (book, length, symbol) have strictly
    increasing, space-tiling prefixes within each book, so the table is
    one :func:`numpy.repeat`. A corrupt lengths section that does not tile
    its book's window space exactly is rejected here.
    """
    sizes = [book.alphabet.size for book in books]
    lens = np.concatenate([book.lengths64 for book in books])
    if (lens <= 0).any() or lens.max() > MAX_CODE_LENGTH:
        raise DecompressionError("invalid Huffman code lengths")
    heads = np.cumsum([0] + sizes[:-1])
    max_lens = np.maximum.reduceat(lens, heads)
    book = np.repeat(np.arange(len(books)), sizes)
    spans = np.int64(1) << (max_lens[book] - lens)
    if not np.array_equal(np.add.reduceat(spans, heads), np.int64(1) << max_lens):
        raise DecompressionError("invalid Huffman code table (not full)")
    order = np.argsort(book * 32 + lens, kind="stable")
    entries = (np.arange(lens.size) << 5) | lens
    return np.repeat(entries[order], spans[order]), max_lens


# ----------------------------------------------------------------------
# Shared codebooks
# ----------------------------------------------------------------------
class SharedCodebook:
    """One canonical Huffman codebook shared by a whole group of streams.

    Holds the (sorted, distinct) int64 alphabet and the per-symbol code
    lengths; canonical code values and the scalar loop's flat tables are
    derived lazily and cached, so a group of N patches pays the table
    construction once instead of N times. Build one with
    :meth:`from_symbols` (pooled frequencies), serialize it with
    :meth:`tobytes` (``HUFB`` layout), and pair it with
    :func:`encode_batch` / :func:`decode_many`.
    """

    __slots__ = (
        "alphabet", "lengths", "_codes_f", "_lengths64", "_tables", "_lists",
    )

    def __init__(self, alphabet: np.ndarray, lengths: np.ndarray):
        alphabet = np.ascontiguousarray(alphabet, dtype=np.int64)
        lengths = np.ascontiguousarray(lengths, dtype=np.uint8)
        if alphabet.ndim != 1 or alphabet.size == 0:
            raise CompressionError("codebook alphabet must be a non-empty 1-D array")
        if lengths.shape != alphabet.shape:
            raise CompressionError(
                f"codebook lengths shape {lengths.shape} does not match "
                f"alphabet shape {alphabet.shape}"
            )
        if alphabet.size > (1 << MAX_CODE_LENGTH):
            raise HuffmanAlphabetError(
                f"alphabet of {alphabet.size} symbols exceeds {1 << MAX_CODE_LENGTH}"
            )
        if not (alphabet[1:] > alphabet[:-1]).all():  # not diff(): INT64 extremes wrap
            raise CompressionError("codebook alphabet must be strictly increasing")
        self.alphabet = alphabet
        self.lengths = lengths
        self._codes_f: np.ndarray | None = None
        self._lengths64: np.ndarray | None = None
        self._tables: tuple[np.ndarray, np.ndarray, int] | None = None
        self._lists: tuple[list, list] | None = None

    # kept: benchmarks/e2e/trace.py ENTRY_POINTS names it
    @classmethod
    def from_symbols(cls, symbols: np.ndarray) -> "SharedCodebook":
        """Build a codebook from the pooled frequencies of ``symbols``
        (typically every patch of a group concatenated)."""
        syms = np.ascontiguousarray(symbols, dtype=np.int64).ravel()
        if syms.size == 0:
            raise CompressionError("cannot build a codebook from zero symbols")
        alphabet, _, freqs = _alphabet_inverse(syms)
        if alphabet.size > (1 << MAX_CODE_LENGTH):
            raise HuffmanAlphabetError(
                f"alphabet of {alphabet.size} symbols exceeds {1 << MAX_CODE_LENGTH}"
            )
        return cls(alphabet, code_lengths(freqs))

    @classmethod
    def from_symbols_with_inverse(
        cls, symbols: np.ndarray
    ) -> "tuple[SharedCodebook, np.ndarray]":
        """Like :meth:`from_symbols`, also returning the alphabet indices
        of every symbol (same shape as ``symbols``) so batch encoders skip
        a second alphabet lookup over the pooled data."""
        syms = np.ascontiguousarray(symbols, dtype=np.int64)
        if syms.size == 0:
            raise CompressionError("cannot build a codebook from zero symbols")
        alphabet, inverse, freqs = _alphabet_inverse(syms.ravel())
        if alphabet.size > (1 << MAX_CODE_LENGTH):
            raise HuffmanAlphabetError(
                f"alphabet of {alphabet.size} symbols exceeds {1 << MAX_CODE_LENGTH}"
            )
        return cls(alphabet, code_lengths(freqs)), inverse.reshape(syms.shape)

    # -- encode side ---------------------------------------------------
    @property
    def codes_f(self) -> np.ndarray:
        """Canonical code values as float64 (exact: codes < 2**16), cached
        — the dtype the histogram-based bit packer consumes directly."""
        if self._codes_f is None:
            self._codes_f = _canonical_codes(self.lengths).astype(np.float64)
        return self._codes_f

    @property
    def lengths64(self) -> np.ndarray:
        """Code lengths widened to int64 once (gather-ready), cached."""
        if self._lengths64 is None:
            self._lengths64 = self.lengths.astype(np.int64)
        return self._lengths64

    # kept: refuses symbols outside the codebook when encode_batch gets no precomputed inverse
    def lookup(self, symbols: np.ndarray) -> np.ndarray:
        """Alphabet indices of ``symbols`` (any shape).

        Symbols outside the alphabet are a caller error — the codebook was
        built from different data than it is being asked to encode.
        """
        syms = np.asarray(symbols, dtype=np.int64)
        idx = np.searchsorted(self.alphabet, syms)
        idx_c = np.minimum(idx, self.alphabet.size - 1)
        if not (self.alphabet[idx_c] == syms).all():
            raise CompressionError(
                "symbols outside the shared codebook alphabet; the codebook "
                "must be built from the pooled symbols it encodes"
            )
        return idx_c

    # -- decode side ---------------------------------------------------
    def tables(self) -> tuple[np.ndarray, np.ndarray, int]:
        """The scalar loop's flat decode tables ``(table_sym, table_len,
        max_len)`` — :func:`_decode_table` of this book alone — cached."""
        if self._tables is None:
            table, max_lens = _decode_table([self])
            self._tables = (self.alphabet[table >> 5], table & 31, int(max_lens[0]))
        return self._tables

    def scalar_tables(self, n_symbols: int) -> tuple:
        """The scalar loop's tables as :func:`_scalar_tables` picks them, the
        ``tolist`` cached: lone reads of a group's patches pay it once."""
        if self._lists is not None:
            return self._lists
        picked = _scalar_tables(*self.tables()[:2], n_symbols)
        if isinstance(picked[0], list):
            self._lists = picked
        return picked

    # -- serialization -------------------------------------------------
    def tobytes(self) -> bytes:
        """``HUFB`` layout: ``magic | alphabet_size (u32) | alphabet
        (i64[]) | lengths (u8[])``."""
        return (
            _HUFB_HEAD.pack(HUFB_MAGIC, self.alphabet.size)
            + self.alphabet.tobytes()
            + self.lengths.tobytes()
        )

    @classmethod
    def frombytes(cls, blob) -> "SharedCodebook":
        """Parse a ``HUFB`` blob (corruption raises
        :class:`~repro.errors.DecompressionError`)."""
        if len(blob) < _HUFB_HEAD.size or bytes(blob[:4]) != HUFB_MAGIC:
            raise DecompressionError("not a shared Huffman codebook (bad magic)")
        return cls._read(blob, _HUFB_HEAD.size, _HUFB_HEAD.unpack_from(blob, 0)[1])

    @classmethod
    def _read(cls, blob, pos: int, alpha_size: int) -> "SharedCodebook":
        """The ``alphabet (i64[]) | lengths (u8[])`` section a ``HUFB`` or
        ``HUF2`` header announced at ``blob[pos:]``."""
        if not 1 <= alpha_size <= (1 << MAX_CODE_LENGTH):
            raise DecompressionError(f"codebook alphabet size {alpha_size} invalid")
        if len(blob) < pos + 9 * alpha_size:
            raise DecompressionError("truncated Huffman codebook")
        alphabet = np.frombuffer(blob, dtype=np.int64, count=alpha_size, offset=pos)
        lengths = np.frombuffer(blob, dtype=np.uint8, count=alpha_size, offset=pos + 8 * alpha_size)
        try:
            return cls(alphabet, lengths)
        except CompressionError as exc:
            raise DecompressionError(f"corrupt Huffman codebook: {exc}") from exc


# ----------------------------------------------------------------------
# Encode
# ----------------------------------------------------------------------
def _scatter_pack(
    sym_codes: np.ndarray,
    sym_lens: np.ndarray,
    offsets: np.ndarray,
    total_bytes: int,
) -> np.ndarray:
    """Pack symbols into a byte array by **byte accumulation**, vectorized
    (no per-symbol loop, no per-bit pass). Shared by the HUF2 encoder and
    the grouped batch encoder."""
    if sym_codes.size == 0 or total_bytes == 0:
        return np.zeros(total_bytes, dtype=np.uint8)
    # Every symbol's code occupies a disjoint bit range and spans at most
    # 7 + MAX_CODE_LENGTH = 23 < 24 bits from the start of its byte.
    # Left-align each code inside the 24-bit window that starts at its
    # byte; a window's unused low bits are zero, so windows rooted at the
    # same byte occupy disjoint bits and their SUM equals their OR. One
    # histogram therefore accumulates every symbol (float64 is exact:
    # per-byte window sums stay < 2**24), and the final byte stream falls
    # out of three shifted slice-adds of the per-byte sums. ``ldexp``
    # builds the float windows bincount wants directly — one ufunc pass
    # instead of an integer shift plus a float conversion.
    byte_idx = offsets >> 3
    shift = 24 - (offsets & 7) - sym_lens
    windows = np.ldexp(
        sym_codes.astype(np.float64, copy=False), shift.astype(np.int32, copy=False)
    )
    acc = np.bincount(byte_idx, weights=windows, minlength=total_bytes).astype(np.int64)
    out = acc >> 16
    out[1:] += (acc[:-1] >> 8) & 0xFF
    out[2:] += acc[:-2] & 0xFF
    return out[:total_bytes].astype(np.uint8)


def _stream_layout(sym_lens: np.ndarray, K: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bit layout of ``(members, symbols)`` code lengths, K streams each:
    ``(stream_bits (P, K), offsets (P, n), member_bytes (P,))`` — every
    symbol's bit offset from the start of *its member's* payload (streams
    byte-aligned, in stream order). Symbol ``i`` is (round ``i // K``,
    stream ``i % K``), so a ``(rounds, K)`` reshape turns all prefix sums
    into one cumsum. Behind both the ``HUF2`` and ``HUFS`` encoders."""
    P, n = sym_lens.shape
    n_rounds = -(-n // K)
    pad = n_rounds * K - n  # 0 when K divides the member size (patch shapes): a view
    lens_mat = (np.pad(sym_lens, ((0, 0), (0, pad))) if pad else sym_lens).reshape(P, n_rounds, K)
    csum = np.cumsum(lens_mat, axis=1)
    stream_bits = csum[:, -1, :]
    stream_bytes = (stream_bits + 7) // 8
    ends = np.cumsum(stream_bytes, axis=1)
    base_bits = 8 * (ends - stream_bytes)
    offsets = ((csum - lens_mat) + base_bits[:, None, :]).reshape(P, n_rounds * K)[:, :n]
    return stream_bits, offsets, ends[:, -1]


def _run_alphabets(arrays: list) -> list:
    """Per-member ``(alphabet, freqs, rows)`` of a run of flat int64 arrays
    — ``rows`` maps each symbol to its row in the concatenation of the
    run's alphabets — or ``None`` for a member whose alphabet is too large
    to Huffman-code (it adds no rows). Neighbouring patches' codes share
    one narrow value band, so one joint ``member x value`` histogram
    replaces the per-member passes of :func:`_alphabet_inverse`; a wide
    band falls back to those."""
    sizes = [a.size for a in arrays]
    total, limit = sum(sizes), 1 << MAX_CODE_LENGTH
    if total:
        flat = np.concatenate(arrays)
        lo = int(flat.min())
        span = int(flat.max()) - lo + 1
        if span <= limit and len(arrays) * span <= max(4 * total, limit):
            key = (flat - lo) + np.repeat(np.arange(0, len(arrays) * span, span), sizes)
            counts = np.bincount(key, minlength=len(arrays) * span)
            present = counts > 0
            rows = (np.cumsum(present) - 1)[key]
            values = np.flatnonzero(present) % span + lo
            freqs = counts[present]
            cuts = np.cumsum(present.reshape(-1, span).sum(axis=1)).tolist()
            ends = np.cumsum(sizes).tolist()
            return [
                (values[a:b], freqs[a:b], rows[c:d])
                for a, b, c, d in zip([0] + cuts, cuts, [0] + ends, ends)
            ]
    books, base = [], 0
    for syms in arrays:
        alphabet, inverse, freqs = _alphabet_inverse(syms) if syms.size else (syms,) * 3
        fits = alphabet.size <= limit
        books.append((alphabet, freqs, inverse + base) if fits else None)
        base += alphabet.size * fits
    return books


def encode_many(members, k_streams: int | str = "auto") -> list:
    """Huffman-encode several symbol arrays, each into its own
    self-contained ``HUF2`` blob, in one bit-packing pass.

    Blob ``i`` is exactly what a one-member call returns for ``members[i]``
    alone — own alphabet, canonical codebook, interleave width K and
    byte-aligned streams — but the code/length gathers run once over the
    run's concatenated codebooks, same-size members share one
    :func:`_stream_layout`, and a single :func:`_scatter_pack` packs every
    member's bits. Members are ragged; one whose alphabet is too large to
    Huffman-code yields ``None`` (callers fall back to DEFLATE for it
    alone), an empty one its header-only blob.

    ``HUF2`` layout: ``magic b"HUF2" | n_symbols (u64) | k_streams (u32) |
    alphabet_size (u32) | alphabet (i64[]) | lengths (u8[]) |
    stream_bits (u64[K]) | per-stream packed bits, each byte-aligned``.
    """
    arrays = [np.ascontiguousarray(m, dtype=np.int64).ravel() for m in members]
    out: list = [None] * len(arrays)
    coded: list[tuple] = []  # (slot, alphabet, lengths, rows of the pooled tables)
    by_size: dict[int, list[int]] = {}
    for slot, book in enumerate(_run_alphabets(arrays)):
        if book is not None and book[2].size:
            by_size.setdefault(book[2].size, []).append(len(coded))
            coded.append((slot, book[0], code_lengths(book[1]), book[2]))
        elif book is not None:
            out[slot] = _HUF2_HEAD.pack(HUF2_MAGIC, 0, 0, 0)
    if not coded:
        return out
    all_lens = np.concatenate([c[2] for c in coded]).astype(np.int64)
    all_codes = _canonical_codes(all_lens, [c[2].size for c in coded])
    # Members of one size share K, so their layout is one batched cumsum;
    # payloads are laid out group by group in one byte space.
    row_parts, offset_parts, layout, cursor = [], [], {}, 0
    for n, group in by_size.items():
        K = resolve_k_streams(k_streams, n)
        rows = np.stack([coded[j][3] for j in group])
        stream_bits, offsets, member_bytes = _stream_layout(all_lens[rows], K)
        starts = cursor + np.concatenate(([0], np.cumsum(member_bytes)))
        row_parts.append(rows.ravel())
        offset_parts.append((offsets + 8 * starts[:-1, None]).ravel())
        bits = stream_bits.astype(np.uint64)
        for r, j in enumerate(group):
            layout[j] = (K, bits[r], int(starts[r]), int(starts[r + 1]))
        cursor = int(starts[-1])
    rows = np.concatenate(row_parts)
    packed = _scatter_pack(all_codes[rows], all_lens[rows], np.concatenate(offset_parts), cursor)
    for j, (slot, alphabet, lengths, member_rows) in enumerate(coded):
        K, bits, start, end = layout[j]
        out[slot] = b"".join((
            _HUF2_HEAD.pack(HUF2_MAGIC, member_rows.size, K, alphabet.size),
            alphabet.tobytes(), lengths.tobytes(), bits.tobytes(),
            packed[start:end].tobytes(),
        ))
    return out


def encode_batch(
    codes,
    codebook: SharedCodebook,
    k_streams: int | str = "auto",
    inverse=None,
) -> list[bytes]:
    """Encode every member of a group against one shared codebook.

    Parameters
    ----------
    codes:
        The members' symbols: a sequence of arrays of any sizes (a run of
        ragged patches; a ``(n_members, n_symbols)`` matrix is the sequence
        of its rows). Every symbol must be in the codebook's alphabet.
    codebook:
        The group's shared :class:`SharedCodebook`.
    k_streams:
        Interleave width per member, resolved per member size — members
        of one size share K.
    inverse:
        Optional precomputed alphabet indices of ``codes``, one array per
        member shaped like its codes (from
        :meth:`SharedCodebook.from_symbols_with_inverse`), skipping the
        per-call lookup over the pooled symbols.

    Returns
    -------
    list[bytes]
        One ``HUFS`` payload per member: ``magic b"HUFS" | n_symbols
        (u64) | k_streams (u32) | stream_bits (u64[K]) | packed bits``.
        Each payload is exactly what a one-member call produces for that
        member alone — but members of one size share one
        :func:`_stream_layout` and a *single* :func:`_scatter_pack` packs
        the whole group, which is where the fused batch throughput comes
        from. An empty member gets its header-only payload.
    """
    members = [np.ascontiguousarray(m, dtype=np.int64).ravel() for m in codes]
    if inverse is None:
        inverse = [codebook.lookup(m) for m in members]
    by_size: dict[int, list[int]] = {}
    for i, m in enumerate(members):
        if inverse[i].shape != m.shape:
            raise CompressionError(
                f"precomputed inverse of member {i} has shape "
                f"{inverse[i].shape}, its codes {m.shape}"
            )
        by_size.setdefault(m.size, []).append(i)
    sizes = {
        n: (idx, inverse[idx[0]][None] if len(idx) == 1 else np.stack([inverse[i] for i in idx]))
        for n, idx in by_size.items()
    }
    # Byte layout: size group by size group, member-major, stream-minor —
    # a member's payload is the contiguous run of its K streams, so
    # per-member slicing is free.
    heads: dict[int, tuple] = {}  # member -> (n, K, stream_bits, start, end)
    parts, cursor = [], 0
    for n, (idx, rows) in sizes.items():
        if n == 0:
            heads.update((i, (0, 0, b"", cursor, cursor)) for i in idx)
            continue
        K = resolve_k_streams(k_streams, n)
        sym_lens = codebook.lengths64[rows]
        stream_bits, offsets, member_bytes = _stream_layout(sym_lens, K)
        starts = cursor + np.concatenate(([0], np.cumsum(member_bytes)))
        # float64 codes: what the packer's bincount weighs
        parts.append((codebook.codes_f[rows], sym_lens, offsets + 8 * starts[:-1, None]))
        bits = stream_bits.astype(np.uint64)
        for r, i in enumerate(idx):
            heads[i] = (n, K, bits[r].tobytes(), int(starts[r]), int(starts[r + 1]))
        cursor = int(starts[-1])
    flat = [np.concatenate([p[j].ravel() for p in parts]) if parts else np.zeros(0) for j in range(3)]
    packed = _scatter_pack(*flat, cursor)
    return [
        _HUFS_HEAD.pack(HUFS_MAGIC, n, K) + bits + packed[start:end].tobytes()
        for n, K, bits, start, end in (heads[i] for i in range(len(heads)))
    ]


# ----------------------------------------------------------------------
# Decode
# ----------------------------------------------------------------------
def blob_bound(n_symbols: int) -> int:
    """The most bytes a ``HUF2`` / ``HUFS`` blob of ``n_symbols`` symbols
    occupies (what its lossless wrapper may inflate to): header, 9 bytes per
    alphabet symbol, 9 per stream, :data:`MAX_CODE_LENGTH` bits per symbol."""
    rows = min(n_symbols, 1 << MAX_CODE_LENGTH) + min(n_symbols, MAX_STREAMS)
    return _HUF2_HEAD.size + 9 * rows + MAX_CODE_LENGTH // 8 * n_symbols


def decode_many(blobs, codebooks=None) -> list:
    """Decode a run of blobs (any buffers) into their int64 symbol arrays,
    the streams of **all** of them advancing in one lockstep. ``blobs[i]``
    is a ``HUF2`` blob where ``codebooks[i]`` is ``None``, otherwise the
    ``HUFS`` payload of that :class:`SharedCodebook`'s group (members of a
    group pass the same object and share one decode table)."""
    books = codebooks or [None] * len(blobs)
    return _decode_streams([_parse(blob, book) for blob, book in zip(blobs, books)])


def _parse(blob, codebook: SharedCodebook | None) -> tuple:
    """One blob as a member ``(n_symbols, K, stream_bits, payload,
    codebook)`` of a decode call: a ``HUF2`` blob brings its own codebook,
    a ``HUFS`` payload decodes against the one given. Every header count
    is checked against the bytes present before anything is sized by it."""
    if codebook is None:
        magic = bytes(blob[:4])
        if magic == HUFS_MAGIC:
            raise DecompressionError(
                "HUFS shared-codebook payloads carry no alphabet; decode them "
                "with decode_many and their group's HUFB codebook"
            )
        if magic != HUF2_MAGIC:
            raise DecompressionError(
                f"not a HUF2 Huffman blob (magic {magic!r}); the headerless "
                "pre-HUF2 layout is no longer readable"
            )
        if len(blob) < _HUF2_HEAD.size:
            raise DecompressionError("truncated Huffman blob")
        _, n_symbols, K, alpha_size = _HUF2_HEAD.unpack_from(blob, 0)
        layout, pos = "HUF2", _HUF2_HEAD.size + 9 * alpha_size
        if n_symbols:
            codebook = SharedCodebook._read(blob, _HUF2_HEAD.size, alpha_size)
    else:
        if len(blob) < _HUFS_HEAD.size or bytes(blob[:4]) != HUFS_MAGIC:
            raise DecompressionError("not a shared-codebook Huffman payload (bad magic)")
        _, n_symbols, K = _HUFS_HEAD.unpack_from(blob, 0)
        layout, pos = "HUFS", _HUFS_HEAD.size
    if n_symbols == 0:
        return 0, 0, None, None, None
    # Both layouts end with ``stream_bits (u64[K]) | per-stream packed bits``.
    if not 1 <= K <= MAX_STREAMS:
        raise DecompressionError(f"{layout} stream count {K} outside [1, {MAX_STREAMS}]")
    room = len(blob) - pos - 8 * K
    if room < 0:
        raise DecompressionError(f"truncated {layout} stream table")
    stream_bits = np.frombuffer(blob, dtype=np.uint64, count=K, offset=pos).astype(np.int64)
    if (stream_bits < 0).any():
        raise DecompressionError(f"{layout} per-stream bit length overflow")
    # No stream outruns the payload, so neither sum below can wrap.
    if int(stream_bits.max()) > 8 * room or int(((stream_bits + 7) // 8).sum()) > room:
        raise DecompressionError(f"{layout} bitstream truncated")
    # Every symbol costs at least one bit (a one-symbol alphabet is written
    # with length 1), so a count the streams cannot hold is forged.
    if n_symbols > int(stream_bits.sum()):
        raise DecompressionError(f"{layout} symbol count {n_symbols} exceeds its streams' bits")
    payload = np.frombuffer(blob, dtype=np.uint8, offset=pos + 8 * K)
    return n_symbols, K, stream_bits, payload, codebook


def _lane_counts(n: int, K: int) -> np.ndarray:
    """Symbols per stream: symbol ``i`` rides stream ``i % K``, so the
    first ``n % K`` streams carry one more."""
    counts = np.full(K, n // K, dtype=np.int64)
    counts[: n % K] += 1
    return counts


def _decode_streams(members: list) -> list:
    """Decode the parsed members of one call (see the module notes): the
    lockstep rounds when the call's streams are together wide and long
    enough to amortize them, else the scalar loop. A member whose own
    round count would thin the rounds below :data:`_VECTOR_MIN_STREAMS`
    lanes on average (``k_streams=1`` over 100 k symbols among small
    patches) is decoded as a call of its own."""
    out: list = [None] * len(members)
    run, symbols = [], 0  # the members that walk a decode table
    for i, (n, K, stream_bits, _, codebook) in enumerate(members):
        if n == 0:
            out[i] = np.empty(0, dtype=np.int64)
        elif codebook.alphabet.size == 1:
            # One symbol, written as a 1-bit code: no table to walk, but
            # each stream is still exactly as long as its symbols.
            if not np.array_equal(stream_bits, _lane_counts(n, K)):
                raise DecompressionError(
                    "interleaved stream lengths inconsistent with a "
                    "one-symbol alphabet (corrupt per-stream bit lengths)"
                )
            out[i] = np.full(n, codebook.alphabet[0], dtype=np.int64)
        else:
            run.append(i)
            symbols += n
    rounds = {i: -(-members[i][0] // members[i][1]) for i in run}
    run.sort(key=rounds.get)
    while len(run) > 1 and symbols < _VECTOR_MIN_STREAMS * rounds[run[-1]]:
        i = run.pop()
        symbols -= members[i][0]
        out[i] = _decode_streams([members[i]])[0]
    if symbols >= _SCALAR_CUTOFF and sum(members[i][1] for i in run) >= _VECTOR_MIN_STREAMS:
        decoded = _decode_streams_vector([members[i] for i in run])
    else:
        # A shared codebook's table serves all its members of the call:
        # size the list-or-array choice by their symbols together.
        book_symbols: dict[int, int] = {}
        for i in run:
            key = id(members[i][4])
            book_symbols[key] = book_symbols.get(key, 0) + members[i][0]
        decoded = [
            _decode_streams_scalar(*members[i], book_symbols[id(members[i][4])]) for i in run
        ]
    for i, syms in zip(run, decoded):
        out[i] = syms
    return out


def _decode_streams_scalar(
    n, K, stream_bits, payload, codebook: SharedCodebook, book_symbols: int | None = None
) -> np.ndarray:
    """Per-stream scalar decode + interleave (small calls, narrow K);
    ``book_symbols`` is what the call decodes with ``codebook`` in all
    (default: this member's ``n``)."""
    tsym, tlen = codebook.scalar_tables(n if book_symbols is None else book_symbols)
    max_len = codebook.tables()[2]
    stream_bytes = (stream_bits + 7) // 8
    starts = np.concatenate(([0], np.cumsum(stream_bytes)[:-1]))
    out = np.empty(n, dtype=np.int64)
    for k, count in enumerate(_lane_counts(n, K).tolist()):
        data = payload[int(starts[k]) : int(starts[k] + stream_bytes[k])].tobytes()
        out[k::K], consumed = _decode_stream(data, count, tsym, tlen, max_len)
        if consumed != int(stream_bits[k]):
            raise DecompressionError(
                f"interleaved stream {k} decoded {consumed} bits, expected "
                f"{int(stream_bits[k])} (corrupt bitstream or per-stream "
                "bit lengths)"
            )
    return out


def _decode_streams_vector(members: list) -> list:
    """Lockstep vectorized decode: one NumPy gather round per symbol rank,
    over the streams of all members at once.

    Every interleaved stream of every member is a *lane* with a bit cursor
    into one stacked payload; a round gathers a 32-bit big-endian window
    per lane, looks all windows up in one stacked table (every distinct
    codebook of the run, built by one :func:`_decode_table` call, reached
    through a per-lane offset, shift and mask), emits one symbol per lane
    and advances the cursors by the code lengths. Lanes are ordered by
    symbol count, so the active lanes of a round are a shrinking prefix;
    rounds fill one flat buffer, from which each member's interleave is
    gathered at the end.

    A window only *uses* its top ``7 + max_len <= 23`` bits, so reading
    past a stream's end (the next stream or member, the zero tail) never
    corrupts a symbol whose bits lie inside the stream. Corrupt input
    cannot escape: a cursor moves at most :data:`MAX_CODE_LENGTH` bits a
    round, the tail is padded for that, and after the final round every
    lane's cursor must sit exactly at its recorded ``stream_bits``.
    """
    Ks = [m[1] for m in members]
    bits = np.concatenate([m[2] for m in members])
    counts = np.concatenate([_lane_counts(m[0], m[1]) for m in members])
    # Stable, so one member's lanes keep their order (the longer ones lead).
    order = np.argsort(-counts, kind="stable")

    books = list({id(m[4]): m[4] for m in members}.values())
    table, max_lens = _decode_table(books)
    sizes = np.int64(1) << max_lens  # entries of each codebook's table
    alphabet = np.concatenate([book.alphabet for book in books])
    slot = {id(book): i for i, book in enumerate(books)}
    book_of = np.repeat([slot[id(m[4])] for m in members], Ks)[order]
    offsets = (np.cumsum(sizes) - sizes)[book_of]
    mask, shift = sizes[book_of] - 1, 32 - max_lens[book_of]

    # 32-bit big-endian window at every byte offset of the members' streams
    # laid end to end, then zeros for the last windows and for overruns.
    lane_bytes = (bits + 7) // 8
    lane_ends = np.cumsum(Ks)
    member_bytes = np.add.reduceat(lane_bytes, lane_ends - Ks).tolist()
    tail = np.zeros(MAX_CODE_LENGTH // 8 * int(counts.max()) + 8, dtype=np.uint8)
    b = np.concatenate([m[3][:size] for m, size in zip(members, member_bytes)] + [tail])
    b = b.astype(np.uint32)
    windows = (b[:-3] << 24) | (b[1:-2] << 16) | (b[2:-1] << 8) | b[3:]
    base = (8 * (np.cumsum(lane_bytes) - lane_bytes))[order]
    cursor = base.copy()

    active = (counts.size - np.cumsum(np.bincount(counts))[:-1]).tolist()
    starts = np.concatenate(([0], np.cumsum(active)))
    flat = np.empty(starts[-1], dtype=np.int64)
    width = None
    for lo, a in zip(starts.tolist(), active):
        if a != width:
            width = a
            c, at, sh, mk = cursor[:a], offsets[:a], shift[:a], mask[:a]
        entry = table.take(((windows.take(c >> 3) >> (sh - (c & 7))) & mk) + at)
        flat[lo : lo + a] = entry
        c += entry & 31
    if not np.array_equal(cursor - base, bits[order]):
        raise DecompressionError(
            "interleaved stream lengths inconsistent with decoded symbols "
            "(corrupt bitstream or per-stream bit lengths)"
        )
    symbols = alphabet.take(np.right_shift(flat, 5, out=flat))
    del table, flat  # a run's tables and rounds are as large as its output
    if len(members) == 1:
        return [symbols]  # its lanes kept their order: the rounds are the interleave
    seat = np.argsort(order)  # where each lane sits in a round
    return [
        symbols.take((starts[: -(-n // K), None] + seat[end - K : end]).ravel()[:n])
        for (n, K, *_), end in zip(members, lane_ends.tolist())
    ]


def _scalar_tables(table_sym: np.ndarray, table_len: np.ndarray, n_symbols: int):
    """Pick list or ndarray tables for the scalar loop.

    Measured trade-off (see the micro-benchmark note in
    ``benchmarks/bench_entropy.py``): indexing a Python list inside the
    loop costs ~60 ns vs ~250 ns for an ndarray element (NumPy scalar
    boxing), but ``.tolist()`` of a full 2**16-entry table pair costs
    ~0.8 ms. Lists win once the symbol count is a non-trivial fraction of
    the table size; below that, index the NumPy tables directly.
    """
    if n_symbols * 8 >= table_sym.size:
        return table_sym.tolist(), table_len.tolist()
    return table_sym, table_len


def _decode_stream(
    data: bytes, n_symbols: int, table_sym, table_len, max_len: int
) -> tuple[np.ndarray, int]:
    """Tight scalar decode loop: one table lookup per symbol.

    Plain-Python loop on purpose: per-symbol dependencies make a single
    stream inherently sequential. It remains the fast path for small
    calls, where the vectorized decoder's setup cost dominates; the
    tables are lists or ndarrays per :func:`_scalar_tables`. Returns the
    symbols and the exact number of bits consumed (for per-stream
    validation in the HUF2 layout).
    """
    out = np.empty(n_symbols, dtype=np.int64)
    mask = (1 << max_len) - 1
    bitbuf = 0
    nbits = 0
    byte_pos = 0
    n_bytes = len(data)
    for i in range(n_symbols):
        while nbits < max_len and byte_pos < n_bytes:
            bitbuf = (bitbuf << 8) | data[byte_pos]
            byte_pos += 1
            nbits += 8
        if nbits >= max_len:
            window = (bitbuf >> (nbits - max_len)) & mask
        else:
            window = (bitbuf << (max_len - nbits)) & mask
        length = table_len[window]
        if length > nbits:
            raise DecompressionError("Huffman bitstream exhausted mid-symbol")
        out[i] = table_sym[window]
        nbits -= length
        bitbuf &= (1 << nbits) - 1
    return out, 8 * byte_pos - nbits
