"""Entropy-stage throughput: scalar loop vs K-way lockstep decode.

The paper's decode time is dominated by the customized-Huffman entropy
stage, and a single Huffman stream is inherently bit-serial — symbol
``i+1`` starts where symbol ``i`` ended. The ``HUF2`` layout breaks the
chain into K round-robin interleaved streams sharing one canonical
codebook, so the decoder advances all K in lockstep with NumPy gathers
(see ``repro.compression.huffman``). This benchmark measures encode and
decode throughput across the interleave sweep on 64³ grids and asserts
the headline criterion: **K-way decode >= 10x faster than the scalar
loop**, with byte-identical reconstructions.

Two code distributions are exercised:

* *nyx-like*: two-sided geometric quantization codes, the distribution a
  Lorenzo/interpolation predictor feeds the entropy stage on the Nyx
  baryon-density field (most mass near 0);
* *uniform-random*: incompressible 8-bit codes, the entropy stage's
  worst case (deep table, ~zero skew to exploit).

Interleave economics: a lockstep round costs one NumPy gather regardless
of width, so throughput scales with K until the rounds get thin. Narrow
interleaves (K < 32) cannot amortize the per-op dispatch cost and route
to the scalar per-stream path; ``k_streams="auto"`` therefore widens K
with the input (1024 lanes at 64³). The K sweep below makes that curve
visible rather than hiding the regime where vectorization loses.

Many small members
------------------
The paper's data are many small patches, and a small patch's blob is too
short and too narrow to vectorize on its own: decoded one blob at a time,
the ~63 level-1 patch streams of one Nyx field all take the scalar loop.
``huffman.decode_many`` advances the streams of all of them in one
lockstep instead; ``test_decode_speedup_many_small`` records the ratio
(``decode_speedup_many_small``, gated in ``perf-smoke`` beside the 64³
single-blob one) and asserts the two paths agree symbol for symbol.

Scalar-table representation note (``huffman._scalar_tables``)
-------------------------------------------------------------
The scalar loop can index its flat decode tables as Python lists or as
NumPy arrays. Measured on CPython 3.11 (``test_scalar_table_tradeoff``):
a list index costs ~60 ns/symbol vs ~250 ns/symbol for an ndarray
element (NumPy scalar boxing), but materializing ``.tolist()`` of a full
2**16-entry table pair costs ~1 ms. So lists win only once the symbol
count is a non-trivial fraction of the table size; ``_scalar_tables``
converts when ``n_symbols * 8 >= table_size`` and indexes the ndarrays
directly below that, which is why tiny-patch decodes no longer pay a
fixed ~1 ms ``.tolist()`` tax.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import pytest
from conftest import emit

import perf_harness
from repro.compression import huffman
from repro.compression.amr_codec import resolve_patch_codec
from repro.compression.base import StreamReader
from repro.compression.lossless import decompress_bytes
from repro.sims.nyx import NyxConfig, nyx_hierarchy

#: Interleave widths swept by the throughput table.
K_SWEEP = (1, 4, 8, 16, "auto")

#: The acceptance criterion: lockstep decode vs the scalar loop on 64^3.
MIN_DECODE_SPEEDUP = 10.0

#: Batched lockstep vs the per-blob loop over one field's small patches.
MIN_MANY_SMALL_SPEEDUP = 2.0

_N = 64**3


@dataclass(frozen=True)
class Row:
    layout: str
    k: str
    encode_mb_s: float
    decode_mb_s: float
    speedup_vs_scalar: float


@dataclass(frozen=True)
class MicroRow:
    path: str
    microseconds: float


def _nyx_like_codes(n: int = _N) -> np.ndarray:
    """Two-sided geometric codes, nyx-like predictor-residual statistics."""
    rng = np.random.default_rng(7)
    mag = (rng.geometric(0.4, size=n) - 1).astype(np.int64)
    return mag * rng.choice(np.array([-1, 1], dtype=np.int64), size=n)


def _uniform_codes(n: int = _N) -> np.ndarray:
    """Incompressible uniform 8-bit codes (entropy-stage worst case)."""
    return np.random.default_rng(11).integers(0, 256, size=n).astype(np.int64)


_DATASETS = {"nyx_like": _nyx_like_codes, "uniform_random": _uniform_codes}


def _best(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _mb_s(n_symbols: int, seconds: float) -> float:
    """Symbol-array throughput (int64 payload bytes per second)."""
    return n_symbols * 8 / seconds / 1e6


@pytest.fixture(scope="module", params=sorted(_DATASETS))
def dataset(request):
    return request.param, _DATASETS[request.param]()


def test_decode_speedup_64cubed(benchmark, dataset):
    """Headline criterion: auto-K lockstep decode >= 10x the scalar loop.

    The scalar reference is a single-stream blob (``k_streams=1``), which
    decodes through the per-symbol Python loop that was the pre-HUF2
    production path. Reconstructions must match the input
    symbol-for-symbol.
    """
    name, syms = dataset
    blob_scalar = huffman.encode(syms, k_streams=1)
    blob_kway = huffman.encode(syms, k_streams="auto")

    decoded = huffman.decode(blob_kway)
    assert np.array_equal(decoded, syms), "K-way reconstruction differs"
    assert np.array_equal(huffman.decode(blob_scalar), syms)

    t_scalar = _best(lambda: huffman.decode(blob_scalar))
    benchmark(lambda: huffman.decode(blob_kway))
    t_kway = _best(lambda: huffman.decode(blob_kway))
    speedup = t_scalar / t_kway

    perf_harness.record(
        "bench_entropy", f"decode_speedup_{name}", speedup, "x",
        higher_is_better=True,
    )
    perf_harness.record(
        "bench_entropy", f"decode_mb_s_{name}", _mb_s(syms.size, t_kway), "MB/s",
        higher_is_better=True,
    )
    emit(
        f"scalar (K=1) vs auto-K HUF2 decode ({name}, 64^3)",
        [
            Row("HUF2", "1", float("nan"), _mb_s(syms.size, t_scalar), 1.0),
            Row(
                "HUF2",
                str(huffman.resolve_k_streams("auto", syms.size)),
                float("nan"),
                _mb_s(syms.size, t_kway),
                speedup,
            ),
        ],
    )
    assert speedup >= MIN_DECODE_SPEEDUP, (
        f"{name}: K-way decode only {speedup:.1f}x faster than the scalar "
        f"loop (criterion: >= {MIN_DECODE_SPEEDUP:.0f}x)"
    )


def _many_small_blobs() -> list[bytes]:
    """The ``HUF2`` code sections of the level-1 patches of one Nyx field
    (64^3 fine level in ~63 patches of 8^3 to 16^3 cells), as the
    campaign writer stores them."""
    codec = resolve_patch_codec("sz-lr")
    blobs = []
    for patch in nyx_hierarchy(NyxConfig(coarse_n=32))[1].patches("baryon_density"):
        section = StreamReader(codec.compress(patch.data, 1e-3, "rel")).section("codes")
        blobs.append(decompress_bytes(section, huffman.blob_bound(patch.data.size)))
    return blobs


def test_decode_speedup_many_small(benchmark):
    """One lockstep over a field's patch streams vs one decode per blob."""
    blobs = _many_small_blobs()
    one_by_one = [huffman.decode(blob) for blob in blobs]
    batched = huffman.decode_many(blobs)
    assert len(batched) == len(blobs) > 32
    assert all(np.array_equal(a, b) for a, b in zip(batched, one_by_one))

    t_loop = _best(lambda: [huffman.decode(blob) for blob in blobs], repeats=5)
    benchmark(lambda: huffman.decode_many(blobs))
    t_batched = _best(lambda: huffman.decode_many(blobs), repeats=5)
    speedup = t_loop / t_batched
    perf_harness.record(
        "bench_entropy", "decode_speedup_many_small", speedup, "x", higher_is_better=True
    )
    n_symbols = sum(a.size for a in batched)
    emit(
        f"per-blob loop vs one lockstep ({len(blobs)} level-1 Nyx patch streams)",
        [
            Row("HUF2", "per blob", float("nan"), _mb_s(n_symbols, t_loop), 1.0),
            Row("HUF2", "one run", float("nan"), _mb_s(n_symbols, t_batched), speedup),
        ],
    )
    assert speedup >= MIN_MANY_SMALL_SPEEDUP, (
        f"batched decode only {speedup:.1f}x faster than the per-blob loop "
        f"(criterion: >= {MIN_MANY_SMALL_SPEEDUP:.0f}x)"
    )


def test_kway_throughput_sweep(dataset):
    """Encode/decode MB/s across K ∈ {1, 4, 8, 16, auto}.

    Byte-identical reconstructions are asserted at every K; throughput is
    reported so the narrow-interleave regime (where the scalar fallback
    wins and ``auto`` refuses to go) stays visible.
    """
    name, syms = dataset
    t_scalar = _best(
        lambda: huffman.decode(huffman.encode(syms, k_streams=1)), repeats=1
    )
    rows = []
    for k in K_SWEEP:
        t_enc = _best(lambda: huffman.encode(syms, k_streams=k), repeats=2)
        blob = huffman.encode(syms, k_streams=k)
        assert np.array_equal(huffman.decode(blob), syms), f"K={k} round-trip"
        t_dec = _best(lambda: huffman.decode(blob))
        rows.append(
            Row(
                "HUF2",
                str(k),
                _mb_s(syms.size, t_enc),
                _mb_s(syms.size, t_dec),
                t_scalar / t_dec,
            )
        )
        if k == "auto":
            perf_harness.record(
                "bench_entropy", f"encode_mb_s_{name}", _mb_s(syms.size, t_enc),
                "MB/s", higher_is_better=True,
            )
    emit(f"K-way interleave sweep ({name}, 64^3)", rows)


def test_encode_decode_deterministic(dataset):
    """Same input + same K -> byte-identical blobs (container determinism)."""
    _, syms = dataset
    assert huffman.encode(syms, k_streams=8) == huffman.encode(syms, k_streams=8)
    assert huffman.encode(syms, k_streams="auto") == huffman.encode(
        syms, k_streams="auto"
    )


def test_scalar_table_tradeoff():
    """Micro-benchmark behind the ``_scalar_tables`` list/ndarray threshold.

    Decodes a small stream (far below the vector cutoff) with both table
    representations and prints the trade-off; see the module docstring for
    the measured numbers this policy encodes. Asserts only correctness —
    the note, not the machine, is the contract.
    """
    rng = np.random.default_rng(3)
    syms = rng.integers(-2000, 2000, size=512).astype(np.int64)
    blob = huffman.encode(syms, k_streams=1)
    assert np.array_equal(huffman.decode(blob), syms)

    n_symbols = 512
    alphabet = np.unique(syms)
    lengths = huffman.code_lengths(np.bincount(np.unique(syms, return_inverse=True)[1]))
    table_sym, table_len, max_len = huffman.SharedCodebook(alphabet, lengths).tables()
    t_list = _best(lambda: (table_sym.tolist(), table_len.tolist()), repeats=5)
    t_nd = _best(lambda: huffman.decode(blob), repeats=5)
    emit(
        f"scalar-table representation (512 symbols, table 2^{max_len})",
        [
            MicroRow("tolist() prep alone", t_list * 1e6),
            MicroRow("ndarray-indexed full decode", t_nd * 1e6),
        ],
    )
    # The decision rule: tiny decodes must not pay the full tolist() tax.
    chosen = huffman._scalar_tables(table_sym, table_len, n_symbols)
    assert isinstance(chosen[0], np.ndarray) == (n_symbols * 8 < table_sym.size)
