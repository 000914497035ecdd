"""Selective decompression: random access must beat full decode (§3.3).

The patch-indexed container exists so a consumer can pull one patch, one
level, or one field without decompressing the rest. This benchmark builds
a 3-level Nyx-like hierarchy, compresses it once, and compares a full
decode against a single-patch selective decode — the latter must win by at
least :data:`MIN_SELECTIVE_SPEEDUP` (it reads and decodes O(patch) bytes,
not O(hierarchy)). Both containers are grouped: each run of patches shares
one Huffman codebook, whose table a lone patch's read still builds.
"""

from __future__ import annotations

import io
import time
from dataclasses import dataclass

import numpy as np
import pytest
from conftest import bench_scale, emit

import perf_harness

from repro.compression.amr_codec import (
    CompressedHierarchy,
    compress_hierarchy,
    decompress_selection,
)
from repro.sims import NyxConfig
from repro.sims.nyx import nyx_multilevel_hierarchy


@dataclass(frozen=True)
class Row:
    path: str
    patches: int
    seconds: float
    speedup: float


@pytest.fixture(scope="module")
def three_level():
    """3-level hierarchy at benchmark scale (coarse 16^3 at scale 0.5)."""
    coarse_n = max(8, int(32 * bench_scale()))
    return nyx_multilevel_hierarchy(NyxConfig(coarse_n=coarse_n), levels=3)


@pytest.fixture(scope="module")
def container_bytes(three_level):
    return compress_hierarchy(three_level, "sz-lr", 1e-3, fields=["baryon_density"]).tobytes()


def _best_of(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


#: Floor on the full decode's time over one patch's; derived, like
#: :data:`MAX_ONE_PATCH_COST`, in benchmarks/baselines/BENCH_bench_selective.json.
MIN_SELECTIVE_SPEEDUP = 3.6


def test_selective_vs_full_decode(benchmark, three_level, container_bytes):
    """Single-patch selective decode at least :data:`MIN_SELECTIVE_SPEEDUP`
    times faster than decoding everything."""
    raw = container_bytes
    n_patches = len(CompressedHierarchy.frombytes(raw).entries)
    assert n_patches >= 6, "3-level hierarchy should carry several patches"

    full_s = _best_of(lambda: decompress_selection(raw))
    selective = benchmark(lambda: decompress_selection(raw, levels=2, patches=0))
    sel_s = _best_of(lambda: decompress_selection(raw, levels=2, patches=0))
    speedup = full_s / sel_s
    perf_harness.record(
        "bench_selective", "selective_speedup", speedup, "x", higher_is_better=True
    )
    perf_harness.record(
        "bench_selective",
        "full_decode_s",
        full_s,
        "s",
        higher_is_better=False,
    )
    emit(
        "Selective vs full decode (3-level Nyx)",
        [
            Row("full", n_patches, full_s, 1.0),
            Row("selective(1 patch)", 1, sel_s, speedup),
        ],
    )
    assert len(selective) == 1
    assert speedup >= MIN_SELECTIVE_SPEEDUP, f"selective decode only {speedup:.1f}x faster than full"


def test_selective_matches_full(three_level, container_bytes):
    """Randomly accessed patches are byte-for-byte the full-decode arrays."""
    full = decompress_selection(container_bytes)
    key = (2, "baryon_density", 0)
    one = decompress_selection(container_bytes, levels=2, patches=0)
    assert np.array_equal(one[key], full[key])


def test_per_level_extraction(benchmark, container_bytes):
    """Level-granular decode: the dual-cell viz access pattern."""
    out = benchmark(lambda: decompress_selection(container_bytes, levels=1))
    assert out and all(k[0] == 1 for k in out)


# ----------------------------------------------------------------------
# Grouped containers (runs of patches): random access must stay O(selection)
# ----------------------------------------------------------------------
class _CountingFile(io.BytesIO):
    """Seekable file wrapper that counts the bytes actually read."""

    def __init__(self, raw: bytes):
        super().__init__(raw)
        self.bytes_read = 0

    def read(self, size=-1):
        out = super().read(size)
        self.bytes_read += len(out)
        return out


@pytest.fixture(scope="module")
def grouped_bytes():
    """Grouped container over a many-small-patch level: 64 patches of 16^3,
    four runs of sixteen, each run one group (a shared codebook +
    per-patch extents). ``batch="level"`` writes the default's bytes."""
    from repro.amr.box import Box
    from repro.amr.boxarray import BoxArray
    from repro.amr.hierarchy import AMRHierarchy
    from repro.amr.level import AMRLevel
    from repro.amr.patch import Patch

    rng = np.random.default_rng(11)
    ps, grid = 16, (4, 4, 4)
    boxes, patches = [], []
    for i in range(grid[0]):
        for j in range(grid[1]):
            for k in range(grid[2]):
                box = Box.from_shape((ps,) * 3, lo=(i * ps, j * ps, k * ps))
                boxes.append(box)
                patches.append(Patch(box, rng.standard_normal((ps,) * 3)))
    level = AMRLevel(0, BoxArray(boxes), (1.0,) * 3, {"density": patches})
    h = AMRHierarchy(Box.from_shape(tuple(g * ps for g in grid)), [level], 2)
    return compress_hierarchy(
        h, "sz-lr", 1e-3, fields=["density"], batch="level"
    ).tobytes()


#: Ceiling on what a lone grouped patch may cost, in units of one patch's
#: share of a full decode; derived in benchmarks/baselines/BENCH_bench_selective.json.
MAX_ONE_PATCH_COST = 43.0


def test_grouped_one_patch_cost(benchmark, grouped_bytes):
    """What random access into a shared-codebook group costs: the latency of
    one patch against one patch's *share* of a full decode (full-decode time
    / its 64 patches). A full decode is one lockstep pass over all members (PR 21), so
    its per-patch share is tiny and a lone patch — open, index, group
    header, codebook, one scalar decode — costs a dozen of them; decoding
    the patch's whole group (a run of 16) would add 16 more. That reads
    are O(selection)
    in *bytes* is pinned by ``grouped_one_patch_read_fraction`` below."""
    n_patches = len(decompress_selection(grouped_bytes))
    full_s = _best_of(lambda: decompress_selection(grouped_bytes))
    selective = benchmark(lambda: decompress_selection(grouped_bytes, patches=0))
    sel_s = _best_of(lambda: decompress_selection(grouped_bytes, patches=0))
    cost = sel_s / (full_s / n_patches)
    perf_harness.record(
        "bench_selective", "grouped_one_patch_cost_patches", cost, "patches",
        higher_is_better=False,
    )
    assert len(selective) == 1
    assert cost <= MAX_ONE_PATCH_COST, (
        f"one grouped patch costs {cost:.1f} patches' share of a full decode "
        f"({sel_s * 1e3:.2f} ms against {full_s * 1e3:.2f} ms / {n_patches})"
    )


def test_grouped_selection_byte_accounting(grouped_bytes):
    """Acceptance criterion: one-patch selection on a grouped container
    reads O(selection) payload bytes — footer + index + group *header*
    (codebook + extents) + one stream + one payload extent — never the
    other members' payloads."""
    counter = _CountingFile(grouped_bytes)
    out = decompress_selection(counter, patches=0)
    assert len(out) == 1
    fraction = counter.bytes_read / len(grouped_bytes)
    perf_harness.record(
        "bench_selective", "grouped_one_patch_read_fraction", fraction, "frac",
        higher_is_better=False,
    )
    # 1 of 64 patches: allow index + group header + slack, but reading a
    # quarter of the file would mean payload extents are not being used.
    assert fraction < 0.25, (
        f"one-patch selection read {fraction:.1%} of a 64-patch grouped "
        "container — random access is no longer O(selection)"
    )
    full_counter = _CountingFile(grouped_bytes)
    decompress_selection(full_counter)
    assert counter.bytes_read < full_counter.bytes_read / 4


def test_grouped_selection_matches_full(grouped_bytes):
    full = decompress_selection(grouped_bytes)
    one = decompress_selection(grouped_bytes, patches=3)
    key = (0, "density", 3)
    assert np.array_equal(one[key], full[key])
