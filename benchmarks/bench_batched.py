"""Runs of patches must compress >= 1.4x faster than a one-at-a-time loop.

The paper's workload shape is many small patches (8^3-32^3 at blocking
factors 4/8), where per-stream fixed costs — the pure-Python Huffman tree
build, per-call NumPy dispatch on tiny arrays, per-stream codebook bytes —
dominate the per-patch path. ``compress_hierarchy`` cuts each (level,
field) into runs of patches (64 k cells a run: sixteen 16^3 patches here),
runs prediction + quantization as one kernel pass per run and pools the
quantization codes under one shared canonical Huffman codebook, so those
costs are paid per *run*.

This benchmark builds the mandated many-small-patch hierarchy (256
patches of 16^3), measures the per-patch path — an explicit one-at-a-time
``SZLR.compress`` loop, what ``compress_hierarchy`` was before it stacked
runs of patches — against ``compress_hierarchy``, and **asserts the run
path is >= 1.4x faster**, gated in CI against the committed baseline in
``benchmarks/baselines/BENCH_bench_batched.json``. ``batched_speedup``
times ``batch="level"`` and ``stacked_speedup`` the default
``batch="patch"``: since the level-batched path was deleted both are the
same call writing the same bytes, so the two metrics read the same ratio
up to noise (the duplicate is kept until the next benchmark change).

What the ratio divides by matters more than what it measures: nothing in
the system runs the one-at-a-time loop any more, and every improvement to
the per-stream code it exercises (the int-keyed tree build, the one
byte-accumulation bit-packer, the two-queue tree build) *lowers* the
ratio on an unchanged run path — it was >= 3x while each patch still
paid a 16-pass bit scatter. The floor is re-derived whenever that happens:
0.8 x the lowest of ten runs alone and ten in the ``perf-smoke`` session
order on the 2-core box, rounded down to one decimal; the runs are listed
in the baseline's comment. ``batched_throughput`` is the run path's own
MB/s.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import pytest
from conftest import emit

import perf_harness

from repro.amr.box import Box
from repro.amr.boxarray import BoxArray
from repro.amr.hierarchy import AMRHierarchy
from repro.amr.level import AMRLevel
from repro.amr.patch import Patch
from repro.compression.amr_codec import compress_hierarchy, resolve_patch_codec

#: The acceptance floor: fused level batching vs the one-at-a-time loop.
MIN_SPEEDUP = 1.4

#: Mandated workload shape: >= 256 patches of 16^3.
PATCH_EDGE = 16
PATCH_GRID = (8, 8, 4)  # 256 patches


@dataclass(frozen=True)
class Row:
    path: str
    seconds: float
    mb_per_s: float
    ratio: float
    speedup: float


def _best_of(fn, repeats: int = 5) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


@pytest.fixture(scope="module")
def many_small_patches() -> AMRHierarchy:
    """256 patches of 16^3: a smooth field plus turbulence-like noise, so
    per-patch quantization-code alphabets have realistic (hundreds of
    symbols) sizes rather than toy ones."""
    rng = np.random.default_rng(7)
    nx, ny, nz = PATCH_GRID
    ps = PATCH_EDGE
    grids = np.meshgrid(*[np.linspace(0.0, 1.0, ps)] * 3, indexing="ij")
    base = np.sin(6 * grids[0]) * np.cos(5 * grids[1]) + grids[2] ** 2
    boxes, patches = [], []
    for i in range(nx):
        for j in range(ny):
            for k in range(nz):
                box = Box.from_shape((ps,) * 3, lo=(i * ps, j * ps, k * ps))
                boxes.append(box)
                data = base + 0.1 * rng.standard_normal((ps,) * 3) + 0.1 * (i + j + k)
                patches.append(Patch(box, data))
    level = AMRLevel(0, BoxArray(boxes), (1.0,) * 3, {"density": patches})
    domain = Box.from_shape((nx * ps, ny * ps, nz * ps))
    return AMRHierarchy(domain, [level], 2)


def test_batched_compression_speedup(benchmark, many_small_patches):
    """End-to-end compress_hierarchy (its runs of patches) >= MIN_SPEEDUP x
    the one-at-a-time loop on 256 x 16^3 patches."""
    h = many_small_patches
    n_patches = len(h[0].boxes)
    assert n_patches >= 256 and h[0].boxes[0].shape == (16, 16, 16)
    mb = h.nbytes("density") / 1e6

    per_patch = compress_hierarchy(h, "sz-lr", 1e-3, fields=["density"])
    batched = compress_hierarchy(h, "sz-lr", 1e-3, fields=["density"], batch="level")
    assert batched.group_entries, "runs of patches must produce shared-codebook groups"

    codec = resolve_patch_codec("sz-lr")
    arrays = [p.data for p in h[0].patches("density")]
    one_at_a_time = lambda: [codec.compress(a, 1e-3, "rel") for a in arrays]
    alone = [codec.decompress(blob) for blob in one_at_a_time()]
    stacked = per_patch.select()
    assert all(np.array_equal(stacked[e.key], want) for e, want in zip(per_patch.entries, alone)), (
        "stacking changed decoded values"
    )

    per_s = _best_of(one_at_a_time)
    stacked_s = _best_of(lambda: compress_hierarchy(h, "sz-lr", 1e-3, fields=["density"]))
    benchmark(
        lambda: compress_hierarchy(h, "sz-lr", 1e-3, fields=["density"], batch="level")
    )
    bat_s = _best_of(
        lambda: compress_hierarchy(h, "sz-lr", 1e-3, fields=["density"], batch="level")
    )
    speedup = per_s / bat_s

    perf_harness.record(
        "bench_batched", "stacked_speedup", per_s / stacked_s, "x",
        higher_is_better=True, tolerance=0.35,
    )
    perf_harness.record(
        "bench_batched", "batched_speedup", speedup, "x",
        higher_is_better=True, tolerance=0.25,
    )
    perf_harness.record(
        "bench_batched", "batched_throughput", mb / bat_s, "MB/s", higher_is_better=True
    )
    perf_harness.record(
        "bench_batched", "per_patch_throughput", mb / per_s, "MB/s",
        higher_is_better=True,
    )
    perf_harness.record(
        "bench_batched", "grouped_ratio", batched.ratio, "x", higher_is_better=True,
        tolerance=0.05,
    )
    emit(
        f"Runs of patches vs per-patch compression ({n_patches} x 16^3 patches)",
        [
            Row("per-patch loop", per_s, mb / per_s, per_patch.ratio, 1.0),
            Row("batch=patch", stacked_s, mb / stacked_s, per_patch.ratio, per_s / stacked_s),
            Row("batch=level", bat_s, mb / bat_s, batched.ratio, speedup),
        ],
    )
    assert speedup >= MIN_SPEEDUP, (
        f"runs of patches only {speedup:.2f}x faster than per-patch "
        f"(need >= {MIN_SPEEDUP}x)"
    )


def test_batched_ratio_not_worse(many_small_patches):
    """Shared codebooks trade per-patch-optimal trees for shared ones but
    drop per-stream codebook bytes; net ratio must not regress."""
    h = many_small_patches
    per_patch = compress_hierarchy(h, "sz-lr", 1e-3, fields=["density"])
    batched = compress_hierarchy(h, "sz-lr", 1e-3, fields=["density"], batch="level")
    assert batched.ratio >= 0.98 * per_patch.ratio


def test_batched_output_valid(many_small_patches):
    """The run path's output obeys the error bound patch by patch."""
    h = many_small_patches
    batched = compress_hierarchy(h, "sz-lr", 1e-3, fields=["density"], batch="level")
    decoded = batched.select(patches=[0, 100, 255])
    for (lev, field, p_idx), arr in decoded.items():
        data = h[lev].patches(field)[p_idx].data
        eb = 1e-3 * (data.max() - data.min())
        assert np.abs(arr - data).max() <= eb * (1 + 1e-12)
