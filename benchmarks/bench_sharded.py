"""Sharded campaigns: what fanning out costs, and value identity.

Acceptance gates for the sharded RPHM path (ISSUE 6, re-based by ISSUE 23):

* a 4-shard ``parallel="thread"`` campaign must write at **>= MIN_SPEEDUP**
  of the single-writer throughput. The campaign's one background lane
  encodes one step at a time, exactly as the single writer does, so the
  ratio is what four files, four footers, a manifest and a thread
  wake-up per step cost — a little under 1 — whatever the core count,
  and the floor is asserted on every box. It is not a speedup and is not
  meant to be: threads cannot overlap this encode (thousands of
  sub-millisecond NumPy/zlib calls, each releasing the interpreter lock
  into a hand-off; ``docs/performance.md``, "Writer lane");
* the union read of the sharded campaign must be value-identical to the
  single-writer series — sharding changes placement, never bytes' worth
  of data;
* reading one step through the manifest must touch only its owning
  shard.

Metrics land in ``BENCH_bench_sharded.json`` via :mod:`perf_harness`, and
``tools/bench_compare.py`` gates regressions against the committed
baseline (whose comment records how floor and baseline were derived).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from conftest import bench_scale, emit, once

import perf_harness
import repro
from repro.amr.io import write_series, write_sharded_series
from repro.sims import NyxConfig, nyx_step_stream

STEPS = 8
N_SHARDS = 4
FIELD = "baryon_density"
MIN_SPEEDUP = 0.5  # 0.8 x the lowest of twenty runs (0.63); see the baseline's comment


@dataclass(frozen=True)
class Row:
    path: str
    shards: int
    wall_s: float
    mb_s: float
    speedup: float


def _config() -> NyxConfig:
    return NyxConfig(coarse_n=max(8, int(32 * bench_scale())))


def _steps(cfg):
    # Materialized once: both writers must compress identical inputs.
    return [s for s in nyx_step_stream(STEPS, cfg)]


def _best_of(*fns, n=5) -> list[float]:
    """Best wall time of each ``fn`` over ``n`` rounds, the rounds
    interleaved: a slow second on a shared box lands on both sides of the
    ratio instead of on whichever half it happened to cover."""
    best = [float("inf")] * len(fns)
    for _ in range(n):
        for i, fn in enumerate(fns):
            t0 = time.perf_counter()
            fn()
            best[i] = min(best[i], time.perf_counter() - t0)
    return best


def test_sharded_write_throughput_and_identity(benchmark, tmp_path):
    cfg = _config()
    steps = _steps(cfg)
    mb = sum(s.hierarchy.nbytes(FIELD) for s in steps) / 1e6
    single = tmp_path / "single.rph2s"
    manifest = tmp_path / "camp.rphm"

    def write_single():
        write_series(single, steps, codec="sz-lr", error_bound=1e-3,
                     fields=[FIELD], overwrite=True)

    def write_sharded():
        write_sharded_series(manifest, steps, n_shards=N_SHARDS,
                             codec="sz-lr", error_bound=1e-3, fields=[FIELD],
                             parallel="thread", overwrite=True)

    once(benchmark, write_sharded)
    single_s, sharded_s = _best_of(write_single, write_sharded)
    speedup = single_s / sharded_s

    # Sharding must never change data: the union read equals the
    # single-writer read, key for key, bit for bit.
    with repro.open(single) as mono, repro.open(manifest) as sh:
        assert sh.is_sharded and sh.n_shards == N_SHARDS
        assert sh.steps == mono.steps
        ref, got = mono.select(), sh.select()
    assert set(got) == set(ref)
    for key, want in ref.items():
        assert np.array_equal(got[key], want), key

    # Selective read: one step costs one shard, not the campaign.
    shard_bytes = {
        name: Path(name).stat().st_size
        for name in (str(manifest.parent / n.name)
                     for n in manifest.parent.glob("*.shard*.rph2s"))
    }
    with repro.open(manifest) as sh:
        owner = sh.shard_of(3)
        sh.select(steps=3)
    assert owner in shard_bytes

    perf_harness.record(
        "bench_sharded", "sharded_write_speedup_4shard", speedup, "x",
        higher_is_better=True, tolerance=0.25,
    )
    perf_harness.record(
        "bench_sharded", "sharded_write_throughput", mb / sharded_s, "MB/s",
        higher_is_better=True, tolerance=0.5,
    )
    emit(
        f"Sharded vs single-writer campaign write ({STEPS}-step Nyx, "
        f"{N_SHARDS} shards)",
        [
            Row("single", 1, single_s, mb / single_s, 1.0),
            Row("sharded", N_SHARDS, sharded_s, mb / sharded_s, speedup),
        ],
    )
    assert speedup >= MIN_SPEEDUP, (
        f"4-shard write only {speedup:.2f}x the single writer "
        f"(need >= {MIN_SPEEDUP}x)"
    )
