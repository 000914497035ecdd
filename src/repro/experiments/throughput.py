"""Hierarchy (de)compression throughput across execution modes.

The paper argues (§3.3) that per-patch independence turns AMR compression
into an embarrassingly parallel map. This experiment measures that claim
end to end on the synthetic app datasets: wall-clock compress/decompress
time and MB/s for the serial, thread (one background lane) and process
executors, plus the speedup over serial, and the cost of a *selective*
single-patch decode — the access pattern the indexed container exists for.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

from repro.compression.amr_codec import (
    compress_hierarchy,
    decompress_hierarchy,
    decompress_selection,
)
from repro.experiments.datasets import load_app
from repro.parallel.pool import EXECUTION_MODES, WorkerPool

__all__ = ["ThroughputRow", "run_throughput"]


@dataclass(frozen=True)
class ThroughputRow:
    """One (app, execution mode) throughput measurement."""

    app: str
    mode: str
    #: tasks the mode's pool could run at once (1 for serial and thread).
    workers: int
    compress_s: float
    decompress_s: float
    compress_mb_s: float
    decompress_mb_s: float
    #: compress-path speedup over the serial run of the same app
    #: (NaN when the sweep includes no preceding serial baseline).
    speedup: float
    #: wall-clock to selectively decode one patch from the container bytes.
    selective_s: float


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


def run_throughput(
    scale: float = 0.5,
    apps: Sequence[str] = ("nyx",),
    codec: str = "sz-lr",
    error_bound: float = 1e-3,
    modes: Sequence[str] = EXECUTION_MODES,
    workers: int | None = None,
) -> list[ThroughputRow]:
    """Measure container (de)compression throughput per execution mode."""
    rows: list[ThroughputRow] = []
    for app in apps:
        ds = load_app(app, scale)
        mb = ds.hierarchy.nbytes(ds.field) / 1e6
        serial_s: float | None = None
        for mode in modes:
            with WorkerPool(mode, workers) as pool:
                container, comp_s = _timed(
                    compress_hierarchy,
                    ds.hierarchy, codec, error_bound, mode="rel", fields=[ds.field],
                    pool=pool,
                )
                _, dec_s = _timed(decompress_hierarchy, container, ds.hierarchy, pool=pool)
            raw = container.tobytes()
            _, sel_s = _timed(
                decompress_selection,
                raw,
                levels=len(container.streams) - 1,
                fields=ds.field,
                patches=0,
            )
            if mode == "serial":
                serial_s = comp_s
            rows.append(
                ThroughputRow(
                    app=app,
                    mode=mode,
                    workers=pool.workers,
                    compress_s=comp_s,
                    decompress_s=dec_s,
                    compress_mb_s=mb / comp_s,
                    decompress_mb_s=mb / dec_s,
                    speedup=(serial_s / comp_s) if serial_s is not None else float("nan"),
                    selective_s=sel_s,
                )
            )
    return rows
