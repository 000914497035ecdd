"""Shared performance-artifact harness for the benchmark suite.

Every ``bench_*.py`` module can turn its measurements into a committed,
machine-comparable artifact: call :func:`record` with named metrics
(throughput MB/s, speedup ratios, peak RSS, ...) and, when the
``REPRO_BENCH_JSON`` environment variable names a directory, the pytest
session hook in ``benchmarks/conftest.py`` writes one
``BENCH_<module>.json`` per recording module at exit. Those artifacts are
what ``tools/bench_compare.py`` diffs against the committed baselines in
``benchmarks/baselines/`` to gate >20% regressions in CI (the
``perf-smoke`` job).

Artifact schema (one file per benchmark module)::

    {
      "bench": "bench_entropy",
      "scale": 0.5,                      # REPRO_BENCH_SCALE at run time
      "peak_rss_mb": 312.4,              # process high-water mark at flush
      "metrics": {
        "decode_speedup_nyx_like": {
          "value": 19.2, "unit": "x", "higher_is_better": true,
          "tolerance": 0.2               # optional per-metric override
        },
        ...
      }
    }

Ratio metrics (speedups) travel across machines; absolute throughputs are
machine-dependent, so the committed baselines track ratios and treat
fresh absolute numbers as informational (``bench_compare`` only gates
metrics present in the baseline file).
"""

from __future__ import annotations

import os
import sys
from pathlib import Path
from typing import Any

from repro.experiments.registry import validate_artifact, write_artifact

__all__ = [
    "record",
    "peak_rss_mb",
    "json_dir",
    "flush",
    "session_flush",
    "metric_count",
]

#: Environment variable naming the directory BENCH_<name>.json files go to.
ENV_JSON_DIR = "REPRO_BENCH_JSON"

#: bench name -> metric name -> metric record.
_METRICS: dict[str, dict[str, dict[str, Any]]] = {}


def record(
    bench: str,
    metric: str,
    value: float,
    unit: str,
    higher_is_better: bool = True,
    tolerance: float | None = None,
) -> None:
    """Record one named measurement for the ``BENCH_<bench>.json`` artifact.

    Parameters
    ----------
    bench:
        Benchmark module name without extension (``"bench_entropy"``).
    metric:
        Stable metric key; baselines match on it, so renaming a metric
        resets its regression tracking.
    value, unit:
        The measurement and its unit (``"MB/s"``, ``"x"``, ``"MB"``).
    higher_is_better:
        Direction of goodness — throughput/speedup up, RSS/latency down.
    tolerance:
        Optional per-metric regression tolerance overriding
        ``bench_compare``'s default (fraction, e.g. ``0.2`` = 20%); checked
        here against the artifact schema (``validate_artifact``), so a bad
        value fails at the line that wrote it.
    """
    entry: dict[str, Any] = {
        "value": float(value),
        "unit": str(unit),
        "higher_is_better": bool(higher_is_better),
    }
    if tolerance is not None:
        entry["tolerance"] = tolerance
        validate_artifact({"bench": bench, "scale": 0.0, "metrics": {metric: entry}})
        entry["tolerance"] = float(tolerance)
    _METRICS.setdefault(bench, {})[metric] = entry


def metric_count(bench: str | None = None) -> int:
    """Number of metrics recorded so far (for one bench or all)."""
    if bench is not None:
        return len(_METRICS.get(bench, {}))
    return sum(len(m) for m in _METRICS.values())


def peak_rss_mb() -> float | None:
    """Process peak resident set size in MB, or ``None`` off-POSIX.

    ``ru_maxrss`` is kilobytes on Linux and bytes on macOS; normalize both.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - linux CI
        return peak / (1024 * 1024)
    return peak / 1024


def json_dir() -> Path | None:
    """Artifact output directory, or ``None`` when JSON emission is off."""
    value = os.environ.get(ENV_JSON_DIR, "").strip()
    return Path(value) if value else None


def flush() -> list[Path]:
    """Write one ``BENCH_<name>.json`` per recording module and reset.

    No-op (still resets) when :data:`ENV_JSON_DIR` is unset, so benchmark
    runs without the variable behave exactly as before. Returns the paths
    written. Called (through :func:`session_flush`) by the
    ``pytest_sessionfinish`` hook in ``benchmarks/conftest.py``.
    """
    out_dir = json_dir()
    written: list[Path] = []
    try:
        if out_dir is None:
            return written
        rss = peak_rss_mb()
        scale = float(os.environ.get("REPRO_BENCH_SCALE", "0.5"))
        for bench, metrics in sorted(_METRICS.items()):
            written.append(write_artifact(out_dir, bench, metrics, scale, peak_rss=rss))
    finally:
        _METRICS.clear()
    return written


def session_flush() -> None:
    """The whole ``pytest_sessionfinish`` body: flush and report paths.

    Lives here (not in ``benchmarks/conftest.py``) so the system benches
    and the registry runner share one artifact writer and one report
    format.
    """
    for path in flush():
        print(f"\nwrote {path}")
