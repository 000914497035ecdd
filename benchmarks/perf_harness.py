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

import json
import os
import sys
from pathlib import Path
from typing import Any, Mapping

__all__ = [
    "record",
    "peak_rss_mb",
    "json_dir",
    "flush",
    "session_flush",
    "metric_count",
    "write_artifact",
    "validate_artifact",
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
        here (:func:`_check_tolerance`), so a bad value fails at the line
        that wrote it.
    """
    entry: dict[str, Any] = {
        "value": float(value),
        "unit": str(unit),
        "higher_is_better": bool(higher_is_better),
    }
    if tolerance is not None:
        _check_tolerance(metric, tolerance, entry["higher_is_better"])
        entry["tolerance"] = float(tolerance)
    _METRICS.setdefault(bench, {})[metric] = entry


def _check_tolerance(metric: str, tolerance: Any, higher_is_better: bool) -> None:
    """Raise ``ValueError`` unless ``tolerance`` is a usable regression
    allowance: a finite fraction > 0, and <= 1 when higher is better — a
    throughput cannot fall by more than all of itself, while a latency can
    regress to several times its baseline."""
    limit = 1.0 if higher_is_better else sys.float_info.max
    if (
        not isinstance(tolerance, (int, float))
        or isinstance(tolerance, bool)
        or not 0 < tolerance <= limit  # false for NaN
    ):
        raise ValueError(
            f"metric {metric!r} 'tolerance' must be in (0, 1] when higher is "
            f"better, positive and finite otherwise; got {tolerance!r}"
        )


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


def write_artifact(
    out_dir: Path,
    bench: str,
    metrics: Mapping[str, Mapping[str, Any]],
    scale: float,
    peak_rss: float | None = None,
) -> Path:
    """Write one ``BENCH_<bench>.json`` artifact and return its path.

    The single artifact writer shared by the pytest session hook
    (:func:`flush`) and the registry runner
    (``repro.experiments.registry``): both producers emit byte-identical
    documents for the same inputs. ``peak_rss`` is an optional,
    machine-volatile annotation — registry runs omit it so their
    artifacts stay deterministic and byte-comparable against committed
    baselines (the ``bench-registry-consistency`` CI check).
    """
    doc: dict[str, Any] = {
        "bench": bench,
        "scale": float(scale),
        "metrics": {k: dict(v) for k, v in metrics.items()},
    }
    if peak_rss is not None:
        doc["peak_rss_mb"] = peak_rss
    validate_artifact(doc)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"BENCH_{bench}.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


def validate_artifact(doc: Mapping[str, Any]) -> None:
    """Raise ``ValueError`` unless ``doc`` matches the artifact schema.

    Schema: ``bench`` (str), ``scale`` (number), ``metrics`` (mapping of
    metric name -> record with numeric ``value``, str ``unit``, bool
    ``higher_is_better``, and optional ``tolerance`` > 0, at most 1 when
    higher is better — :func:`_check_tolerance`); ``peak_rss_mb`` is
    optional and may be null.
    """
    if not isinstance(doc.get("bench"), str) or not doc["bench"]:
        raise ValueError("artifact 'bench' must be a non-empty string")
    if not isinstance(doc.get("scale"), (int, float)) or isinstance(doc.get("scale"), bool):
        raise ValueError("artifact 'scale' must be a number")
    metrics = doc.get("metrics")
    if not isinstance(metrics, Mapping) or not metrics:
        raise ValueError("artifact 'metrics' must be a non-empty mapping")
    for name, entry in metrics.items():
        if not isinstance(name, str) or not name:
            raise ValueError("metric names must be non-empty strings")
        if not isinstance(entry, Mapping):
            raise ValueError(f"metric {name!r} record must be a mapping")
        value = entry.get("value")
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ValueError(f"metric {name!r} 'value' must be a number")
        if not isinstance(entry.get("unit"), str):
            raise ValueError(f"metric {name!r} 'unit' must be a string")
        if not isinstance(entry.get("higher_is_better"), bool):
            raise ValueError(f"metric {name!r} 'higher_is_better' must be a bool")
        if "tolerance" in entry:
            _check_tolerance(name, entry["tolerance"], entry["higher_is_better"])
        unknown = set(entry) - {"value", "unit", "higher_is_better", "tolerance"}
        if unknown:
            raise ValueError(f"metric {name!r} has unknown keys {sorted(unknown)}")


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

    Lives here (not in ``benchmarks/conftest.py``) so the legacy pytest
    benches and the registry runner share one artifact writer and one
    report format.
    """
    for path in flush():
        print(f"\nwrote {path}")
