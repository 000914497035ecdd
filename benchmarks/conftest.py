"""Benchmark fixtures.

The system benchmarks time one path of the library (entropy decode,
selective decode, batched encode, sharded write, in-situ streaming, serve,
repair) and gate a machine-portable ratio. Grid scale comes from
``REPRO_BENCH_SCALE`` (default 0.5) so the suite runs in minutes on one
core. The paper's figures and tables are not benchmarks here: they run
through the experiment registry (``python -m repro.experiments run``).

Setting ``REPRO_BENCH_JSON=<dir>`` makes any benchmark that records
metrics through ``perf_harness`` emit a ``BENCH_<module>.json`` artifact
at session end (see ``benchmarks/perf_harness.py`` and
``tools/bench_compare.py``).
"""

from __future__ import annotations

import os

import perf_harness


def pytest_sessionfinish(session, exitstatus):
    """Flush recorded perf metrics to ``BENCH_<name>.json`` artifacts.

    The flush-and-report body lives in ``perf_harness.session_flush`` so
    the registry runner (``repro.experiments.registry``) and this hook
    share one artifact writer.
    """
    perf_harness.session_flush()


def bench_scale() -> float:
    """Grid-size multiplier for the benchmark suite."""
    return float(os.environ.get("REPRO_BENCH_SCALE", "0.5"))


def once(benchmark, fn, *args, **kwargs):
    """Run ``fn`` once under the benchmark timer (expensive end-to-end runs)."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


def emit(title: str, rows) -> None:
    """Print a result table below the benchmark output."""
    from repro.experiments.report import format_table

    print()
    print(format_table(rows, title=title))
