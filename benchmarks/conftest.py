"""Benchmark fixtures.

Benchmarks regenerate the paper's tables/figures while timing the dominant
computation. Grid scale comes from ``REPRO_BENCH_SCALE`` (default 0.5 — a
quarter of the default reproduction size per dimension) so the suite runs
in minutes on one core; raise it to approach paper-sized grids.

Setting ``REPRO_BENCH_JSON=<dir>`` makes any benchmark that records
metrics through ``perf_harness`` emit a ``BENCH_<module>.json`` artifact
at session end (see ``benchmarks/perf_harness.py`` and
``tools/bench_compare.py``).
"""

from __future__ import annotations

import os

import numpy as np
import pytest

import perf_harness
from repro.experiments.datasets import load_app


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


@pytest.fixture(scope="session")
def scale() -> float:
    return bench_scale()


@pytest.fixture(scope="session")
def warpx(scale):
    """The WarpX dataset at benchmark scale (session-cached)."""
    return load_app("warpx", scale)


@pytest.fixture(scope="session")
def nyx(scale):
    """The Nyx dataset at benchmark scale (session-cached)."""
    return load_app("nyx", scale)


def once(benchmark, fn, *args, **kwargs):
    """Run ``fn`` once under the benchmark timer (expensive end-to-end runs)."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


def registry_entry(benchmark, name: str, scale: float):
    """Run one registry experiment under the benchmark timer.

    The body of ``bench_registry.py``'s one test per entry: executes the
    entry (its paper-shape checks raise on violation) and records its
    declared metrics so the session hook emits ``BENCH_<name>.json``.
    """
    from repro.experiments.registry import run_experiment

    result = once(benchmark, run_experiment, name, scale=scale)
    for metric, entry in result.metrics.items():
        perf_harness.record(
            name,
            metric,
            entry["value"],
            entry["unit"],
            higher_is_better=entry["higher_is_better"],
            tolerance=entry.get("tolerance"),
        )
    return result


def emit(title: str, rows) -> None:
    """Print a result table below the benchmark output."""
    from repro.experiments.report import format_table

    print()
    print(format_table(rows, title=title))
