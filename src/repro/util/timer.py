"""Lightweight wall-clock timing helpers for throughput reporting.

The compression benchmarks report per-stage throughput (prediction,
quantization, entropy coding); :class:`StageTimes` accumulates named stages
so codecs can expose a breakdown without depending on a profiler.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

__all__ = ["StageTimes"]


@dataclass
class StageTimes:
    """Accumulator of named stage durations (seconds)."""

    stages: dict[str, float] = field(default_factory=dict)

    def add(self, name: str, seconds: float) -> None:
        """Accumulate ``seconds`` into stage ``name``."""
        self.stages[name] = self.stages.get(name, 0.0) + float(seconds)

    def measure(self, name: str) -> "_StageContext":
        """Return a context manager that times a block into stage ``name``."""
        return _StageContext(self, name)


class _StageContext:
    def __init__(self, times: StageTimes, name: str) -> None:
        self._times = times
        self._name = name
        self._start = 0.0

    def __enter__(self) -> "_StageContext":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        self._times.add(self._name, time.perf_counter() - self._start)
