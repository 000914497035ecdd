"""Parallel execution: an ordered map and a persistent worker pool."""

from repro.parallel.pool import EXECUTION_MODES, WorkerPool, parallel_map

__all__ = ["WorkerPool", "parallel_map", "EXECUTION_MODES"]
