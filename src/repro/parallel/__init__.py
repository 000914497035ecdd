"""Parallel execution: a persistent worker pool."""

from repro.parallel.pool import EXECUTION_MODES, WorkerPool

__all__ = ["WorkerPool", "EXECUTION_MODES"]
