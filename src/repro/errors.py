"""Exception hierarchy for the :mod:`repro` package.

All library-raised exceptions derive from :class:`ReproError` so that callers
can catch everything from this package with a single ``except`` clause while
still being able to distinguish the failure domain.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "BoxError",
    "HierarchyError",
    "CompressionError",
    "DecompressionError",
    "FormatError",
    "TruncatedSeriesError",
    "IntegrityError",
    "StorageError",
    "TransientStorageError",
    "CircuitOpenError",
    "ServeError",
    "DeadlineExceeded",
    "Overloaded",
    "VisualizationError",
    "MetricError",
    "ExperimentError",
]


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class BoxError(ReproError):
    """Invalid index-space box operation (empty box, dim mismatch, ...)."""


class HierarchyError(ReproError):
    """Inconsistent AMR hierarchy (nesting violation, bad refinement ratio)."""


class CompressionError(ReproError):
    """Failure while compressing data (bad parameters, unsupported dtype)."""


class DecompressionError(ReproError):
    """Failure while decompressing a stream (corruption, truncation)."""


class FormatError(ReproError):
    """Malformed on-disk or in-memory container (plotfile, codec stream)."""


class TruncatedSeriesError(FormatError):
    """An RPH2S series whose footer or timestep index is missing or damaged
    — the signature of an interrupted write. Sealed segments are usually
    salvageable: open with ``SeriesReader.open(..., recover=True)`` or run
    ``python -m repro.compression recover``."""


class IntegrityError(FormatError):
    """Damage that parity-based repair cannot undo: more lost members than
    the parity scheme covers, or reconstructed bytes that fail their
    recorded checksum. Scrub findings themselves are *reported*, not
    raised — this error marks the repair path giving up."""


class StorageError(ReproError):
    """Failure in a :mod:`repro.storage` byte backend (missing object,
    exhausted retries, backend-specific I/O fault)."""


class TransientStorageError(StorageError):
    """A retryable backend fault (timeout, throttle, connection reset).
    :class:`repro.storage.RangedBackend` retries these with backoff before
    giving up and re-raising."""


class CircuitOpenError(StorageError):
    """A circuit breaker is open for a backend/shard: recent consecutive
    storage faults tripped it, so requests fast-fail for a cooldown
    instead of hammering a dead backend. Retry after the cooldown, or
    query with ``partial=True`` to serve around the dead shard."""


class ServeError(ReproError):
    """Invalid query-service request or configuration (bad selection plan,
    malformed region, use after close). Data-integrity failures on the
    serving path stay :class:`FormatError`; backend faults stay
    :class:`StorageError`."""


class DeadlineExceeded(ServeError):
    """A query's ``deadline=``/``timeout=`` expired before it completed.
    The query's outstanding I/O is cancelled; the service's cache and
    single-flight table stay clean, so an immediate retry is safe."""


class Overloaded(ServeError):
    """Load shed by admission control: the service's in-flight budget and
    wait queue are both full. ``retry_after`` (seconds, or ``None``) is
    the server's estimate of when capacity frees up."""

    # kept: carries retry_after to a shed client (admission control under overload)
    def __init__(self, message: str, retry_after: float | None = None):
        super().__init__(message)
        self.retry_after = retry_after


class VisualizationError(ReproError):
    """Failure in the iso-surface / rendering pipeline."""


class MetricError(ReproError):
    """Invalid metric computation request (shape mismatch, empty input)."""


class ExperimentError(ReproError):
    """Failure while running a paper experiment."""
