"""In-situ streaming compression: the RPH2S time-series container.

The batch path (:mod:`repro.compression.amr_codec`) compresses one fully
materialized hierarchy; this subsystem compresses a *campaign* as the
solver produces it, timestep after timestep, with bounded memory:

* :class:`~repro.insitu.writer.StreamingWriter` — accepts patches/levels
  incrementally and appends each step as a self-contained RPH2 segment,
  written by the same :class:`~repro.compression.amr_codec.SegmentWriter`
  as a snapshot (compression pipelined through the :mod:`repro.parallel`
  pool);
* :class:`~repro.insitu.series.SeriesReader` — footer-located timestep
  index giving ``(step, level, field, patch)`` random access that reads
  O(selection) bytes;
* :mod:`~repro.insitu.sharded` — multi-writer campaigns: a
  :class:`~repro.insitu.sharded.ShardedSeriesWriter` fans steps across N
  shard files behind a crc-protected RPHM manifest, and
  ``SeriesReader.open`` on the manifest reads the union transparently;
* :mod:`~repro.insitu.recovery` — crash recovery for interrupted writes:
  every finished step is sealed on disk before the writer advances, so a
  killed campaign loses at most the step in flight
  (``SeriesReader.open(..., recover=True)``, :func:`recover_series`, and
  the CLI ``recover`` verb rebuild the timestep index from the seals).

High-level helpers live in :mod:`repro.amr.io` (``write_series`` /
``append_step`` / ``open_series`` / ``recover_series``); the format spec
is in ``docs/container_format.md``.
"""

from repro.insitu.recovery import (
    RecoveryReport,
    commit_recovery,
    recover_series,
    scan_segments,
)
from repro.insitu.sharded import (
    MANIFEST_MAGIC,
    ShardedRecoveryReport,
    ShardedSeriesReader,
    ShardedSeriesWriter,
    recover_sharded,
)
from repro.insitu.series import (
    SEAL_MAGIC,
    SEAL_SIZE,
    SERIES_FOOTER_MAGIC,
    SERIES_MAGIC,
    SERIES_VERSION,
    SeriesReader,
    SeriesStepEntry,
)
from repro.insitu.writer import DURABILITY_MODES, StreamingWriter

__all__ = [
    "SERIES_MAGIC",
    "SERIES_FOOTER_MAGIC",
    "SERIES_VERSION",
    "SEAL_MAGIC",
    "SEAL_SIZE",
    "DURABILITY_MODES",
    "SeriesReader",
    "SeriesStepEntry",
    "StreamingWriter",
    "RecoveryReport",
    "scan_segments",
    "recover_series",
    "commit_recovery",
    "MANIFEST_MAGIC",
    "ShardedSeriesWriter",
    "ShardedSeriesReader",
    "ShardedRecoveryReport",
    "recover_sharded",
]
