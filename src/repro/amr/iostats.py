"""Storage / I/O cost model (the paper's introductory motivation).

The paper opens with the arithmetic that motivates everything else: a
4096³-resolution AMR run produces ~8 TB per snapshot with all fields
dumped, i.e. ~1 PB for a five-member ensemble with 25 snapshots each.
This module reproduces that bookkeeping for any hierarchy and projects the
effect of a compression ratio on storage and write time.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.amr.hierarchy import AMRHierarchy
from repro.errors import ReproError

__all__ = ["CampaignCost", "snapshot_bytes", "campaign_cost"]


def snapshot_bytes(hierarchy: AMRHierarchy, bytes_per_value: int = 8) -> int:
    """Raw size of one snapshot (all fields, all levels)."""
    if bytes_per_value <= 0:
        raise ReproError("bytes_per_value must be positive")
    return hierarchy.stored_cells() * len(hierarchy.field_names) * bytes_per_value


@dataclass(frozen=True)
class CampaignCost:
    """Projected storage/IO cost of a simulation campaign."""

    snapshot_bytes: int
    snapshots: int
    ensemble: int
    compression_ratio: float
    bandwidth_gbps: float

    @property
    def total_raw_bytes(self) -> int:
        """Uncompressed campaign volume."""
        return self.snapshot_bytes * self.snapshots * self.ensemble

    @property
    def total_compressed_bytes(self) -> float:
        """Campaign volume after compression."""
        return self.total_raw_bytes / self.compression_ratio

    @property
    def raw_write_seconds(self) -> float:
        """Time to write the raw campaign at the given bandwidth."""
        return self.total_raw_bytes / (self.bandwidth_gbps * 1e9)

    @property
    def compressed_write_seconds(self) -> float:
        """Time to write the compressed campaign (ignoring codec time —
        in-situ codecs overlap compute, the AMRIC argument)."""
        return self.total_compressed_bytes / (self.bandwidth_gbps * 1e9)


def campaign_cost(
    hierarchy: AMRHierarchy,
    compression_ratio: float = 1.0,
    snapshots: int = 25,
    ensemble: int = 5,
    bandwidth_gbps: float = 10.0,
    bytes_per_value: int = 8,
) -> CampaignCost:
    """Project campaign cost for ``hierarchy`` (paper defaults: 25 dumps ×
    5 ensemble members, the §1 example)."""
    if compression_ratio <= 0:
        raise ReproError("compression_ratio must be positive")
    if snapshots <= 0 or ensemble <= 0:
        raise ReproError("snapshots and ensemble must be positive")
    if bandwidth_gbps <= 0:
        raise ReproError("bandwidth_gbps must be positive")
    return CampaignCost(
        snapshot_bytes=snapshot_bytes(hierarchy, bytes_per_value),
        snapshots=snapshots,
        ensemble=ensemble,
        compression_ratio=compression_ratio,
        bandwidth_gbps=bandwidth_gbps,
    )
