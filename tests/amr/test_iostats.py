"""Tests for the storage / I/O cost model."""

from __future__ import annotations

import pytest

from repro.amr import campaign_cost, snapshot_bytes
from repro.errors import ReproError

from tests.conftest import make_sphere_hierarchy


class TestSnapshotBytes:
    def test_counts_all_levels_and_fields(self):
        h = make_sphere_hierarchy(8)
        expect = h.stored_cells() * 1 * 8  # one field, float64
        assert snapshot_bytes(h) == expect

    def test_bytes_per_value(self):
        h = make_sphere_hierarchy(8)
        assert snapshot_bytes(h, bytes_per_value=4) == snapshot_bytes(h) // 2

    def test_bad_bytes_rejected(self):
        with pytest.raises(ReproError):
            snapshot_bytes(make_sphere_hierarchy(8), 0)


class TestCampaignCost:
    def test_paper_arithmetic_shape(self):
        # The paper's example: 25 snapshots x 5 runs turns one snapshot
        # into ~125x the storage.
        h = make_sphere_hierarchy(8)
        cost = campaign_cost(h, compression_ratio=1.0)
        assert cost.total_raw_bytes == snapshot_bytes(h) * 125

    def test_compression_scales_storage(self):
        h = make_sphere_hierarchy(8)
        plain = campaign_cost(h, compression_ratio=1.0)
        comp = campaign_cost(h, compression_ratio=40.0)
        assert comp.total_compressed_bytes == pytest.approx(plain.total_raw_bytes / 40.0)

    def test_write_time_scales_with_bandwidth(self):
        h = make_sphere_hierarchy(8)
        slow = campaign_cost(h, bandwidth_gbps=1.0)
        fast = campaign_cost(h, bandwidth_gbps=10.0)
        assert slow.raw_write_seconds == pytest.approx(10 * fast.raw_write_seconds)

    def test_compressed_write_faster(self):
        h = make_sphere_hierarchy(8)
        cost = campaign_cost(h, compression_ratio=20.0)
        assert cost.compressed_write_seconds < cost.raw_write_seconds / 19

    def test_validation(self):
        h = make_sphere_hierarchy(8)
        with pytest.raises(ReproError):
            campaign_cost(h, compression_ratio=0.0)
        with pytest.raises(ReproError):
            campaign_cost(h, snapshots=0)
        with pytest.raises(ReproError):
            campaign_cost(h, bandwidth_gbps=-1.0)
