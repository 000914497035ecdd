"""Patch-based AMR substrate (AMReX-style boxes, levels, hierarchies)."""

from repro.amr.box import Box
from repro.amr.boxarray import BoxArray
from repro.amr.patch import Patch
from repro.amr.level import AMRLevel
from repro.amr.hierarchy import AMRHierarchy
from repro.amr.regrid import cluster_tags
from repro.amr.coverage import patch_covered_mask, level_covered_masks
from repro.amr.uniform import flatten_to_uniform, upsample_nearest
from repro.amr.io import (
    write_plotfile,
    read_plotfile,
    write_container,
    write_series,
    append_step,
)
from repro.amr.iostats import CampaignCost, snapshot_bytes, campaign_cost

__all__ = [
    "Box",
    "BoxArray",
    "Patch",
    "AMRLevel",
    "AMRHierarchy",
    "cluster_tags",
    "patch_covered_mask",
    "level_covered_masks",
    "flatten_to_uniform",
    "upsample_nearest",
    "write_plotfile",
    "read_plotfile",
    "write_container",
    "write_series",
    "append_step",
    "CampaignCost",
    "snapshot_bytes",
    "campaign_cost",
]
