"""Patch-based AMR substrate (AMReX-style boxes, levels, hierarchies)."""

from repro.amr.box import Box
from repro.amr.boxarray import BoxArray
from repro.amr.patch import Patch
from repro.amr.level import AMRLevel
from repro.amr.hierarchy import AMRHierarchy
from repro.amr.regrid import cluster_tags, boxes_from_mask
from repro.amr.coverage import patch_covered_mask, level_covered_masks, exposed_fraction
from repro.amr.uniform import flatten_to_uniform, upsample_nearest, upsample_linear
from repro.amr.io import (
    write_plotfile,
    read_plotfile,
    write_container,
    read_container,
    open_container,
    write_series,
    append_step,
    open_series,
)
from repro.amr.iostats import CampaignCost, snapshot_bytes, campaign_cost

__all__ = [
    "Box",
    "BoxArray",
    "Patch",
    "AMRLevel",
    "AMRHierarchy",
    "cluster_tags",
    "boxes_from_mask",
    "patch_covered_mask",
    "level_covered_masks",
    "exposed_fraction",
    "flatten_to_uniform",
    "upsample_nearest",
    "upsample_linear",
    "write_plotfile",
    "read_plotfile",
    "write_container",
    "read_container",
    "open_container",
    "write_series",
    "append_step",
    "open_series",
    "CampaignCost",
    "snapshot_bytes",
    "campaign_cost",
]
