"""AMR iso-surface visualization substrate.

Pipelines (:mod:`repro.viz.pipelines`) implement the paper's two methods —
re-sampling + marching cubes and dual-cell + marching cubes (with gap
fixes) — on top of a from-scratch marching cubes
(:mod:`repro.viz.marching_cubes`), crack metrics (:mod:`repro.viz.cracks`)
and a deterministic software renderer (:mod:`repro.viz.render`).
"""

from repro.viz.mesh import TriangleMesh
from repro.viz.resample import cell_to_vertex
from repro.viz.marching_cubes import marching_cubes
from repro.viz.marching_squares import marching_squares, contour_length
from repro.viz.dual_cell import dual_isosurface
from repro.viz.stitching import redundant_ring_mask, stitch_contours_2d
from repro.viz.pipelines import IsoSurfaceResult, resampling_isosurface, dual_cell_isosurface
from repro.viz.cracks import CrackReport, crack_report, interface_gap, interior_boundary_edges
from repro.viz.render import render_mesh
from repro.viz.image_io import write_pgm, read_pgm
from repro.viz.line1d import Figure14Demo, figure14_demo, blocky_compress_1d
from repro.viz.volume import (
    slice_image,
    volume_render,
    normalize_field,
)

__all__ = [
    "TriangleMesh",
    "cell_to_vertex",
    "marching_cubes",
    "marching_squares",
    "contour_length",
    "dual_isosurface",
    "redundant_ring_mask",
    "stitch_contours_2d",
    "IsoSurfaceResult",
    "resampling_isosurface",
    "dual_cell_isosurface",
    "CrackReport",
    "crack_report",
    "interface_gap",
    "interior_boundary_edges",
    "render_mesh",
    "write_pgm",
    "read_pgm",
    "Figure14Demo",
    "figure14_demo",
    "blocky_compress_1d",
    "slice_image",
    "volume_render",
    "normalize_field",
]
