"""Figure experiments: crack/gap audits, visual comparisons, RD curves.

Each ``run_fig*`` function regenerates the data behind one paper figure and
returns structured rows; the registry entries (:mod:`repro.experiments.fleet`)
check the paper's claims on them and gate their metrics. Rendered-image R-SSIM is
the quantitative stand-in for the paper's side-by-side screenshots: for a
given method, we render the iso-surface of the original data and of the
decompressed data with identical framing and compare.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.amr.hierarchy import AMRHierarchy
from repro.compression.amr_codec import compress_hierarchy, decompress_hierarchy
from repro.experiments.datasets import AppDataset, load_app
from repro.metrics.error import psnr as _psnr
from repro.metrics.ssim import ssim as _ssim
from repro.sims.nyx import NyxConfig, nyx_timesteps
from repro.viz.cracks import CrackReport, crack_report
from repro.viz.line1d import Figure14Demo, figure14_demo
from repro.viz.pipelines import IsoSurfaceResult, dual_cell_isosurface, resampling_isosurface
from repro.viz.render import render_mesh

__all__ = [
    "PipelineRow",
    "TimestepRow",
    "RDRow",
    "run_fig1",
    "run_fig2",
    "run_visual_compare",
    "run_fig9",
    "run_fig10",
    "run_fig11",
    "run_rd",
    "run_fig12",
    "run_fig13",
    "run_fig14",
    "METHODS",
]

#: The visualization methods compared throughout the paper's figures.
METHODS = ("resampling", "dual", "dual+redundant")


def _extract(method: str, hierarchy: AMRHierarchy, fld: str, iso: float) -> IsoSurfaceResult:
    if method == "resampling":
        return resampling_isosurface(hierarchy, fld, iso)
    if method == "dual":
        return dual_cell_isosurface(hierarchy, fld, iso, gap_fix="none")
    if method == "dual+redundant":
        return dual_cell_isosurface(hierarchy, fld, iso, gap_fix="redundant")
    raise ValueError(f"unknown method {method!r}")


def _domain_bounds(h: AMRHierarchy) -> tuple[np.ndarray, np.ndarray]:
    dx0 = np.asarray(h[0].dx)
    lo = np.asarray(h.domain.lo, dtype=np.float64) * dx0
    hi = (np.asarray(h.domain.hi, dtype=np.float64) + 1.0) * dx0
    return lo, hi


def _render(ds: AppDataset, result: IsoSurfaceResult, size: int = 256) -> np.ndarray:
    bounds = _domain_bounds(ds.hierarchy)
    # Elongated domains get an aspect-matched image.
    uv = [a for a in range(3) if a != ds.view_axis]
    span = bounds[1] - bounds[0]
    aspect = span[uv[1]] / span[uv[0]]
    shape = (size, max(8, int(round(size * aspect))))
    return render_mesh(result.merged, axis=ds.view_axis, size=shape, bounds=bounds)


# ----------------------------------------------------------------------
# Figure 1: original data, three pipeline variants
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PipelineRow:
    """Crack/gap audit plus image quality for one pipeline run."""

    app: str
    codec: str  # "original" when no compression applied
    error_bound: float | None
    method: str
    n_faces: int
    open_edge_count: int
    mean_gap: float
    max_gap: float
    render_r_ssim: float | None  # vs original-data render, same method
    data_psnr: float | None


def run_fig1(scale: float = 1.0, app: str = "warpx") -> list[PipelineRow]:
    """Figure 1: iso-surface of *original* AMR data with re-sampling,
    dual-cell, and dual-cell + switching (redundant coarse) cells."""
    ds = load_app(app, scale)
    rows = []
    for method in METHODS:
        result = _extract(method, ds.hierarchy, ds.field, ds.iso)
        report = crack_report(result, ds.hierarchy)
        rows.append(
            PipelineRow(
                app=app,
                codec="original",
                error_bound=None,
                method=method,
                n_faces=result.n_faces,
                open_edge_count=report.open_edge_count,
                mean_gap=report.mean_gap,
                max_gap=report.max_gap,
                render_r_ssim=None,
                data_psnr=None,
            )
        )
    return rows


# ----------------------------------------------------------------------
# Figure 2: refinement tracks structure over timesteps
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TimestepRow:
    """Refinement statistics and compressibility of one Nyx timestep."""

    growth: float
    n_fine_boxes: int
    fine_fraction: float
    max_density: float
    #: SZ-L/R ratio of the density at one absolute bound for the whole run
    #: (1e-3 of the first timestep's range).
    cr: float


def run_fig2(scale: float = 1.0) -> list[TimestepRow]:
    """Figure 2: the refined region follows collapsing structure, and the
    sharper structure is harder to compress."""
    from repro.amr.uniform import flatten_to_uniform

    cfg = NyxConfig(coarse_n=max(16, int(round(64 * scale))))
    steps = nyx_timesteps(config=cfg)
    first = flatten_to_uniform(steps[0], "baryon_density")
    eb_abs = 1e-3 * float(first.max() - first.min())
    rows = []
    for h, growth in zip(steps, (0.35, 0.65, 1.0)):
        density = h[1].patches("baryon_density")
        rows.append(
            TimestepRow(
                growth=growth,
                n_fine_boxes=len(h[1].boxes),
                fine_fraction=h.densities()[1],
                max_density=float(max(p.data.max() for p in density)),
                cr=compress_hierarchy(
                    h, "sz-lr", eb_abs, mode="abs", fields=["baryon_density"]
                ).ratio,
            )
        )
    return rows


# ----------------------------------------------------------------------
# Figures 9/10/11: compression x visualization-method comparisons
# ----------------------------------------------------------------------
def run_visual_compare(
    app: str,
    codec: str,
    error_bounds: Sequence[float],
    scale: float = 1.0,
    methods: Sequence[str] = ("resampling", "dual+redundant"),
    include_original: bool = False,
    image_store: dict | None = None,
) -> list[PipelineRow]:
    """Compare visualization methods on decompressed data.

    For every error bound and method: decompress, extract, render, and
    measure (a) rendered-image R-SSIM against the original data rendered
    the same way, (b) data PSNR, (c) crack/gap metrics.
    """
    ds = load_app(app, scale)
    originals = {m: _extract(m, ds.hierarchy, ds.field, ds.iso) for m in methods}
    original_images = {m: _render(ds, r) for m, r in originals.items()}
    rows: list[PipelineRow] = []
    if include_original:
        for m in methods:
            report = crack_report(originals[m], ds.hierarchy)
            if image_store is not None:
                image_store[f"{app}_original_{m}"] = original_images[m]
            rows.append(
                PipelineRow(
                    app=app,
                    codec="original",
                    error_bound=None,
                    method=m,
                    n_faces=originals[m].n_faces,
                    open_edge_count=report.open_edge_count,
                    mean_gap=report.mean_gap,
                    max_gap=report.max_gap,
                    render_r_ssim=0.0,
                    data_psnr=float("inf"),
                )
            )
    reference = ds.uniform_field()
    for eb in error_bounds:
        container = compress_hierarchy(ds.hierarchy, codec, eb, mode="rel", fields=[ds.field])
        restored_h = decompress_hierarchy(container, ds.hierarchy)
        from repro.amr.uniform import flatten_to_uniform

        restored_uniform = flatten_to_uniform(restored_h, ds.field)
        quality = _psnr(reference, restored_uniform)
        for m in methods:
            result = _extract(m, restored_h, ds.field, ds.iso)
            report = crack_report(result, restored_h)
            image = _render(ds, result)
            if image_store is not None:
                image_store[f"{app}_{codec}_eb{eb:g}_{m}"] = image
            rows.append(
                PipelineRow(
                    app=app,
                    codec=codec,
                    error_bound=float(eb),
                    method=m,
                    n_faces=result.n_faces,
                    open_edge_count=report.open_edge_count,
                    mean_gap=report.mean_gap,
                    max_gap=report.max_gap,
                    render_r_ssim=1.0 - _ssim(original_images[m], image, data_range=1.0),
                    data_psnr=quality,
                )
            )
    return rows


def run_fig9(scale: float = 1.0) -> list[PipelineRow]:
    """Figure 9: WarpX + SZ-L/R at eb 1e-4/1e-3/1e-2, both methods."""
    return run_visual_compare("warpx", "sz-lr", (1e-4, 1e-3, 1e-2), scale)


def run_fig10(scale: float = 1.0) -> list[PipelineRow]:
    """Figure 10: WarpX + SZ-Interp at eb 1e-3, both methods."""
    return run_visual_compare("warpx", "sz-interp", (1e-3,), scale)


def run_fig11(scale: float = 1.0) -> list[PipelineRow]:
    """Figure 11: Nyx, original + SZ-L/R + SZ-Interp at eb 1e-2, both methods."""
    rows = run_visual_compare("nyx", "sz-lr", (1e-2,), scale, include_original=True)
    rows += run_visual_compare("nyx", "sz-interp", (1e-2,), scale)
    return rows


# ----------------------------------------------------------------------
# Figures 12/13: rate-distortion curves
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RDRow:
    """One rate-distortion point."""

    app: str
    codec: str
    error_bound: float
    cr: float
    psnr: float
    r_ssim: float


def run_rd(
    app: str,
    scale: float = 1.0,
    codecs: Sequence[str] = ("sz-lr", "sz-interp"),
    error_bounds: Sequence[float] = (1e-4, 3e-4, 1e-3, 3e-3, 1e-2),
) -> list[RDRow]:
    """Rate-distortion sweep on the app's evaluated field (uniform view)."""
    ds = load_app(app, scale)
    reference = ds.uniform_field()
    rows = []
    for codec in codecs:
        for eb in error_bounds:
            container = compress_hierarchy(ds.hierarchy, codec, eb, mode="rel", fields=[ds.field])
            restored_h = decompress_hierarchy(container, ds.hierarchy)
            from repro.amr.uniform import flatten_to_uniform

            restored = flatten_to_uniform(restored_h, ds.field)
            rows.append(
                RDRow(
                    app=app,
                    codec=codec,
                    error_bound=float(eb),
                    cr=container.ratio,
                    psnr=_psnr(reference, restored),
                    r_ssim=1.0 - _ssim(reference, restored, window=7, sigma=None),
                )
            )
    return rows


def run_fig12(scale: float = 1.0) -> list[RDRow]:
    """Figure 12: RD comparison on the WarpX Ez field."""
    return run_rd("warpx", scale)


def run_fig13(scale: float = 1.0) -> list[RDRow]:
    """Figure 13: RD comparison on the Nyx density field."""
    return run_rd("nyx", scale)


def run_fig14(n: int = 9, block: int = 3) -> Figure14Demo:
    """Figure 14: the 1-D interpolation-smoothing construction."""
    return figure14_demo(n, block)
