"""The registry fleet: every paper figure/table/ablation as an entry.

Each function here absorbs one legacy ``benchmarks/bench_*.py`` driver:
the computation delegates to the existing ``run_*`` experiment functions,
the driver's paper-shape asserts become :func:`~.registry.check` calls
(so they run under pytest *and* under the CLI/nightly), and the scalar
measurements worth tracking become declared metrics (see
:class:`~.registry.MetricSpec` for gate semantics). Under pytest the
entries run through ``benchmarks/bench_registry.py`` (``-k <name>`` for one).

Metric-design convention: prefer *ratios that encode a paper claim*
(artifact amplification, codec advantage, exclusion gain) — they travel
across machines and scales better than absolute values, and their gate
direction is the claim's direction ("effect got weaker" fails).
"""

from __future__ import annotations

import math

import numpy as np

from repro.experiments.datasets import load_app
from repro.experiments.registry import MetricSpec, check, register

__all__: list[str] = []


def _geomean(values) -> float:
    vals = list(values)
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


# ----------------------------------------------------------------------
# figures
# ----------------------------------------------------------------------
@register(
    "fig01", "figures",
    "Figure 1: crack/gap audit on original data (resampling vs dual-cell)",
    metrics={
        "resampling_open_edges": MetricSpec("edges"),
        "dual_mean_gap": MetricSpec("cells"),
        "fixed_over_dual_gap": MetricSpec("ratio", higher_is_better=False),
    },
)
def fig01(scale: float) -> dict[str, float]:
    from repro.experiments.figures import run_fig1

    resample, dual, fixed = run_fig1(scale)
    check(resample.open_edge_count > 0, "re-sampling shows cracks (Fig 1a)")
    check(dual.mean_gap > resample.mean_gap, "dual-cell gaps exceed cracks (Fig 1b)")
    check(fixed.mean_gap < dual.mean_gap, "switching cells close the gap (Fig 1c)")
    return {
        "resampling_open_edges": float(resample.open_edge_count),
        "dual_mean_gap": dual.mean_gap,
        "fixed_over_dual_gap": fixed.mean_gap / dual.mean_gap,
    }


@register(
    "fig02", "figures",
    "Figure 2: refinement tracks collapsing structure over timesteps",
    metrics={
        "max_density_final": MetricSpec("rho"),
        "fine_fraction_final": MetricSpec("frac"),
        "n_fine_boxes_final": MetricSpec("boxes"),
    },
)
def fig02(scale: float) -> dict[str, float]:
    from repro.experiments.figures import run_fig2

    rows = run_fig2(scale)
    maxima = [r.max_density for r in rows]
    check(maxima == sorted(maxima), "structure sharpens as the universe evolves")
    check(all(r.n_fine_boxes > 0 for r in rows), "every timestep refines somewhere")
    final = rows[-1]
    return {
        "max_density_final": final.max_density,
        "fine_fraction_final": final.fine_fraction,
        "n_fine_boxes_final": float(final.n_fine_boxes),
    }


@register(
    "fig09", "figures",
    "Figure 9: WarpX + SZ-L/R, dual-cell amplifies artifacts across bounds",
    metrics={
        "amplification_mean": MetricSpec("x"),
        "resampling_rssim_at_1e2": MetricSpec("r-ssim", higher_is_better=False),
    },
)
def fig09(scale: float) -> dict[str, float]:
    from repro.experiments.figures import run_fig9

    rows = run_fig9(scale)
    ratios = []
    for eb in (1e-4, 1e-3, 1e-2):
        res = next(r for r in rows if r.error_bound == eb and r.method == "resampling")
        dual = next(r for r in rows if r.error_bound == eb and r.method == "dual+redundant")
        check(
            dual.render_r_ssim > res.render_r_ssim,
            f"dual-cell must amplify compression artifacts at eb {eb:g} (paper §4.1)",
        )
        ratios.append(dual.render_r_ssim / res.render_r_ssim)
    for method in ("resampling", "dual+redundant"):
        series = sorted((r for r in rows if r.method == method), key=lambda r: r.error_bound)
        vals = [r.render_r_ssim for r in series]
        check(vals == sorted(vals), f"{method}: visual degradation grows with eb")
    res_1e2 = next(
        r for r in rows if r.error_bound == 1e-2 and r.method == "resampling"
    )
    return {
        "amplification_mean": float(np.mean(ratios)),
        "resampling_rssim_at_1e2": res_1e2.render_r_ssim,
    }


@register(
    "fig10", "figures",
    "Figure 10: WarpX + SZ-Interp, dual-cell amplifies the bump artifacts",
    metrics={
        "amplification": MetricSpec("x"),
        "resampling_rssim": MetricSpec("r-ssim", higher_is_better=False),
    },
)
def fig10(scale: float) -> dict[str, float]:
    from repro.experiments.figures import run_fig10

    rows = run_fig10(scale)
    res = next(r for r in rows if r.method == "resampling")
    dual = next(r for r in rows if r.method == "dual+redundant")
    check(dual.render_r_ssim > res.render_r_ssim, "dual-cell amplifies SZ-Interp bumps")
    return {
        "amplification": dual.render_r_ssim / res.render_r_ssim,
        "resampling_rssim": res.render_r_ssim,
    }


@register(
    "fig11", "figures",
    "Figure 11: Nyx at eb 1e-2 — both codecs, both methods, plus originals",
    metrics={
        "szlr_amplification": MetricSpec("x"),
        "szinterp_amplification": MetricSpec("x"),
    },
)
def fig11(scale: float) -> dict[str, float]:
    from repro.experiments.figures import run_fig11

    rows = run_fig11(scale)
    check(
        {r.codec for r in rows} == {"original", "sz-lr", "sz-interp"},
        "original references plus both codecs present",
    )
    out = {}
    for codec, key in (("sz-lr", "szlr_amplification"), ("sz-interp", "szinterp_amplification")):
        res = next(r for r in rows if r.codec == codec and r.method == "resampling")
        dual = next(r for r in rows if r.codec == codec and r.method == "dual+redundant")
        check(
            dual.render_r_ssim > res.render_r_ssim,
            f"{codec}: dual-cell must degrade visual quality (paper §4.2)",
        )
        out[key] = dual.render_r_ssim / res.render_r_ssim
    return out


@register(
    "fig12", "figures",
    "Figure 12: rate-distortion on WarpX Ez (SZ-Interp dominates the rate axis)",
    metrics={
        "szinterp_cr_advantage": MetricSpec("x"),
        "best_psnr": MetricSpec("dB"),
        "best_cr": MetricSpec("x"),
    },
)
def fig12(scale: float) -> dict[str, float]:
    from repro.experiments.figures import run_fig12

    rows = run_fig12(scale)
    by_eb: dict[float, dict[str, object]] = {}
    for r in rows:
        by_eb.setdefault(r.error_bound, {})[r.codec] = r
    advantages = []
    for eb, pair in by_eb.items():
        check(
            pair["sz-interp"].cr > pair["sz-lr"].cr,
            f"WarpX is smooth: SZ-Interp must win CR at eb {eb:g}",
        )
        advantages.append(pair["sz-interp"].cr / pair["sz-lr"].cr)
    return {
        "szinterp_cr_advantage": _geomean(advantages),
        "best_psnr": max(r.psnr for r in rows),
        "best_cr": max(r.cr for r in rows),
    }


@register(
    "fig13", "figures",
    "Figure 13: rate-distortion on Nyx density (SZ-L/R competitive on spiky data)",
    metrics={
        "szlr_cr_at_max_eb": MetricSpec("x"),
        "rssim_ratio_at_max_eb": MetricSpec("x"),
    },
)
def fig13(scale: float) -> dict[str, float]:
    from repro.experiments.figures import run_fig13

    rows = run_fig13(scale)
    largest = max(r.error_bound for r in rows)
    lr = next(r for r in rows if r.codec == "sz-lr" and r.error_bound == largest)
    it = next(r for r in rows if r.codec == "sz-interp" and r.error_bound == largest)
    # The paper's Nyx observation needs enough small-scale structure; it
    # holds from scale 0.5 up (the legacy driver gated it identically).
    if scale >= 0.5:
        check(lr.r_ssim < it.r_ssim, "SZ-L/R captures Nyx's local patterns better")
    return {
        "szlr_cr_at_max_eb": lr.cr,
        "rssim_ratio_at_max_eb": it.r_ssim / max(lr.r_ssim, 1e-12),
    }


@register(
    "fig14", "figures",
    "Figure 14: the 1-D interpolation-smoothing construction",
    metrics={
        "resampled_rmse": MetricSpec("rmse", higher_is_better=False),
        "dual_over_resampled_rmse": MetricSpec("x"),
    },
)
def fig14(scale: float) -> dict[str, float]:
    from repro.experiments.figures import run_fig14

    demo = run_fig14()
    check(demo.decompressed.tolist() == [1, 1, 1, 4, 4, 4, 7, 7, 7], "paper's exact 1-D example")
    check(
        demo.resampled.tolist() == [1, 1, 1, 2.5, 4, 4, 5.5, 7, 7, 7],
        "paper's exact re-sampled sequence",
    )
    check(demo.resampled_rmse < demo.dual_cell_rmse, "re-sampling smooths the staircase")
    for n, block in ((60, 4), (100, 5)):
        d = run_fig14(n, block)
        check(
            d.resampled_rmse <= d.dual_cell_rmse,
            f"generalization holds at n={n}, block={block}",
        )
    return {
        "resampled_rmse": demo.resampled_rmse,
        "dual_over_resampled_rmse": demo.dual_cell_rmse / demo.resampled_rmse,
    }


# ----------------------------------------------------------------------
# tables
# ----------------------------------------------------------------------
@register(
    "table1", "tables",
    "Table 1: dataset geometry and per-level densities vs the paper",
    metrics={
        "density_error_max": MetricSpec("frac", higher_is_better=False),
        "warpx_fine_density": MetricSpec("frac"),
        "nyx_fine_density": MetricSpec("frac"),
    },
)
def table1(scale: float) -> dict[str, float]:
    from repro.experiments.table1 import run_table1

    rows = run_table1(scale)
    for row in rows:
        check(row.n_levels == 2, f"{row.app}: two-level hierarchy")
        check(row.density_error < 0.1, f"{row.app}: densities within 0.1 of the paper")
    by_app = {r.app: r for r in rows}
    return {
        "density_error_max": max(r.density_error for r in rows),
        "warpx_fine_density": by_app["warpx"].densities[1],
        "nyx_fine_density": by_app["nyx"].densities[1],
    }


@register(
    "table2", "tables",
    "Table 2: CR / PSNR / SSIM across apps x codecs x error bounds",
    metrics={
        "mean_cr": MetricSpec("x"),
        "mean_psnr": MetricSpec("dB"),
        "warpx_szinterp_cr_win_min": MetricSpec("x"),
    },
)
def table2(scale: float) -> dict[str, float]:
    from repro.experiments.table2 import run_table2

    rows = run_table2(scale)
    for app in ("warpx", "nyx"):
        for codec in ("sz-lr", "sz-interp"):
            series = sorted(
                (r for r in rows if r.app == app and r.codec == codec),
                key=lambda r: r.error_bound,
            )
            crs = [r.cr for r in series]
            psnrs = [r.psnr for r in series]
            check(crs == sorted(crs), f"{app}/{codec}: CR must grow with eb")
            check(psnrs == sorted(psnrs, reverse=True), f"{app}/{codec}: PSNR must fall with eb")
    wins = []
    for eb in (1e-4, 1e-3, 1e-2):
        lr = next(r for r in rows if r.app == "warpx" and r.codec == "sz-lr" and r.error_bound == eb)
        it = next(r for r in rows if r.app == "warpx" and r.codec == "sz-interp" and r.error_bound == eb)
        check(it.cr > lr.cr, f"WarpX: SZ-Interp must win CR at eb {eb:g}")
        wins.append(it.cr / lr.cr)
    return {
        "mean_cr": _geomean(r.cr for r in rows),
        "mean_psnr": float(np.mean([r.psnr for r in rows])),
        "warpx_szinterp_cr_win_min": min(wins),
    }


# ----------------------------------------------------------------------
# ablations
# ----------------------------------------------------------------------
@register(
    "ablation_artifacts", "ablations",
    "Ablation: artifact morphology — SZ-L/R block-wise vs SZ-Interp smooth",
    metrics={
        "szlr_blockiness_min": MetricSpec("x"),
        "blockiness_contrast_min": MetricSpec("x"),
    },
)
def ablation_artifacts(scale: float) -> dict[str, float]:
    from repro.compression.registry import make_codec
    from repro.metrics import blockiness, hausdorff_distance
    from repro.viz import marching_cubes

    blocky: dict[str, dict[str, float]] = {}
    for app in ("warpx", "nyx"):
        ds = load_app(app, scale)
        data = ds.uniform_field()
        ref_mesh = marching_cubes(data, ds.iso)
        blocky[app] = {}
        for codec_name in ("sz-lr", "sz-interp"):
            codec = make_codec(codec_name)
            restored = codec.decompress(codec.compress(data, 1e-2, mode="rel"))
            blocky[app][codec_name] = blockiness(data, restored, 6)
            if codec_name == "sz-lr":
                mesh = marching_cubes(restored, ds.iso)
                check(
                    not ref_mesh.is_empty() and not mesh.is_empty(),
                    f"{app}: iso-surfaces must be non-empty",
                )
                hd = hausdorff_distance(ref_mesh, mesh)
                check(np.isfinite(hd) and hd > 0, f"{app}: iso-surface displacement measurable")
    for app, by_codec in blocky.items():
        check(
            by_codec["sz-lr"] > by_codec["sz-interp"],
            f"{app}: SZ-L/R artifacts must align with the block grid",
        )
        check(by_codec["sz-lr"] > 1.2, f"{app}: block-wise artifacts must be detectable")
    return {
        "szlr_blockiness_min": min(b["sz-lr"] for b in blocky.values()),
        "blockiness_contrast_min": min(
            b["sz-lr"] / b["sz-interp"] for b in blocky.values()
        ),
    }


@register(
    "ablation_blocksize", "ablations",
    "Ablation: SZ-L/R block size sweep (the paper fixes 6x6x6)",
    metrics={
        "cr_spread_max": MetricSpec("x", higher_is_better=False),
        "warpx_cr_at_block6": MetricSpec("x"),
    },
)
def ablation_blocksize(scale: float) -> dict[str, float]:
    from repro.compression.sz_lr import SZLR

    spreads = []
    warpx_cr6 = None
    for app in ("warpx", "nyx"):
        data = load_app(app, scale).uniform_field()
        crs = {}
        for bs in (4, 6, 8, 12):
            blob = SZLR(block_size=bs).compress(data, 1e-3, mode="rel")
            crs[bs] = data.nbytes / len(blob)
        spread = max(crs.values()) / min(crs.values())
        check(spread < 3.0, f"{app}: block size matters but not catastrophically")
        spreads.append(spread)
        if app == "warpx":
            warpx_cr6 = crs[6]
    return {"cr_spread_max": max(spreads), "warpx_cr_at_block6": warpx_cr6}


@register(
    "ablation_entropy", "ablations",
    "Ablation: entropy stage — Huffman + DEFLATE vs DEFLATE alone",
    metrics={
        "huffman_gain_geomean": MetricSpec("x"),
        "min_cr": MetricSpec("x"),
    },
)
def ablation_entropy(scale: float) -> dict[str, float]:
    from repro.compression.sz_interp import SZInterp
    from repro.compression.sz_lr import SZLR

    gains = []
    min_cr = float("inf")
    for app in ("warpx", "nyx"):
        data = load_app(app, scale).uniform_field()
        for cls in (SZLR, SZInterp):
            crs = {}
            for entropy in ("huffman", "deflate"):
                blob = cls(entropy=entropy).compress(data, 1e-3, mode="rel")
                crs[entropy] = data.nbytes / len(blob)
                check(crs[entropy] > 1.0, f"{app}/{cls.__name__}/{entropy}: stream must compress")
                min_cr = min(min_cr, crs[entropy])
            gains.append(crs["huffman"] / crs["deflate"])
    return {"huffman_gain_geomean": _geomean(gains), "min_cr": min_cr}


@register(
    "ablation_predictor", "ablations",
    "Ablation: SZ-L/R predictor selection (Lorenzo / regression / hybrid)",
    metrics={
        "auto_vs_best_min": MetricSpec("x"),
        "warpx_auto_cr": MetricSpec("x"),
    },
)
def ablation_predictor(scale: float) -> dict[str, float]:
    from repro.compression.sz_lr import SZLR

    ratios = []
    warpx_auto = None
    for app in ("warpx", "nyx"):
        data = load_app(app, scale).uniform_field()
        by = {}
        for predictor in ("lorenzo", "regression", "auto"):
            blob = SZLR(predictor=predictor).compress(data, 1e-3, mode="rel")
            by[predictor] = data.nbytes / len(blob)
        ratio = by["auto"] / max(by["lorenzo"], by["regression"])
        check(ratio >= 0.95, f"{app}: hybrid selection must not lose to either fixed predictor")
        ratios.append(ratio)
        if app == "warpx":
            warpx_auto = by["auto"]
    return {"auto_vs_best_min": min(ratios), "warpx_auto_cr": warpx_auto}


@register(
    "ablation_redundant", "ablations",
    "Ablation: excluding redundant covered-coarse data (paper §2.2)",
    metrics={
        "gain_min": MetricSpec("x"),
        "nyx_gain_max": MetricSpec("x"),
    },
)
def ablation_redundant(scale: float) -> dict[str, float]:
    from repro.compression.amr_codec import compress_hierarchy

    gains: dict[tuple[str, str], float] = {}
    for app in ("warpx", "nyx"):
        ds = load_app(app, scale)
        for codec in ("sz-lr", "sz-interp"):
            plain = compress_hierarchy(ds.hierarchy, codec, 1e-3, fields=[ds.field])
            excl = compress_hierarchy(
                ds.hierarchy, codec, 1e-3, fields=[ds.field], exclude_covered=True
            )
            gains[(app, codec)] = excl.ratio / plain.ratio
    for (app, codec), gain in gains.items():
        check(gain > 0.95, f"{app}/{codec}: exclusion must not cost ratio")
    nyx_max = max(g for (app, _), g in gains.items() if app == "nyx")
    check(nyx_max > 1.02, "exclusion should pay off on Nyx (~40% refined)")
    return {"gain_min": min(gains.values()), "nyx_gain_max": nyx_max}


@register(
    "ablation_zmesh", "ablations",
    "Ablation: zMesh-style 1-D reordering vs 3-D per-patch compression",
    metrics={
        "warpx_advantage_3d": MetricSpec("x"),
        "nyx_advantage_3d": MetricSpec("x"),
    },
)
def ablation_zmesh(scale: float) -> dict[str, float]:
    from repro.compression.amr_codec import compress_hierarchy
    from repro.compression.zmesh_like import ZMeshLike

    out = {}
    for app, key in (("warpx", "warpx_advantage_3d"), ("nyx", "nyx_advantage_3d")):
        ds = load_app(app, scale)
        uniform = ds.uniform_field()
        eb_abs = 1e-3 * float(uniform.max() - uniform.min())
        z = ZMeshLike("sz-lr")
        blob = z.compress_hierarchy(ds.hierarchy, ds.field, eb_abs, mode="abs")
        cr_1d = ds.hierarchy.nbytes(ds.field) / len(blob)
        c3d = compress_hierarchy(ds.hierarchy, "sz-lr", eb_abs, mode="abs", fields=[ds.field])
        out[key] = c3d.ratio / cr_1d
    check(out["warpx_advantage_3d"] > 1.0, "smooth data: 3-D locality must win (TAC premise)")
    check(out["nyx_advantage_3d"] > 0.3, "spiky data: 3-D path stays within a small factor")
    return out
