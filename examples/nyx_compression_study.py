#!/usr/bin/env python
"""Nyx rate-distortion study: Figure 13 over the paper's two codecs.

Sweeps SZ-L/R and SZ-Interp across error bounds on the Nyx density field,
prints the rate-distortion table with ASCII plots, and demonstrates the
redundant-coarse-data exclusion (paper §2.2): the excluded container is
decoded with ``restore="average_down"``, which rebuilds the covered coarse
cells from the decompressed fine data.

Usage::

    python examples/nyx_compression_study.py [--scale 0.5]
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass

from repro.amr import flatten_to_uniform
from repro.compression import compress_hierarchy, decompress_hierarchy
from repro.experiments.datasets import load_app
from repro.experiments.report import ascii_plot, format_table
from repro.metrics import psnr, r_ssim


@dataclass(frozen=True)
class Row:
    codec: str
    error_bound: float
    cr: float
    psnr: float
    r_ssim: float


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=0.5)
    parser.add_argument(
        "--error-bounds", type=float, nargs="+", default=[1e-4, 3e-4, 1e-3, 3e-3, 1e-2]
    )
    args = parser.parse_args()

    ds = load_app("nyx", args.scale)
    reference = ds.uniform_field()
    print(f"dataset: {ds.hierarchy}")

    rows = []
    for codec in ("sz-lr", "sz-interp"):
        for eb in args.error_bounds:
            container = compress_hierarchy(ds.hierarchy, codec, eb, mode="rel", fields=[ds.field])
            restored = flatten_to_uniform(decompress_hierarchy(container, ds.hierarchy), ds.field)
            rows.append(
                Row(
                    codec=codec,
                    error_bound=eb,
                    cr=container.ratio,
                    psnr=psnr(reference, restored),
                    r_ssim=max(
                        r_ssim(reference, restored, window=7, sigma=None), 1e-12
                    ),
                )
            )
            print(f"  {codec:10s} eb={eb:<8g} CR={rows[-1].cr:7.1f} PSNR={rows[-1].psnr:6.2f}")

    print()
    print(format_table(rows, title="Figure 13: Nyx rate-distortion"))
    series_p = {}
    series_r = {}
    for r in rows:
        series_p.setdefault(r.codec, []).append((r.cr, r.psnr))
        series_r.setdefault(r.codec, []).append((r.cr, r.r_ssim))
    print(ascii_plot(series_p, title="PSNR vs CR", xlabel="CR", ylabel="PSNR"))
    print(ascii_plot(series_r, logy=True, title="R-SSIM vs CR (log)", xlabel="CR", ylabel="R-SSIM"))

    # Redundant-coarse-data exclusion (§2.2), decoded with average_down.
    print("Redundant coarse-data exclusion at eb 1e-3 (coarse PSNR after average_down):")
    coarse = ds.hierarchy[0].to_array(ds.field)
    for codec in ("sz-lr", "sz-interp"):
        plain = compress_hierarchy(ds.hierarchy, codec, 1e-3, fields=[ds.field])
        excl = compress_hierarchy(
            ds.hierarchy, codec, 1e-3, fields=[ds.field], exclude_covered=True
        )
        rebuilt = decompress_hierarchy(excl, ds.hierarchy, restore="average_down")
        print(f"  {codec:10s} plain CR={plain.ratio:6.2f}  excluded CR={excl.ratio:6.2f} "
              f"({(excl.ratio / plain.ratio - 1) * 100:+.1f}%)  "
              f"coarse PSNR={psnr(coarse, rebuilt[0].to_array(ds.field)):6.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
