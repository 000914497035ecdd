"""Table 2: CR / PSNR / SSIM / R-SSIM across apps, codecs and error bounds.

For each (application, codec, relative error bound) cell the paper reports
the compression ratio, the data PSNR, the (volumetric) SSIM and the reverse
SSIM. The harness compresses the evaluated field of the whole hierarchy
(both levels, per-patch), reconstructs it, composites both versions onto
the uniform fine grid, and measures there — the post-analysis view of
Figure 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.amr.uniform import flatten_to_uniform
from repro.compression.amr_codec import compress_hierarchy, decompress_hierarchy
from repro.experiments.datasets import APPS, PAPER_TABLE2, load_app
from repro.metrics.error import psnr as _psnr
from repro.metrics.ssim import ssim as _ssim

__all__ = ["Table2Row", "run_table2", "DEFAULT_ERROR_BOUNDS", "DEFAULT_CODECS"]

#: The paper's three relative error bounds.
DEFAULT_ERROR_BOUNDS = (1e-4, 1e-3, 1e-2)

#: The paper's two compressors.
DEFAULT_CODECS = ("sz-lr", "sz-interp")


@dataclass(frozen=True)
class Table2Row:
    """One cell of Table 2."""

    app: str
    codec: str
    error_bound: float
    cr: float
    psnr: float
    ssim: float
    paper_cr: float | None = None
    paper_psnr: float | None = None
    paper_ssim: float | None = None

    # kept: paper Eq. 1: Table 2 reports reverse SSIM
    @property
    def r_ssim(self) -> float:
        """Reverse SSIM (paper Eq. 1)."""
        return 1.0 - self.ssim


def run_table2(
    scale: float = 1.0,
    apps: Sequence[str] = APPS,
    codecs: Sequence[str] = DEFAULT_CODECS,
    error_bounds: Sequence[float] = DEFAULT_ERROR_BOUNDS,
) -> list[Table2Row]:
    """Regenerate Table 2 at the requested scale."""
    rows: list[Table2Row] = []
    for app in apps:
        ds = load_app(app, scale)
        reference = ds.uniform_field()
        for codec in codecs:
            for eb in error_bounds:
                container = compress_hierarchy(
                    ds.hierarchy, codec, eb, mode="rel", fields=[ds.field]
                )
                restored_h = decompress_hierarchy(container, ds.hierarchy)
                restored = flatten_to_uniform(restored_h, ds.field)
                paper = PAPER_TABLE2.get((app, codec, eb), {})
                rows.append(
                    Table2Row(
                        app=app,
                        codec=codec,
                        error_bound=eb,
                        cr=container.ratio,
                        psnr=_psnr(reference, restored),
                        ssim=_ssim(reference, restored, window=7, sigma=None),
                        paper_cr=paper.get("cr"),
                        paper_psnr=paper.get("psnr"),
                        paper_ssim=paper.get("ssim"),
                    )
                )
    return rows
