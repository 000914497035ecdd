"""Tests for the figure regenerators and the paper's qualitative claims."""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.figures import (
    run_fig1,
    run_fig2,
    run_fig9,
    run_fig10,
    run_fig11,
    run_fig12,
    run_fig13,
    run_fig14,
)

SCALE = 0.25


class TestFig1:
    @pytest.fixture(scope="class")
    def rows(self):
        return run_fig1(SCALE)

    def test_three_methods(self, rows):
        assert [r.method for r in rows] == ["resampling", "dual", "dual+redundant"]

    def test_resampling_has_cracks(self, rows):
        assert rows[0].open_edge_count > 0

    def test_dual_gap_worse_than_crack(self, rows):
        resample, dual, fixed = rows
        assert dual.mean_gap > resample.mean_gap

    def test_redundant_fix_best(self, rows):
        resample, dual, fixed = rows
        assert fixed.mean_gap < dual.mean_gap
        assert fixed.max_gap < dual.max_gap


class TestFig2:
    @pytest.fixture(scope="class")
    def rows(self):
        return run_fig2(SCALE)

    def test_structure_sharpens_over_time(self, rows):
        assert len(rows) == 3
        maxima = [r.max_density for r in rows]
        assert maxima == sorted(maxima)
        assert all(0.2 < r.fine_fraction < 0.6 for r in rows)

    def test_compressibility_falls_as_structure_forms(self, rows):
        # One absolute bound for the whole run: the sharper the structure,
        # the lower the ratio, and every step still compresses.
        crs = [r.cr for r in rows]
        assert crs == sorted(crs, reverse=True)
        assert crs[-1] > 1.0


class TestFig9:
    @pytest.fixture(scope="class")
    def rows(self):
        return run_fig9(SCALE)

    def test_grid(self, rows):
        assert len(rows) == 3 * 2  # 3 ebs x 2 methods

    def test_dual_amplifies_artifacts(self, rows):
        # Paper's central claim: same eb, dual-cell render R-SSIM worse.
        for eb in (1e-4, 1e-3, 1e-2):
            res = next(r for r in rows if r.error_bound == eb and r.method == "resampling")
            dual = next(r for r in rows if r.error_bound == eb and r.method == "dual+redundant")
            assert dual.render_r_ssim > res.render_r_ssim

    def test_r_ssim_grows_with_eb(self, rows):
        for method in ("resampling", "dual+redundant"):
            series = sorted(
                (r for r in rows if r.method == method), key=lambda r: r.error_bound
            )
            vals = [r.render_r_ssim for r in series]
            assert vals == sorted(vals)


class TestFig10And11:
    def test_fig10_dual_worse(self):
        rows = run_fig10(SCALE)
        res = next(r for r in rows if r.method == "resampling")
        dual = next(r for r in rows if r.method == "dual+redundant")
        assert dual.render_r_ssim > res.render_r_ssim

    def test_fig11_has_original_and_codecs(self):
        rows = run_fig11(SCALE)
        codecs = {r.codec for r in rows}
        assert codecs == {"original", "sz-lr", "sz-interp"}
        originals = [r for r in rows if r.codec == "original"]
        assert all(r.render_r_ssim == 0.0 for r in originals)


class TestRDFigures:
    @pytest.fixture(scope="class")
    def fig12(self):
        return run_fig12(SCALE)

    @pytest.fixture(scope="class")
    def fig13(self):
        return run_fig13(SCALE)

    def test_fig12_interp_dominates_cr(self, fig12):
        # WarpX: at every eb, SZ-Interp reaches a higher ratio (Fig 12).
        by_eb = {}
        for r in fig12:
            by_eb.setdefault(r.error_bound, {})[r.codec] = r
        for eb, d in by_eb.items():
            assert d["sz-interp"].cr > d["sz-lr"].cr

    def test_fig13_lr_wins_r_ssim_on_nyx(self):
        # Nyx: SZ-L/R beats SZ-Interp on R-SSIM at the largest bound (the
        # paper's Figure 13b / Table 2 observation). The effect needs real
        # small-scale irregularity, so this one claim runs at scale 0.5
        # (32^3 + 64^3) rather than the CI scale.
        from repro.experiments.figures import run_rd

        rows = run_rd("nyx", scale=0.5, error_bounds=(1e-2,))
        lr = next(r for r in rows if r.codec == "sz-lr")
        it = next(r for r in rows if r.codec == "sz-interp")
        assert lr.r_ssim < it.r_ssim

    def test_curves_monotone(self, fig12, fig13):
        for rows in (fig12, fig13):
            for codec in ("sz-lr", "sz-interp"):
                series = sorted(
                    (r for r in rows if r.codec == codec), key=lambda r: r.error_bound
                )
                crs = [r.cr for r in series]
                assert crs == sorted(crs)


class TestFig14:
    def test_exact_paper_arrays(self):
        demo = run_fig14()
        assert demo.original.tolist() == list(range(9))
        assert demo.decompressed.tolist() == [1, 1, 1, 4, 4, 4, 7, 7, 7]
        assert demo.resampled.tolist() == [1, 1, 1, 2.5, 4, 4, 5.5, 7, 7, 7]
        assert demo.resampled_rmse < demo.dual_cell_rmse
