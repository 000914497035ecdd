"""Tests for the Table 1 / Table 2 regenerators."""

from __future__ import annotations

import pytest

from repro.experiments.table1 import run_table1
from repro.experiments.table2 import run_table2

SCALE = 0.25


@pytest.fixture(scope="module")
def table1():
    return run_table1(SCALE)


@pytest.fixture(scope="module")
def table2():
    return run_table2(SCALE, error_bounds=(1e-3, 1e-2))


class TestTable1:
    def test_both_apps(self, table1):
        assert {r.app for r in table1} == {"warpx", "nyx"}

    def test_two_levels_each(self, table1):
        assert all(r.n_levels == 2 for r in table1)

    def test_density_near_paper(self, table1):
        for row in table1:
            assert row.density_error < 0.1

    def test_fine_grid_doubles(self, table1):
        for row in table1:
            assert all(f == 2 * c for c, f in zip(*row.grids))


class TestTable2:
    def test_row_count(self, table2):
        assert len(table2) == 2 * 2 * 2  # apps x codecs x bounds

    def test_cr_increases_with_eb(self, table2):
        for app in ("warpx", "nyx"):
            for codec in ("sz-lr", "sz-interp"):
                rows = [r for r in table2 if r.app == app and r.codec == codec]
                rows.sort(key=lambda r: r.error_bound)
                crs = [r.cr for r in rows]
                assert crs == sorted(crs)

    def test_psnr_decreases_with_eb(self, table2):
        for app in ("warpx", "nyx"):
            for codec in ("sz-lr", "sz-interp"):
                rows = sorted(
                    (r for r in table2 if r.app == app and r.codec == codec),
                    key=lambda r: r.error_bound,
                )
                psnrs = [r.psnr for r in rows]
                assert psnrs == sorted(psnrs, reverse=True)

    def test_r_ssim_increases_with_eb(self, table2):
        for app in ("warpx", "nyx"):
            for codec in ("sz-lr", "sz-interp"):
                rows = sorted(
                    (r for r in table2 if r.app == app and r.codec == codec),
                    key=lambda r: r.error_bound,
                )
                rs = [r.r_ssim for r in rows]
                assert rs == sorted(rs)

    def test_interp_wins_cr_on_warpx(self, table2):
        # The paper's WarpX finding: SZ-Interp compresses smooth data better.
        for eb in (1e-3, 1e-2):
            lr = next(r for r in table2 if r.app == "warpx" and r.codec == "sz-lr" and r.error_bound == eb)
            it = next(r for r in table2 if r.app == "warpx" and r.codec == "sz-interp" and r.error_bound == eb)
            assert it.cr > lr.cr

    def test_paper_refs_attached(self, table2):
        assert all(r.paper_cr is not None for r in table2)
        assert all(r.paper_ssim is not None for r in table2)

    def test_ssim_close_to_one_at_small_eb(self, table2):
        small = [r for r in table2 if r.error_bound == 1e-3]
        assert all(r.ssim > 0.99 for r in small)
