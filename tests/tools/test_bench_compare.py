"""Unit tests for ``tools/bench_compare.py`` — the CI perf gate.

The regression gate is itself CI infrastructure, so its decision logic
(threshold direction, per-metric tolerance, tracked-vs-informational
metrics) and its two write paths (``--write-baseline``, ``--consolidate``)
are pinned here rather than trusted to manual runs.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

_TOOLS = Path(__file__).resolve().parents[2] / "tools"
_spec = importlib.util.spec_from_file_location(
    "bench_compare", _TOOLS / "bench_compare.py"
)
bench_compare = importlib.util.module_from_spec(_spec)
sys.modules["bench_compare"] = bench_compare
_spec.loader.exec_module(bench_compare)


def _artifact(bench: str, **metrics) -> dict:
    return {
        "bench": bench,
        "metrics": {
            name: ({"value": spec} if not isinstance(spec, dict) else spec)
            for name, spec in metrics.items()
        },
    }


def _write(directory: Path, name: str, doc: dict) -> Path:
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"BENCH_{name}.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.fixture()
def dirs(tmp_path):
    current = tmp_path / "current"
    baseline = tmp_path / "baseline"
    current.mkdir()
    baseline.mkdir()
    return current, baseline


def _run(current, baseline, *extra) -> int:
    return bench_compare.main(
        ["--current", str(current), "--baseline", str(baseline), *extra]
    )


class TestGate:
    def test_within_tolerance_passes(self, dirs):
        current, baseline = dirs
        _write(current, "x", _artifact("x", speedup=9.0))
        _write(baseline, "x", _artifact("x", speedup=10.0))  # 10% worse < 20%
        assert _run(current, baseline) == 0

    def test_regression_beyond_threshold_fails(self, dirs, capsys):
        current, baseline = dirs
        _write(current, "x", _artifact("x", speedup=7.0))
        _write(baseline, "x", _artifact("x", speedup=10.0))  # 30% worse
        assert _run(current, baseline) == 1
        assert "REGRESSION" in capsys.readouterr().err

    def test_direction_lower_is_better(self, dirs):
        current, baseline = dirs
        # Latency-style metric: going DOWN is an improvement, not a failure.
        spec = {"value": 100.0, "higher_is_better": False}
        _write(baseline, "x", _artifact("x", rss_mb=spec))
        _write(current, "x", _artifact("x", rss_mb=50.0))
        assert _run(current, baseline) == 0
        _write(current, "x", _artifact("x", rss_mb=130.0))  # 30% up: fails
        assert _run(current, baseline) == 1

    def test_per_metric_tolerance_overrides_threshold(self, dirs):
        current, baseline = dirs
        spec = {"value": 10.0, "tolerance": 0.5}
        _write(baseline, "x", _artifact("x", speedup=spec))
        _write(current, "x", _artifact("x", speedup=7.0))  # 30% < 50% tol
        assert _run(current, baseline) == 0

    def test_lower_is_better_tolerance_above_one_gates(self, dirs):
        """A latency may regress by more than 100 %: ``bench_serve`` tracks
        its latencies at tolerance 3.0 — up to 4x the baseline passes."""
        current, baseline = dirs
        spec = {"value": 10.0, "higher_is_better": False, "tolerance": 3.0}
        _write(baseline, "x", _artifact("x", latency_ms=spec))
        _write(current, "x", _artifact("x", latency_ms=39.0))  # 290% worse
        assert _run(current, baseline) == 0
        _write(current, "x", _artifact("x", latency_ms=41.0))  # 310% worse
        assert _run(current, baseline) == 1

    def test_tighter_threshold_flag(self, dirs):
        current, baseline = dirs
        _write(baseline, "x", _artifact("x", speedup=10.0))
        _write(current, "x", _artifact("x", speedup=9.0))  # 10% worse
        assert _run(current, baseline, "--threshold", "0.05") == 1

    def test_missing_tracked_metric_fails(self, dirs, capsys):
        current, baseline = dirs
        _write(baseline, "x", _artifact("x", speedup=10.0, ratio=4.0))
        _write(current, "x", _artifact("x", speedup=10.0))
        assert _run(current, baseline) == 1
        assert "missing from current run" in capsys.readouterr().err

    def test_untracked_metric_is_informational(self, dirs, capsys):
        current, baseline = dirs
        _write(baseline, "x", _artifact("x", speedup=10.0))
        _write(current, "x", _artifact("x", speedup=10.0, new_metric=1.0))
        assert _run(current, baseline) == 0
        assert "untracked metric" in capsys.readouterr().out

    def test_no_baseline_is_informational_first_run(self, dirs, capsys):
        current, baseline = dirs
        _write(current, "x", _artifact("x", speedup=1.0))
        assert _run(current, baseline) == 0
        assert "no committed baseline" in capsys.readouterr().out

    def test_no_artifacts_at_all_fails(self, dirs):
        current, baseline = dirs
        assert _run(current, baseline) == 1

    def test_zero_baseline_never_divides(self, dirs):
        current, baseline = dirs
        _write(baseline, "x", _artifact("x", speedup=0.0))
        _write(current, "x", _artifact("x", speedup=123.0))
        assert _run(current, baseline) == 0

    def test_malformed_artifact_is_a_named_error(self, dirs):
        current, baseline = dirs
        (current / "BENCH_bad.json").write_text("{not json")
        with pytest.raises(SystemExit, match="cannot read"):
            _run(current, baseline)
        (current / "BENCH_bad.json").write_text('{"bench": "b"}')
        with pytest.raises(SystemExit, match="no 'metrics' mapping"):
            _run(current, baseline)


class TestWriteBaseline:
    def test_copies_artifacts_for_commit(self, dirs):
        current, baseline = dirs
        path = _write(current, "x", _artifact("x", speedup=3.0))
        assert _run(current, baseline, "--write-baseline") == 0
        target = baseline / path.name
        assert json.loads(target.read_text()) == json.loads(path.read_text())
        # The refreshed baseline immediately gates the same run green.
        assert _run(current, baseline) == 0

    def test_creates_missing_baseline_dir(self, tmp_path):
        current = tmp_path / "current"
        baseline = tmp_path / "nested" / "baselines"
        _write(current, "x", _artifact("x", speedup=3.0))
        assert _run(current, baseline, "--write-baseline") == 0
        assert (baseline / "BENCH_x.json").exists()


class TestConsolidate:
    def test_merges_all_artifacts(self, dirs):
        current, baseline = dirs
        _write(current, "a", _artifact("a", speedup=3.0))
        _write(current, "b", _artifact("b", ratio=4.0))
        out = current / "BENCH_perf.json"
        assert _run(current, baseline, "--consolidate", str(out)) == 0
        merged = json.loads(out.read_text())
        assert merged["format"] == "bench-perf"
        assert sorted(merged["benches"]) == ["a", "b"]
        assert merged["benches"]["a"]["metrics"]["speedup"]["value"] == 3.0

    def test_consolidated_file_excluded_from_rescan(self, dirs):
        current, baseline = dirs
        _write(current, "a", _artifact("a", speedup=3.0))
        out = current / "BENCH_perf.json"
        assert _run(current, baseline, "--consolidate", str(out)) == 0
        # A second run with BENCH_perf.json present must not diff it.
        assert _run(current, baseline, "--consolidate", str(out)) == 0

    def test_duplicate_bench_name_refused(self, dirs):
        current, baseline = dirs
        _write(current, "a1", _artifact("same", speedup=3.0))
        _write(current, "a2", _artifact("same", speedup=4.0))
        with pytest.raises(SystemExit, match="both claim bench"):
            _run(current, baseline, "--consolidate", str(current / "BENCH_perf.json"))


class TestRequireBaseline:
    def test_missing_baseline_fails_with_refresh_command(self, dirs, capsys):
        current, baseline = dirs
        _write(current, "x", _artifact("x", speedup=1.0))
        assert _run(current, baseline, "--require-baseline") == 1
        err = capsys.readouterr().err
        assert "MISSING" in err
        assert "--write-baseline" in err  # tells the dev the exact fix

    def test_present_baseline_still_gates_normally(self, dirs):
        current, baseline = dirs
        _write(baseline, "x", _artifact("x", speedup=10.0))
        _write(current, "x", _artifact("x", speedup=9.0))
        assert _run(current, baseline, "--require-baseline") == 0
        _write(current, "x", _artifact("x", speedup=5.0))  # 50% regression
        assert _run(current, baseline, "--require-baseline") == 1

    def test_write_baseline_then_require_passes(self, dirs):
        current, baseline = dirs
        _write(current, "x", _artifact("x", speedup=3.0))
        assert _run(current, baseline, "--write-baseline") == 0
        assert _run(current, baseline, "--require-baseline") == 0


class TestCheckConsistency:
    def test_byte_identical_passes(self, dirs, capsys):
        current, baseline = dirs
        path = _write(current, "x", _artifact("x", speedup=3.0))
        (baseline / path.name).write_bytes(path.read_bytes())
        assert _run(current, baseline, "--check-consistency") == 0
        assert "byte-identical" in capsys.readouterr().out

    def test_differing_bytes_fail_with_refresh_command(self, dirs, capsys):
        current, baseline = dirs
        _write(current, "x", _artifact("x", speedup=3.0))
        _write(baseline, "x", _artifact("x", speedup=3.0000001))
        assert _run(current, baseline, "--check-consistency") == 1
        err = capsys.readouterr().err
        assert "differs from a fresh run" in err
        assert "--write-baseline" in err

    def test_missing_baseline_fails(self, dirs, capsys):
        current, baseline = dirs
        _write(current, "x", _artifact("x", speedup=3.0))
        assert _run(current, baseline, "--check-consistency") == 1
        assert "no committed baseline" in capsys.readouterr().err

    def test_malformed_current_artifact_is_a_named_error(self, dirs):
        current, baseline = dirs
        (current / "BENCH_bad.json").write_text("{not json")
        with pytest.raises(SystemExit, match="cannot read"):
            _run(current, baseline, "--check-consistency")

    def test_ignores_thresholds_entirely(self, dirs):
        """Even a wild regression passes if bytes match (that's the point:
        the check gates baseline freshness, not performance)."""
        current, baseline = dirs
        path = _write(current, "x", _artifact("x", speedup=0.001))
        (baseline / path.name).write_bytes(path.read_bytes())
        assert _run(current, baseline, "--check-consistency") == 0


class TestChangeRatio:
    def test_signs(self):
        cr = bench_compare.change_ratio
        assert cr(8.0, 10.0, True) == pytest.approx(0.2)    # hib down: worse
        assert cr(12.0, 10.0, True) == pytest.approx(-0.2)  # hib up: better
        assert cr(12.0, 10.0, False) == pytest.approx(0.2)  # lib up: worse
        assert cr(5.0, 10.0, False) == pytest.approx(-0.5)  # lib down: better
        assert cr(42.0, 0.0, True) == 0.0                   # zero base: no-op
