"""Tier-1 tests for the experiment registry (the CI-gated benchmark fleet).

Every registered entry actually runs here at quick scale — a broken paper
check or a metric/declaration mismatch fails tier-1, not a nightly run.
The registry's own contract (duplicate rejection, group resolution, gate
directions, artifact schema, CLI) is pinned alongside.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import ExperimentError
from repro.experiments.registry import (
    EXPERIMENTS,
    GROUP_NAMES,
    MetricSpec,
    check,
    groups,
    load_all,
    main,
    register,
    resolve,
    round_sig,
    run_experiment,
)

load_all()


# ----------------------------------------------------------------------
# The fleet itself: every entry runs quick and honours its declaration
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_entry_runs_quick_and_emits_schema_valid_artifact(name, tmp_path):
    result = run_experiment(name, quick=True, out_dir=tmp_path)
    spec = EXPERIMENTS[name]
    assert result.scale == spec.quick_scale
    assert set(result.metrics) == set(spec.metrics)
    # The artifact exists, parses, and passes the shared schema validator.
    assert result.artifact == tmp_path / f"BENCH_{name}.json"
    doc = json.loads(result.artifact.read_text())
    from repro.experiments.registry import _perf_harness

    _perf_harness().validate_artifact(doc)
    assert doc["bench"] == name
    assert doc["scale"] == spec.quick_scale
    # Deterministic artifacts never carry the RSS annotation.
    assert "peak_rss_mb" not in doc


def test_tolerance_schema_follows_the_metric_direction():
    """A lower-is-better metric can regress by more than 100 %, a
    higher-is-better one cannot; ``record`` applies the artifact's own
    check, so a bad value fails where it is written."""
    from repro.experiments.registry import _perf_harness

    harness = _perf_harness()

    def doc(tolerance, higher_is_better):
        entry = {"value": 1.0, "unit": "ms", "higher_is_better": higher_is_better,
                 "tolerance": tolerance}
        return {"bench": "b", "scale": 0.25, "metrics": {"m": entry}}

    for tolerance, higher in [(3.0, False), (0.25, False), (1.0, True), (0.9, True)]:
        harness.validate_artifact(doc(tolerance, higher))
        harness.record("tolerance_schema_probe", "m", 1.0, "ms", higher, tolerance)
    bad = [(3.0, True), (0.0, False), (-1.0, False), (float("inf"), False),
           (float("nan"), False), (True, False), ("0.5", True)]
    try:
        for tolerance, higher in bad:
            with pytest.raises(ValueError, match="tolerance"):
                harness.validate_artifact(doc(tolerance, higher))
            with pytest.raises(ValueError, match="tolerance"):
                harness.record("tolerance_schema_probe", "m", 1.0, "ms", higher, tolerance)
    finally:
        harness._METRICS.pop("tolerance_schema_probe", None)


def test_every_entry_declares_gate_directions():
    for name, spec in EXPERIMENTS.items():
        assert spec.group in GROUP_NAMES
        assert spec.metrics, f"{name} declares no metrics"
        for metric, mspec in spec.metrics.items():
            assert isinstance(mspec.higher_is_better, bool), (name, metric)
            assert mspec.unit is not None
            if mspec.tolerance is not None:
                assert 0 < mspec.tolerance <= 1


def test_fleet_covers_every_paper_driver():
    """The registry absorbs all figure/table/ablation drivers + scenario."""
    have = set(EXPERIMENTS)
    expected = {
        "fig01", "fig02", "fig09", "fig10", "fig11", "fig12", "fig13", "fig14",
        "table1", "table2",
        "ablation_artifacts", "ablation_blocksize", "ablation_entropy",
        "ablation_predictor", "ablation_redundant", "ablation_zmesh",
        "warpx_mixed_bounds",
    }
    assert expected <= have


# ----------------------------------------------------------------------
# Registry contract
# ----------------------------------------------------------------------
def test_duplicate_name_rejected():
    with pytest.raises(ExperimentError, match="duplicate"):
        register("fig01", "figures", "dup", {"m": MetricSpec("x")})(lambda s: {"m": 1.0})


def test_unknown_group_rejected():
    with pytest.raises(ExperimentError, match="unknown group"):
        register("nope", "nonsense", "t", {"m": MetricSpec("x")})(lambda s: {"m": 1.0})


def test_empty_metrics_rejected():
    with pytest.raises(ExperimentError, match="declares no metrics"):
        register("nope2", "figures", "t", {})(lambda s: {})


def test_unknown_experiment_rejected():
    with pytest.raises(ExperimentError, match="unknown experiment"):
        run_experiment("does_not_exist")
    with pytest.raises(ExperimentError, match="unknown experiment or group"):
        resolve(["does_not_exist"])


def test_metric_mismatch_rejected(tmp_path):
    register(
        "_mismatch", "figures", "t", {"declared": MetricSpec("x")}
    )(lambda s: {"other": 1.0})
    try:
        with pytest.raises(ExperimentError, match="declares"):
            run_experiment("_mismatch")
    finally:
        del EXPERIMENTS["_mismatch"]


def test_resolve_groups_and_all():
    all_names = resolve(["all"])
    assert set(all_names) == set(EXPERIMENTS)
    figures = resolve(["figures"])
    assert figures and all(EXPERIMENTS[n].group == "figures" for n in figures)
    # Group + member dedups; order is registry order.
    assert resolve(["figures", "fig01"]) == figures
    by_group = groups()
    assert set(by_group) <= set(GROUP_NAMES)
    assert sorted(n for ns in by_group.values() for n in ns) == sorted(EXPERIMENTS)


def test_round_sig_is_stable():
    assert round_sig(1.23456789) == 1.23457
    assert round_sig(0.000123456789) == 0.000123457
    assert round_sig(0.0) == 0.0
    assert round_sig(float("inf")) == float("inf")


def test_check_raises_experiment_error():
    check(True, "fine")
    with pytest.raises(ExperimentError, match="paper-shape"):
        check(False, "paper-shape broke")


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for group in groups():
        assert f"{group}:" in out
    assert "fig09" in out


def test_cli_run_single_quick_writes_artifact(tmp_path, capsys):
    rc = main(["run", "fig14", "--quick", "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "BENCH_fig14.json").exists()
    out = capsys.readouterr().out
    assert "1 experiment(s) passed" in out


def test_cli_run_group_selection(tmp_path):
    rc = main(["run", "tables", "--quick", "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "BENCH_table1.json").exists()
    assert (tmp_path / "BENCH_table2.json").exists()


def test_cli_unknown_selector_fails(capsys):
    assert main(["run", "not_a_thing"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_cli_failing_check_reports_and_fails(capsys):
    register(
        "_failing", "figures", "t", {"m": MetricSpec("x")}
    )(lambda s: check(False, "boom") or {"m": 1.0})
    try:
        assert main(["run", "_failing", "--quick"]) == 1
        err = capsys.readouterr().err
        assert "FAIL _failing" in err and "boom" in err
    finally:
        del EXPERIMENTS["_failing"]


def test_module_cli_dispatches_run_subcommand(capsys):
    from repro.experiments.__main__ import main as top_main

    assert top_main(["list"]) == 0
    assert "figures:" in capsys.readouterr().out
