"""Smoke test of the end-to-end benchmark (collected by tier-1).

Runs every workload traced and untraced at ``--scale smoke`` and checks
that what ``run.py`` emits is exactly what ``BENCHMARK.json`` declares,
and that tracing leaves the library as it found it.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

import compare
import run
import trace as e2e_trace
from workloads import WORKLOADS

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_benchmark_json_is_well_formed():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer") for entry in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(0 < metric["bound"] <= 0.25 for metric in SPEC["end_to_end"])
    assert any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
               for m in SPEC["end_to_end"])
    # the reason for each workload is recorded beside its code, too
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        name: cls.why for name, cls in WORKLOADS.items()}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_emitted_metrics_are_the_declared_ones(name, trace):
    result = run.run_workload(name, seed=3, seconds=0.2, trace=bool(trace), scale="smoke")
    result.pop("info")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    emitted = {key: metric["unit"] for key, metric in result["metrics"].items()}
    assert emitted == declared
    if not trace:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_tracer_restores_every_patched_attribute():
    assert e2e_trace.__file__ == str(Path(__file__).with_name("trace.py"))
    tracer = e2e_trace.Tracer()
    with tracer:
        assert not tracer.restored()
        patched = sum(vars(ns)[key] is new for ns, key, _, new in tracer.sites())
        assert patched == len(tracer.sites()) > len(e2e_trace.ENTRY_POINTS)
    assert tracer.restored()


def test_compare_verdicts(tmp_path):
    def document(path, values):
        runs = [{"workload": "w", "metrics": {"op_latency_ms": {"value": v, "unit": "ms"}}}
                for v in values]
        path.write_text(json.dumps({"runs": runs}))
        return str(path)

    bound = next(m["bound"] for m in SPEC["end_to_end"] if m["name"] == "op_latency_ms")
    steady = [10.0, 10.1, 10.2, 9.9, 10.0]
    base = document(tmp_path / "a.json", steady)
    slow = document(tmp_path / "b.json", [v * (1 + 2 * bound) for v in steady])
    wide = document(tmp_path / "c.json", [v * (1 + k * bound) for k, v in zip((-2, -1, 0, 1, 2), steady)])
    a, b, c = (compare.load([p])[("w", "op_latency_ms")] for p in (base, slow, wide))
    assert compare.verdict(a, a, "lower", bound) == "unchanged"
    assert compare.verdict(a, b, "lower", bound) == "regressed"
    assert compare.verdict(b, a, "lower", bound) == "improved"
    assert compare.verdict(a, c, "lower", bound) == "unresolved"
    assert compare.main([base, "--", slow]) == 1
