"""The experiment registry: every paper figure/table as a CI-gated benchmark.

One table — :data:`EXPERIMENTS` — declares every reproduction experiment:
its group (``figures`` / ``tables`` / ``ablations`` / ``scenarios``), the
function that computes it, the scales it runs at, and the metrics it emits
(each with a unit, a gate direction, and an optional regression
tolerance). The registry replaces one ad-hoc ``bench_*`` driver per figure
with declarative entries, and it is the one way an experiment runs: the
CLI below, tier-1 (``tests/experiments/test_experiment_registry.py`` runs
every entry at quick scale), PR CI and nightly all call
:func:`run_experiment`.

Running an entry does three things:

1. computes the experiment at the requested scale (``--quick`` uses the
   entry's ``quick_scale`` — the deterministic PR-CI size; the default is
   ``full_scale``, the nightly size),
2. re-asserts the paper-shape checks the legacy drivers carried (a failed
   check raises :class:`~repro.errors.ExperimentError` — the claim itself
   broke, not just a metric drifted),
3. emits a ``BENCH_<name>.json`` artifact through :func:`write_artifact`
   (the one artifact writer; ``benchmarks/perf_harness.py`` uses it too)
   for ``tools/bench_compare.py`` to gate against ``benchmarks/baselines/``.

Registry artifacts are **deterministic**: fixed seeds, metric values
rounded to :data:`SIG_FIGS` significant digits, and no RSS/timing
annotations — so a fresh ``--quick`` run is byte-identical to the
committed baselines (the ``bench-registry-consistency`` CI job asserts
exactly that via ``bench_compare --check-consistency``).

CLI (``python -m repro.experiments`` is this ``main``)::

    python -m repro.experiments run all --quick --out bench-out
    python -m repro.experiments run figures --quick
    python -m repro.experiments run fig09 table2 --scale 0.5
    python -m repro.experiments list
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field as dc_field
from pathlib import Path
from typing import Any, Callable, Mapping

from repro.errors import ExperimentError

__all__ = [
    "MetricSpec",
    "ExperimentSpec",
    "ExperimentResult",
    "EXPERIMENTS",
    "GROUP_NAMES",
    "SIG_FIGS",
    "register",
    "check",
    "round_sig",
    "load_all",
    "groups",
    "resolve",
    "run_experiment",
    "write_artifact",
    "validate_artifact",
    "main",
]

#: Significant digits metric values are rounded to before emission — the
#: contract that makes registry artifacts byte-stable across runs.
SIG_FIGS = 6

#: The registry's experiment groups, in display order.
GROUP_NAMES = ("figures", "tables", "ablations", "scenarios")


@dataclass(frozen=True)
class MetricSpec:
    """Declared gate semantics of one emitted metric."""

    unit: str
    #: Gate direction: throughput/effect-strength up, error/overhead down.
    higher_is_better: bool = True
    #: Optional per-metric regression tolerance (fraction) overriding
    #: ``bench_compare``'s default 20%.
    tolerance: float | None = None


@dataclass(frozen=True)
class ExperimentSpec:
    """One registry entry: a paper figure/table/ablation as a benchmark."""

    name: str
    group: str
    title: str
    #: ``fn(scale) -> {metric_name: value}``; must also run the entry's
    #: paper-shape checks (raising ExperimentError on violation) and must
    #: be deterministic at a fixed scale.
    fn: Callable[[float], Mapping[str, float]]
    #: Declared metrics; ``fn`` must return exactly these keys.
    metrics: Mapping[str, MetricSpec] = dc_field(default_factory=dict)
    #: Scale used by ``--quick`` (PR CI) and by default (nightly).
    quick_scale: float = 0.25
    full_scale: float = 0.5


@dataclass(frozen=True)
class ExperimentResult:
    """Outcome of one registry run (checks passed; metrics computed)."""

    name: str
    group: str
    scale: float
    #: metric name -> full artifact record (value/unit/higher_is_better).
    metrics: dict[str, dict[str, Any]]
    #: Artifact path when an output directory was given, else None.
    artifact: Path | None


#: The registry. Populate via :func:`register`; read via :func:`load_all`.
EXPERIMENTS: dict[str, ExperimentSpec] = {}


def register(
    name: str,
    group: str,
    title: str,
    metrics: Mapping[str, MetricSpec],
    quick_scale: float = 0.25,
    full_scale: float = 0.5,
):
    """Decorator registering ``fn`` as experiment ``name`` in ``group``.

    Duplicate names and unknown groups are rejected at import time — a
    typo fails the test that imports the fleet, not a nightly run.
    """

    def wrap(fn: Callable[[float], Mapping[str, float]]):
        if name in EXPERIMENTS:
            raise ExperimentError(f"duplicate experiment name {name!r}")
        if group not in GROUP_NAMES:
            raise ExperimentError(
                f"experiment {name!r} has unknown group {group!r} "
                f"(have {GROUP_NAMES})"
            )
        if not metrics:
            raise ExperimentError(f"experiment {name!r} declares no metrics")
        EXPERIMENTS[name] = ExperimentSpec(
            name=name,
            group=group,
            title=title,
            fn=fn,
            metrics=dict(metrics),
            quick_scale=float(quick_scale),
            full_scale=float(full_scale),
        )
        return fn

    return wrap


def check(condition: bool, message: str) -> None:
    """Assert a paper-shape property of an experiment's results.

    Used by the fleet entries in place of the legacy drivers' bare
    ``assert`` so the checks also run outside pytest (CLI, nightly).
    """
    if not condition:
        raise ExperimentError(f"experiment check failed: {message}")


def round_sig(value: float, sig: int = SIG_FIGS) -> float:
    """Round to ``sig`` significant digits (artifact determinism)."""
    v = float(value)
    if v == 0 or not math.isfinite(v):
        return v
    return round(v, sig - 1 - int(math.floor(math.log10(abs(v)))))


def load_all() -> dict[str, ExperimentSpec]:
    """Import every entry module and return the populated registry."""
    # Deferred: fleet/scenarios import the registry back for @register.
    from repro.experiments import fleet, scenarios  # noqa: F401

    return EXPERIMENTS


# kept: `run <group>` and `list` resolve group names through it
def groups() -> dict[str, tuple[str, ...]]:
    """Group name -> member experiment names (registration order)."""
    out: dict[str, tuple[str, ...]] = {}
    for g in GROUP_NAMES:
        members = tuple(n for n, s in EXPERIMENTS.items() if s.group == g)
        if members:
            out[g] = members
    return out


def resolve(selectors) -> tuple[str, ...]:
    """Expand names/groups/``all`` into concrete experiment names.

    Order follows the registry (stable across runs); duplicates collapse.
    Unknown selectors raise with the full menu.
    """
    load_all()
    chosen: list[str] = []
    for sel in selectors:
        if sel == "all":
            matched = list(EXPERIMENTS)
        elif sel in GROUP_NAMES:
            matched = [n for n, s in EXPERIMENTS.items() if s.group == sel]
        elif sel in EXPERIMENTS:
            matched = [sel]
        else:
            raise ExperimentError(
                f"unknown experiment or group {sel!r}; have groups "
                f"{list(groups())} and experiments {list(EXPERIMENTS)}"
            )
        for name in matched:
            if name not in chosen:
                chosen.append(name)
    return tuple(chosen)


def write_artifact(
    out_dir: Path,
    bench: str,
    metrics: Mapping[str, Mapping[str, Any]],
    scale: float,
    peak_rss: float | None = None,
) -> Path:
    """Write one ``BENCH_<bench>.json`` artifact and return its path: the
    one writer of :func:`run_experiment` and ``benchmarks/perf_harness.py``.
    ``peak_rss`` is an optional, machine-volatile annotation — registry
    runs omit it so their artifacts stay byte-comparable against committed
    baselines (the ``bench-registry-consistency`` CI check).
    """
    doc: dict[str, Any] = {
        "bench": bench,
        "scale": float(scale),
        "metrics": {k: dict(v) for k, v in metrics.items()},
    }
    if peak_rss is not None:
        doc["peak_rss_mb"] = peak_rss
    validate_artifact(doc)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"BENCH_{bench}.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


def validate_artifact(doc: Mapping[str, Any]) -> None:
    """Raise ``ValueError`` unless ``doc`` matches the artifact schema.

    Schema: ``bench`` (str), ``scale`` (number), ``metrics`` (mapping of
    metric name -> record with numeric ``value``, str ``unit``, bool
    ``higher_is_better``, and optional ``tolerance``: a finite fraction > 0,
    at most 1 when higher is better — a throughput cannot fall by more than
    all of itself, while a latency can regress to several times its
    baseline); ``peak_rss_mb`` is optional and may be null.
    """
    if not isinstance(doc.get("bench"), str) or not doc["bench"]:
        raise ValueError("artifact 'bench' must be a non-empty string")
    if not isinstance(doc.get("scale"), (int, float)) or isinstance(doc.get("scale"), bool):
        raise ValueError("artifact 'scale' must be a number")
    metrics = doc.get("metrics")
    if not isinstance(metrics, Mapping) or not metrics:
        raise ValueError("artifact 'metrics' must be a non-empty mapping")
    for name, entry in metrics.items():
        if not isinstance(name, str) or not name:
            raise ValueError("metric names must be non-empty strings")
        if not isinstance(entry, Mapping):
            raise ValueError(f"metric {name!r} record must be a mapping")
        value = entry.get("value")
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ValueError(f"metric {name!r} 'value' must be a number")
        if not isinstance(entry.get("unit"), str):
            raise ValueError(f"metric {name!r} 'unit' must be a string")
        if not isinstance(entry.get("higher_is_better"), bool):
            raise ValueError(f"metric {name!r} 'higher_is_better' must be a bool")
        tolerance = entry.get("tolerance")
        limit = 1.0 if entry["higher_is_better"] else sys.float_info.max
        if "tolerance" in entry and (
            not isinstance(tolerance, (int, float))
            or isinstance(tolerance, bool)
            or not 0 < tolerance <= limit  # false for NaN
        ):
            raise ValueError(
                f"metric {name!r} 'tolerance' must be in (0, 1] when higher is "
                f"better, positive and finite otherwise; got {tolerance!r}"
            )
        unknown = set(entry) - {"value", "unit", "higher_is_better", "tolerance"}
        if unknown:
            raise ValueError(f"metric {name!r} has unknown keys {sorted(unknown)}")


def _checked_scale(scale: float) -> float:
    """``scale`` as a float, refused unless finite and > 0."""
    value = float(scale)
    if not (math.isfinite(value) and value > 0):
        raise ExperimentError(f"scale must be finite and > 0, got {scale!r}")
    return value


def run_experiment(
    name: str,
    quick: bool = False,
    scale: float | None = None,
    out_dir: Path | str | None = None,
) -> ExperimentResult:
    """Run one registry entry: compute, check, and (optionally) emit.

    ``scale`` overrides the spec's quick/full scales when given; it must be
    finite and > 0. With ``out_dir``, writes ``BENCH_<name>.json`` there
    through :func:`write_artifact` (schema-validated, deterministic — no
    RSS annotation).
    """
    load_all()
    spec = EXPERIMENTS.get(name)
    if spec is None:
        raise ExperimentError(
            f"unknown experiment {name!r}; have {list(EXPERIMENTS)}"
        )
    run_scale = _checked_scale(
        scale if scale is not None
        else (spec.quick_scale if quick else spec.full_scale)
    )
    values = dict(spec.fn(run_scale))
    declared = set(spec.metrics)
    if set(values) != declared:
        raise ExperimentError(
            f"experiment {name!r} returned metrics {sorted(values)} but "
            f"declares {sorted(declared)}"
        )
    records: dict[str, dict[str, Any]] = {}
    for metric in sorted(values):
        mspec = spec.metrics[metric]
        entry: dict[str, Any] = {
            "value": round_sig(values[metric]),
            "unit": mspec.unit,
            "higher_is_better": mspec.higher_is_better,
        }
        if mspec.tolerance is not None:
            entry["tolerance"] = float(mspec.tolerance)
        records[metric] = entry
    artifact = None
    if out_dir is not None:
        artifact = write_artifact(Path(out_dir), name, records, run_scale)
    return ExperimentResult(
        name=name, group=spec.group, scale=run_scale,
        metrics=records, artifact=artifact,
    )


def _format_result(result: ExperimentResult) -> str:
    lines = [f"{result.name} [{result.group}] @ scale {result.scale:g}"]
    for metric, entry in result.metrics.items():
        arrow = "^" if entry["higher_is_better"] else "v"
        lines.append(
            f"  {metric:<36} {entry['value']:>12.6g} {entry['unit']:<6} ({arrow})"
        )
    if result.artifact is not None:
        lines.append(f"  wrote {result.artifact}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    """Registry CLI: ``run <name|group|all>... [--quick] [--out DIR]``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Run registry experiments and emit BENCH_<name>.json artifacts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run experiments by name, group, or 'all'")
    runp.add_argument(
        "selectors", nargs="+",
        help=f"experiment names, group names {GROUP_NAMES}, or 'all'",
    )
    runp.add_argument(
        "--quick", action="store_true",
        help="use each entry's quick_scale (deterministic PR-CI size)",
    )
    runp.add_argument(
        "--scale", type=float, default=None,
        help="explicit scale overriding quick/full",
    )
    runp.add_argument(
        "--out", type=Path, default=None, metavar="DIR",
        help="directory for BENCH_<name>.json artifacts",
    )
    sub.add_parser("list", help="list registered experiments by group")
    args = parser.parse_args(argv)

    if args.command == "list":
        load_all()
        for group, members in groups().items():
            print(f"{group}:")
            for name in members:
                spec = EXPERIMENTS[name]
                print(f"  {name:<24} {spec.title}")
        return 0

    try:
        names = resolve(args.selectors)
        if args.scale is not None:
            _checked_scale(args.scale)
    except ExperimentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    failed = 0
    for name in names:
        try:
            result = run_experiment(
                name, quick=args.quick, scale=args.scale, out_dir=args.out
            )
        except ExperimentError as exc:
            failed += 1
            print(f"FAIL {name}: {exc}", file=sys.stderr)
            continue
        print(_format_result(result))
    if failed:
        print(f"registry: {failed}/{len(names)} experiment(s) failed", file=sys.stderr)
        return 1
    print(f"registry: {len(names)} experiment(s) passed")
    return 0
