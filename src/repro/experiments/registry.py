"""The experiment registry: every paper figure/table as a CI-gated benchmark.

One table — :data:`EXPERIMENTS` — declares every reproduction experiment:
its group (``figures`` / ``tables`` / ``ablations`` / ``scenarios``), the
function that computes it, the scales it runs at, and the metrics it emits
(each with a unit, a gate direction, and an optional regression
tolerance). The registry replaces one ad-hoc ``bench_*`` driver per figure
with declarative entries; ``benchmarks/bench_registry.py`` runs them under
pytest-benchmark (``-k <name>`` for a single figure).

Running an entry does three things:

1. computes the experiment at the requested scale (``--quick`` uses the
   entry's ``quick_scale`` — the deterministic PR-CI size; the default is
   ``full_scale``, the nightly size),
2. re-asserts the paper-shape checks the legacy drivers carried (a failed
   check raises :class:`~repro.errors.ExperimentError` — the claim itself
   broke, not just a metric drifted),
3. emits a ``BENCH_<name>.json`` artifact through
   ``benchmarks/perf_harness.py`` for ``tools/bench_compare.py`` to gate
   against ``benchmarks/baselines/``.

Registry artifacts are **deterministic**: fixed seeds, metric values
rounded to :data:`SIG_FIGS` significant digits, and no RSS/timing
annotations — so a fresh ``--quick`` run is byte-identical to the
committed baselines (the ``bench-registry-consistency`` CI job asserts
exactly that via ``bench_compare --check-consistency``).

CLI (also reachable as ``python -m repro.experiments run ...``)::

    python -m repro.experiments run all --quick --out bench-out
    python -m repro.experiments run figures --quick
    python -m repro.experiments run fig09 table2 --scale 0.5
    python -m repro.experiments list
"""

from __future__ import annotations

import argparse
import importlib.util
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


def _perf_harness():
    """The shared artifact writer (``benchmarks/perf_harness.py``).

    ``benchmarks/`` is not a package; pytest puts it on ``sys.path`` but
    the CLI runs from anywhere in the repo, so fall back to loading the
    module straight off the repo layout (``src/repro/...`` -> repo root).
    """
    try:
        import perf_harness  # type: ignore

        return perf_harness
    except ImportError:
        pass
    path = Path(__file__).resolve().parents[3] / "benchmarks" / "perf_harness.py"
    spec = importlib.util.spec_from_file_location("perf_harness", path)
    if spec is None or spec.loader is None:  # pragma: no cover - repo layout
        raise ExperimentError(f"cannot load perf_harness from {path}")
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("perf_harness", module)
    spec.loader.exec_module(module)
    return module


def run_experiment(
    name: str,
    quick: bool = False,
    scale: float | None = None,
    out_dir: Path | str | None = None,
) -> ExperimentResult:
    """Run one registry entry: compute, check, and (optionally) emit.

    ``scale`` overrides the spec's quick/full scales when given. With
    ``out_dir``, writes ``BENCH_<name>.json`` there through
    ``perf_harness.write_artifact`` (schema-validated, deterministic — no
    RSS annotation).
    """
    load_all()
    spec = EXPERIMENTS.get(name)
    if spec is None:
        raise ExperimentError(
            f"unknown experiment {name!r}; have {list(EXPERIMENTS)}"
        )
    run_scale = float(
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
        artifact = _perf_harness().write_artifact(
            Path(out_dir), name, records, run_scale
        )
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
        prog="repro-experiments-registry",
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
