"""Compare two sets of benchmark runs.

    python3 benchmarks/e2e/compare.py A1.json A2.json ... -- B1.json B2.json ...

Each file is a document written by ``run.py --out``. For every (metric,
workload) pairing the two sides' medians and quartiles are printed, and —
for the end-to-end metrics, which carry a bound in ``BENCHMARK.json`` —
one verdict:

* ``unresolved``  either side's quartile spread is wider than the bound;
* ``regressed``   B's median is worse than A's by more than the bound;
* ``improved``    B's median is better than A's by more than the bound;
* ``unchanged``   otherwise.

Per-layer metrics have no bound and get no verdict. Running one commit
against itself (the A/A check) must print ``unchanged`` everywhere. Exits
1 when anything regressed.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from pathlib import Path
from statistics import median, quantiles

SPEC = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def load(paths: list[str]) -> dict[tuple[str, str], list[float]]:
    """``(workload, metric) -> values`` over every run in ``paths``."""
    values: dict[tuple[str, str], list[float]] = defaultdict(list)
    for path in paths:
        for run in json.loads(Path(path).read_text())["runs"]:
            for name, metric in run["metrics"].items():
                values[(run["workload"], name)].append(metric["value"])
    return values


def summary(values: list[float]) -> tuple[float, float, float]:
    """``(first quartile, median, third quartile)``."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = quantiles(values, n=4)
    return q1, median(values), q3


def verdict(a: list[float], b: list[float], better: str, bound: float) -> str:
    (a1, am, a3), (b1, bm, b3) = summary(a), summary(b)
    if am == 0:
        return "unchanged" if bm == 0 else "unresolved"
    if (a3 - a1) / abs(am) > bound or (bm and (b3 - b1) / abs(bm) > bound):
        return "unresolved"
    worse = (bm - am) / abs(am) * (1 if better == "lower" else -1)
    if worse > bound:
        return "regressed"
    return "improved" if worse < -bound else "unchanged"


def main(argv: list[str]) -> int:
    if "--" not in argv:
        print(__doc__)
        return 2
    split = argv.index("--")
    a, b = load(argv[:split]), load(argv[split + 1:])
    spec = json.loads(SPEC.read_text())
    bounded = {m["name"]: m for m in spec["end_to_end"]}
    regressed = False
    print(f"{'workload':15s} {'metric':34s} {'A q1/median/q3':>38s} {'B q1/median/q3':>38s}  verdict")
    for key in sorted(set(a) & set(b)):
        workload, name = key
        rule = bounded.get(name)
        result = verdict(a[key], b[key], rule["better"], rule["bound"]) if rule else "-"
        regressed |= result == "regressed"
        sides = ["/".join(f"{v:.5g}" for v in summary(side[key])) for side in (a, b)]
        print(f"{workload:15s} {name:34s} {sides[0]:>38s} {sides[1]:>38s}  {result}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
