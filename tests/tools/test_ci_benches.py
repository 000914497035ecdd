"""Every system benchmark runs in CI.

pytest does not collect ``bench_*.py`` in tier-1, so a bench that no CI
job names runs nowhere and its asserts gate nothing. A paper-shape claim
belongs in a registry entry's ``check(...)`` instead.
"""

from __future__ import annotations

import re
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[2]
_CI = _ROOT / ".github" / "workflows" / "ci.yml"


def test_every_bench_is_named_in_ci():
    ci = _CI.read_text()
    benches = sorted(p.name for p in (_ROOT / "benchmarks").glob("bench_*.py"))
    assert benches
    assert [b for b in benches if f"benchmarks/{b}" not in ci] == []


def test_every_bench_named_in_ci_exists():
    # A deleted bench must leave CI too, or the job that names it errors.
    named = set(re.findall(r"benchmarks/(bench_\w+\.py)", _CI.read_text()))
    assert named
    assert sorted(n for n in named if not (_ROOT / "benchmarks" / n).is_file()) == []
