"""The check half of ``tools/reach.py`` on a synthetic ledger.

The tool's drivers take a minute; the rule they feed is small. Here a tiny
fixture package stands in for ``src/repro`` and a hand-written set of
``file:line`` hits for the profiler's ledger, so each violation kind is
shown to fail the check and a clean ledger to pass it. Nothing is driven.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]


def _load_reach():
    if "reach" not in sys.modules:
        spec = importlib.util.spec_from_file_location("reach", REPO_ROOT / "tools" / "reach.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules["reach"] = module  # dataclasses resolves cls.__module__
        spec.loader.exec_module(module)
    return sys.modules["reach"]


reach = _load_reach()

FIXTURE = '''\
# kept: an option no driver picks
def optional():
    return 1


def used():
    def inner():
        return 2
    return inner()


# kept: every method: a protocol each backend implements
class Protocol:
    def read(self):
        return b""

    def write(self, data):
        return len(data)


class Plain:
    # kept: operator need: a readable value
    @property
    def shown(self):
        return "x"

    @staticmethod
    def helper():
        return 3
'''


@pytest.fixture()
def funcs(tmp_path):
    pkg = tmp_path / "src" / "fixture"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "mod.py").write_text(FIXTURE)
    return {f.name: f for f in reach.functions(pkg)}


def hits(*fns) -> set[str]:
    """The ledger lines a profiled process writes for ``fns``: a decorated
    function is entered at its first decorator's line."""
    return {f"{f.path}:{f.first}" for f in fns}


def clean(funcs) -> set[str]:
    return hits(funcs["used"], funcs["inner"], funcs["read"], funcs["helper"])


def test_every_def_is_listed_with_its_kept_line(funcs):
    assert sorted(funcs) == ["helper", "inner", "optional", "read", "shown", "used", "write"]
    assert funcs["optional"].kept and funcs["shown"].kept
    assert not funcs["used"].kept and not funcs["inner"].kept
    assert funcs["read"].owner == funcs["write"].owner is not None
    assert funcs["helper"].owner is None
    assert funcs["shown"].first == funcs["shown"].line - 1  # its @property


def test_a_clean_ledger_passes(funcs):
    assert reach.check(list(funcs.values()), clean(funcs)) == []


def test_unreached_without_a_kept_line_fails(funcs):
    problems = reach.check(list(funcs.values()), clean(funcs) - hits(funcs["inner"]))
    assert len(problems) == 1
    assert "inner is reached by no driver and has no # kept: line" in problems[0]


def test_a_kept_line_on_a_reached_function_fails(funcs):
    problems = reach.check(list(funcs.values()), clean(funcs) | hits(funcs["shown"]))
    assert len(problems) == 1
    assert "shown is reached: its # kept: line is stale" in problems[0]


def test_a_class_kept_line_covers_every_unreached_method(funcs):
    assert reach.check(list(funcs.values()), clean(funcs) - hits(funcs["read"])) == []


def test_a_class_kept_line_that_covers_nothing_unreached_fails(funcs):
    problems = reach.check(list(funcs.values()), clean(funcs) | hits(funcs["write"]))
    assert len(problems) == 1
    assert "every method of this class is reached" in problems[0]


def test_the_ledger_is_the_union_of_every_process_file(funcs, tmp_path):
    ledger = tmp_path / "ledger"
    ledger.mkdir()
    lines = sorted(clean(funcs))
    (ledger / "101.txt").write_text("\n".join(lines[:2]) + "\n")
    (ledger / "202.txt").write_text("\n".join(lines[2:]) + "\n")
    assert reach.read_ledger(ledger) == clean(funcs)
    assert reach.check(list(funcs.values()), reach.read_ledger(ledger)) == []
