"""The suite's layout, checked on its own source: ``tests/strategies.py`` is
the only module with ``@st.composite`` strategies; every ``reference_*`` /
``oracle_*`` function (a kept implementation production code is checked
against) is under ``tests/oracles/``, which CI's "Bytes first" step runs
whole; and no module imports from a ``test_*`` module (shared helpers live
in ``strategies.py``, a ``conftest.py`` or a non-test module of
``tests/oracles/``)."""

from __future__ import annotations

import ast
import re
from functools import cache
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent


@cache
def _modules() -> tuple:
    return tuple((path.relative_to(TESTS).as_posix(), ast.parse(path.read_text()))
                 for path in sorted(TESTS.rglob("*.py")))


def _functions(tree):
    return [n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]


def composites(name, tree):
    return [] if name == "strategies.py" else [
        f"{name}:{f.lineno} {f.name}" for f in _functions(tree) for d in f.decorator_list
        if getattr(d, "attr", getattr(d, "id", None)) == "composite"]


def stray_oracles(name, tree):
    return [] if name.startswith("oracles/") else [
        f"{name}:{f.lineno} {f.name}" for f in _functions(tree)
        if re.match(r"_?(reference|oracle)_", f.name)]


def imports_of_test_modules(name, tree):
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            modules = [node.module or ""] + [f"{node.module}.{a.name}" for a in node.names]
        elif isinstance(node, ast.Import):
            modules = [a.name for a in node.names]
        else:
            continue
        if any(part.startswith("test_") for m in modules for part in m.split(".")):
            found.append(f"{name}:{node.lineno} {ast.unparse(node)}")
    return found


@pytest.mark.parametrize("rule", [composites, stray_oracles, imports_of_test_modules],
                         ids=lambda rule: rule.__name__)
def test_the_suite_keeps_its_layout(rule):
    assert [v for name, tree in _modules() for v in rule(name, tree)] == []


@pytest.mark.parametrize("rule, name, source, caught", [
    (composites, "amr/test_x.py", "@st.composite\ndef boxes(draw): pass", 1),
    (composites, "oracles/test_x.py", "@composite\ndef boxes(draw): pass", 1),
    (composites, "strategies.py", "@st.composite\ndef boxes(draw): pass", 0),
    (stray_oracles, "viz/test_x.py", "def _reference_render(mesh): pass", 1),
    (stray_oracles, "test_x.py", "class T:\n    def oracle_decode(self): pass", 1),
    (stray_oracles, "oracles/common.py", "def _reference_render(mesh): pass", 0),
    (stray_oracles, "insitu/test_x.py", "def test_union_oracle(): pass", 0),
    (imports_of_test_modules, "serve/test_x.py", "from tests.serve.test_net_cli import f", 1),
    (imports_of_test_modules, "serve/test_x.py", "from .test_net_cli import f", 1),
    (imports_of_test_modules, "serve/conftest.py", "from tests.serve import test_net_cli", 1),
    (imports_of_test_modules, "viz/test_x.py", "import test_render", 1),
    (imports_of_test_modules, "serve/test_x.py", "from tests.serve.conftest import f", 0),
    (imports_of_test_modules, "oracles/test_x.py", "from tests.oracles.common import f", 0),
])
def test_each_rule_catches_what_it_names(rule, name, source, caught):
    assert len(rule(name, ast.parse(source))) == caught
