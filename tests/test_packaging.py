"""Packaging: every third-party module ``src/repro`` imports is declared,
both in ``setup.py``'s ``install_requires`` and in ``requirements-dev.txt``
(every CI job's only install), and ``setup.py`` reports the package's
version without importing it."""

from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

import repro

REPO = Path(__file__).resolve().parents[1]


def _third_party_imports() -> set[str]:
    found = set()
    for path in (REPO / "src" / "repro").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found.update(name.partition(".")[0] for name in names)
    # benchmarks/perf_harness.py is the repo's own, loaded by path
    local = {p.stem for p in (REPO / "benchmarks").glob("*.py")}
    return found - set(sys.stdlib_module_names) - local - {"repro", "__future__"}


def _setup_keywords() -> dict:
    tree = ast.parse((REPO / "setup.py").read_text())
    call = next(n for n in ast.walk(tree) if isinstance(n, ast.Call)
                and getattr(n.func, "id", None) == "setup")
    return {k.arg: k.value for k in call.keywords}


def test_every_third_party_import_is_declared():
    imported = _third_party_imports()
    assert {"numpy", "scipy"} <= imported
    requires = set(ast.literal_eval(_setup_keywords()["install_requires"]))
    lines = (REPO / "requirements-dev.txt").read_text().splitlines()
    dev = {line.strip() for line in lines if line.strip() and not line.startswith("#")}
    assert imported <= requires
    assert imported <= dev


def test_setup_reports_the_package_version():
    assert ast.literal_eval(_setup_keywords()["name"]) == "repro"
    out = subprocess.run([sys.executable, "setup.py", "--version"], cwd=REPO,
                         capture_output=True, text=True, check=True).stdout
    assert out.split()[-1] == repro.__version__ == "1.0.0"
