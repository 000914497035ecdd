"""Packaging: every third-party module ``src/repro`` imports is declared,
both in ``setup.py``'s ``install_requires`` and in ``requirements-dev.txt``
(every CI job's only install), and ``setup.py`` reports the package's
version without importing it."""

from __future__ import annotations

import ast
import json
import os
import shutil
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
    return found - set(sys.stdlib_module_names) - {"repro", "__future__"}


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


def test_the_registry_runs_from_a_copy_of_the_package_alone(tmp_path):
    """``repro`` needs nothing of the checkout: a copy of ``src/repro``
    outside it imports every module, lists the registry and runs and
    writes an experiment."""
    shutil.copytree(REPO / "src" / "repro", tmp_path / "site" / "repro",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {**os.environ, "PYTHONPATH": str(tmp_path / "site")}

    def run(*args: str) -> str:
        proc = subprocess.run([sys.executable, *args], cwd=tmp_path, env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    imported = run("-c", "import importlib, pkgutil, repro\n"
                   "for m in pkgutil.walk_packages(repro.__path__, 'repro.'):\n"
                   "    importlib.import_module(m.name)\n"
                   "print(repro.__file__)")
    assert imported.strip() == str(tmp_path / "site" / "repro" / "__init__.py")
    assert "table1" in run("-m", "repro.experiments", "list")
    run("-m", "repro.experiments", "run", "table1", "--quick", "--out", str(tmp_path / "out"))
    doc = json.loads((tmp_path / "out" / "BENCH_table1.json").read_text())
    assert doc["bench"] == "table1" and doc["metrics"]
