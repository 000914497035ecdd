"""Documentation health: the tools/check_docs.py contract, run in-process.

The CI ``docs`` job runs the same checker as a subprocess; these tests
keep it honest locally (the repo's own docs must be clean) and verify the
checker actually catches what it claims to catch.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]


def _load_checker():
    spec = importlib.util.spec_from_file_location(
        "check_docs", REPO_ROOT / "tools" / "check_docs.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("check_docs", module)
    spec.loader.exec_module(module)
    return module


checker = _load_checker()


class TestRepoDocsAreClean:
    def test_no_broken_links(self):
        assert checker.check_links(REPO_ROOT) == []

    def test_all_python_snippets_compile(self):
        assert checker.check_python_snippets(REPO_ROOT) == []

    def test_every_api_index_name_is_bound_where_listed(self):
        assert checker.check_api_names(REPO_ROOT) == []

    def test_every_performance_pointer_resolves(self):
        assert checker.check_perf_pointers(REPO_ROOT) == []

    def test_main_exits_zero(self, capsys):
        assert checker.main([str(REPO_ROOT)]) == 0
        assert "0 problem(s)" in capsys.readouterr().out

    def test_key_documents_exist_and_are_scanned(self):
        names = {p.name for p in checker.iter_markdown_files(REPO_ROOT)}
        assert {"README.md", "architecture.md", "container_format.md",
                "api.md"} <= names


class TestCheckerCatchesRot:
    def test_broken_relative_link_reported(self, tmp_path):
        (tmp_path / "doc.md").write_text("see [spec](missing/file.md)")
        errors = checker.check_links(tmp_path)
        assert len(errors) == 1 and "missing/file.md" in errors[0]

    def test_fragment_stripped_before_check(self, tmp_path):
        (tmp_path / "other.md").write_text("# other")
        (tmp_path / "doc.md").write_text("see [o](other.md#section)")
        assert checker.check_links(tmp_path) == []

    def test_external_links_skipped(self, tmp_path):
        (tmp_path / "doc.md").write_text(
            "[a](https://example.com/x) [b](mailto:x@y.z) [c](#anchor)"
        )
        assert checker.check_links(tmp_path) == []

    def test_bad_python_snippet_reported(self, tmp_path):
        (tmp_path / "doc.md").write_text(
            "```python\ndef broken(:\n```\n\n```python\nx = 1\n```\n"
        )
        errors = checker.check_python_snippets(tmp_path)
        assert len(errors) == 1 and "does not compile" in errors[0]

    def test_shell_fences_ignored(self, tmp_path):
        (tmp_path / "doc.md").write_text(
            "```sh\nthis --is 'not python'\n```\n"
        )
        assert checker.check_python_snippets(tmp_path) == []

    def test_main_exits_nonzero_on_problems(self, tmp_path, capsys):
        (tmp_path / "doc.md").write_text("[x](gone.md)")
        assert checker.main([str(tmp_path)]) == 1
        assert "broken link" in capsys.readouterr().err

    def test_stale_api_index_row_reported(self, tmp_path):
        pkg = tmp_path / "src" / "repro" / "pkg"
        pkg.mkdir(parents=True)
        (pkg / "__init__.py").write_text(
            "from repro.pkg.mod import kept\n__all__ = ['kept', 'listed']\n"
            "def __getattr__(name):\n    if name == 'lazy':\n        return 1\n"
        )
        (tmp_path / "docs").mkdir()
        (tmp_path / "docs" / "api.md").write_text(
            "## `repro.pkg` — a package\n\n| Name | Summary |\n|---|---|\n"
            "| `kept` / `listed` / `lazy` | bound |\n| `gone` | deleted |\n"
            "| `Other.method` | a `gone2` in the summary is not a name |\n\n"
            "## Prose\n\n| `free` | not under a module |\n"
        )
        errors = checker.check_api_names(tmp_path)
        assert errors == [
            "docs/api.md:6: `gone` is not bound in repro.pkg",
            "docs/api.md:7: `Other` is not bound in repro.pkg",
        ]

    def test_dangling_performance_pointer_reported(self, tmp_path):
        page = "performance.md"  # a name, so the text of this file holds no pointer
        (tmp_path / "docs").mkdir()
        (tmp_path / "docs" / page).write_text(
            "# Performance\n\n## PR 23 — one writer lane\n\n### Decode lane\n\n"
            "| PR | claim |\n|---|---|\n| PR 24 | one decode lane |\n"
        )
        (tmp_path / "mod.py").write_text(
            f"# resolves: ({page}, PR 23), ({page} § PR 23, § PR 24),\n"
            f'# ({page}, "decode lane"), and a bare ({page}) names nothing\n'
            f'# dangles: ({page} § PR 24, § PR 99) and ({page}, "Writer lane")\n'
        )
        (tmp_path / "CHANGES.md").write_text(f"history: ({page} § PR 7)\n")
        assert checker.check_perf_pointers(tmp_path) == [
            "mod.py:3: docs/performance.md has no heading or row PR 99",
            'mod.py:3: docs/performance.md has no heading or row "Writer lane"',
        ]
        assert checker.main([str(tmp_path)]) == 1
