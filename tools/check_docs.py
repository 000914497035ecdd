#!/usr/bin/env python
"""Documentation checker: intra-repo Markdown links, Python snippets, the
names of the API index and the pointers into the performance page.

Run from anywhere::

    python tools/check_docs.py [repo_root]

Four checks, all zero-dependency (nothing is imported or executed):

1. **Link resolution** — every relative link/image target in every
   tracked ``*.md`` file must exist on disk (external ``http(s)``/
   ``mailto`` links and pure ``#anchors`` are skipped; a ``#fragment``
   on a relative link is stripped before the existence check).
2. **Python snippets** — every ```` ```python ```` fence in the Markdown
   files must at least *compile* (syntax check; nothing is executed), so
   README/docs examples cannot silently rot into syntax errors.
3. **API index names** — in each ``## `repro.x` `` section of
   ``docs/api.md``, every backticked name in the first column of a table
   row must be bound at the top level of that module's source (an import,
   ``def``, ``class``, assignment or ``__all__`` entry, or a name the
   module's ``__getattr__`` answers), read with :mod:`ast`.
4. **Performance pointers** — wherever a text file outside ``CHANGES.md``
   and ``ROADMAP.md`` (which log history) names ``docs/performance.md``
   followed by ``§ PR N``, ``, PR N`` or a quoted section title (further
   ``, § PR M`` / ``, "Title"`` items may follow), each ``PR N`` must name
   a heading or the first cell of a table row of that page, and each
   quoted title must be one of its headings.

Exit status 0 when clean; 1 with one line per problem otherwise. Wired
into CI as the ``docs`` job and exercised by ``tests/test_docs.py``.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

__all__ = [
    "iter_markdown_files", "check_links", "check_python_snippets", "check_api_names",
    "check_perf_pointers", "main",
]

#: Directories never scanned.
_SKIP_DIRS = {".git", ".pytest_cache", "__pycache__", "node_modules", ".venv",
              ".hypothesis", ".bench_e2e_tmp"}

#: Inline links/images: [text](target) / ![alt](target). Targets with
#: spaces or nested parens are not used in this repo and are ignored.
_LINK_RE = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)\)")

#: Fenced python code blocks (``` or ~~~, optional info-string suffix).
_FENCE_RE = re.compile(
    r"^(?P<fence>```+|~~~+)python\s*$(?P<body>.*?)^(?P=fence)\s*$",
    re.MULTILINE | re.DOTALL,
)


def iter_markdown_files(root: Path, pattern: str = "*.md") -> list[Path]:
    """All files matching ``pattern`` under ``root`` (Markdown by default),
    skipping vendored/cache dirs."""
    out = []
    for path in sorted(root.rglob(pattern)):
        if path.is_file() and not _SKIP_DIRS.intersection(p.name for p in path.parents):
            out.append(path)
    return out


def _is_external(target: str) -> bool:
    return target.startswith(("http://", "https://", "mailto:", "ftp://"))


def check_links(root: Path) -> list[str]:
    """Return one error string per unresolved intra-repo link."""
    errors = []
    for md in iter_markdown_files(root):
        for match in _LINK_RE.finditer(md.read_text(encoding="utf-8")):
            target = match.group(1)
            if _is_external(target) or target.startswith("#"):
                continue
            rel = target.split("#", 1)[0]
            if not rel:
                continue
            resolved = (md.parent / rel).resolve()
            if not resolved.exists():
                errors.append(
                    f"{md.relative_to(root)}: broken link -> {target}"
                )
    return errors


def check_python_snippets(root: Path) -> list[str]:
    """Return one error string per non-compiling ```python fence."""
    errors = []
    for md in iter_markdown_files(root):
        text = md.read_text(encoding="utf-8")
        for i, match in enumerate(_FENCE_RE.finditer(text)):
            snippet = match.group("body")
            try:
                compile(snippet, f"{md.name}:snippet-{i}", "exec")
            except SyntaxError as exc:
                errors.append(
                    f"{md.relative_to(root)}: python snippet {i} does not "
                    f"compile: {exc.msg} (line {exc.lineno})"
                )
    return errors


#: A section of the API index that documents one module: ``## `repro.x` ...``.
_SECTION_RE = re.compile(r"^## `(repro(?:\.\w+)*)`")

#: The leading identifier of a backticked first-column entry.
_NAME_RE = re.compile(r"`([A-Za-z_]\w*)")


def _module_names(path: Path) -> set[str]:
    """Names bound at the top level of a module's source, plus the string
    constants its ``__getattr__`` compares against."""
    names: set[str] = set()
    body = list(ast.parse(path.read_text(encoding="utf-8")).body)
    while body:
        node = body.pop()
        if isinstance(node, (ast.If, ast.Try)):
            body.extend(node.body + node.orelse + getattr(node, "finalbody", []))
            body.extend(h for handler in getattr(node, "handlers", []) for h in handler.body)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
            if node.name == "__getattr__":
                names.update(c.value for c in ast.walk(node)
                             if isinstance(c, ast.Constant) and isinstance(c.value, str))
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                names.update(c.value for c in ast.walk(node.value)
                             if isinstance(c, ast.Constant) and isinstance(c.value, str))
    return names


def check_api_names(root: Path, doc: str = "docs/api.md") -> list[str]:
    """Return one error string per name ``docs/api.md`` lists under a
    module that the module's source does not bind."""
    path = root / doc
    if not path.is_file():
        return []
    errors, module, names = [], None, set()
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        if line.startswith("## "):
            match = _SECTION_RE.match(line)
            module = match.group(1) if match else None
            if module:
                parts = module.split(".")
                source = root / "src" / Path(*parts) / "__init__.py"
                if not source.is_file():
                    source = root / "src" / Path(*parts[:-1]) / f"{parts[-1]}.py"
                if not source.is_file():
                    errors.append(f"{doc}:{lineno}: no source for module {module}")
                    module = None
                else:
                    names = _module_names(source)
            continue
        if module is None or not line.startswith("|"):
            continue
        first = line.split("|")[1]
        for name in _NAME_RE.findall(first):
            if name not in names:
                errors.append(f"{doc}:{lineno}: `{name}` is not bound in {module}")
    return errors


#: The page the pointers name, and the files that only log history.
_PERF_PAGE = "docs/performance.md"
_PERF_LOGS = {"CHANGES.md", "ROADMAP.md"}

#: Files a pointer may live in.
_POINTER_SUFFIXES = {".md", ".py", ".yml", ".yaml", ".json", ".txt"}

#: ``performance.md`` (closing quote/link marks allowed), then one or more
#: ``§ PR N`` / ``, PR N`` / ``, "Title"`` items.
_ITEM = r'(?:§\s*)?(?:PR\s+\d+|"[^"\n]+")'
_POINTER_RE = re.compile(
    r'performance\.md[`*\])]*(?P<items>(?:\s*§\s*|\s*,\s*)' + _ITEM
    + r'(?:\s*,\s*' + _ITEM + r')*)'
)
_TARGET_RE = re.compile(r'PR\s+(\d+)|"([^"\n]+)"')


def _perf_targets(page: Path) -> tuple[set[str], set[str]]:
    """The page's ``PR N`` names (from headings and first table cells) and
    its heading titles, lower-cased."""
    prs, titles = set(), set()
    for line in page.read_text(encoding="utf-8").splitlines():
        if line.startswith("#"):
            title = line.lstrip("#").strip()
            titles.add(title.lower())
        elif line.startswith("|"):
            title = line.split("|")[1]
        else:
            continue
        prs.update(re.findall(r"\bPR (\d+)\b", title))
    return prs, titles


def check_perf_pointers(root: Path) -> list[str]:
    """Return one error string per pointer into the performance page that
    names no heading or row of it."""
    page = root / _PERF_PAGE
    prs, titles = _perf_targets(page) if page.is_file() else (set(), set())
    errors = []
    for path in iter_markdown_files(root, "*"):
        if path.suffix not in _POINTER_SUFFIXES or path.name in _PERF_LOGS:
            continue
        text = path.read_text(encoding="utf-8", errors="replace")
        for match in _POINTER_RE.finditer(text):
            lineno = text.count("\n", 0, match.start()) + 1
            for pr, title in _TARGET_RE.findall(match.group("items")):
                if (pr and pr not in prs) or (title and title.lower() not in titles):
                    name = f"PR {pr}" if pr else f'"{title}"'
                    errors.append(f"{path.relative_to(root)}:{lineno}: {_PERF_PAGE} "
                                  f"has no heading or row {name}")
    return errors


def main(argv: list[str] | None = None) -> int:
    """CLI entry point: check the repo rooted at ``argv[0]`` (default: the
    parent of this script's directory)."""
    args = sys.argv[1:] if argv is None else argv
    root = Path(args[0]).resolve() if args else Path(__file__).resolve().parents[1]
    problems = (check_links(root) + check_python_snippets(root) + check_api_names(root)
                + check_perf_pointers(root))
    for problem in problems:
        print(problem, file=sys.stderr)
    files = iter_markdown_files(root)
    print(f"checked {len(files)} Markdown files under {root}: "
          f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
