#!/usr/bin/env python
"""Reachability ledger: which functions of ``src/repro`` any driver runs.

Run from anywhere (about 35 s on a 2-core box)::

    python tools/reach.py

It runs every driver of the library under a stdlib profiler and never the
tests (the CLI's inputs come from ``repro.sims``): the experiment registry (``run all --quick``), the four e2e
workloads at ``--scale smoke`` (``setup()``, one ``block()``,
``verify()``; ``benchmarks/e2e/`` is imported, not edited), the CLI's 11
subcommands plus ``stream --sim warpx`` (one file and two shards) on small
inputs,
``tools/faultsim.py all --quick`` and every ``examples/*.py`` at its
smallest scale. The profiler (``coverage`` is not a dependency) is
:func:`install`, loaded by a generated ``sitecustomize.py`` so that every
Python process of a run — subprocesses and forked pool workers included —
records the ``file:line`` of each code object it enters under
``src/repro``.

Every ``def`` left unreached must say why it stays: a ``# kept:`` comment
on the line above it (above its first decorator), or a
``# kept: every method:`` line above its class. The check exits 1, one
line per violation, when

* a function no driver reaches has no ``# kept:`` line, or
* a function that carries its own ``# kept:`` line is reached (the line
  is stale), or a class's ``# kept: every method:`` line covers no
  unreached method.

It prints each driver's exit code and time, then the reached count and
every unreached function by module, then the violations. Exit 0 when
clean.
"""

from __future__ import annotations

import ast
import atexit
import os
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
KEPT = "# kept:"
CLASS_KEPT = "# kept: every method:"


# --------------------------------------------------------------------- profiler


def install(out_dir: str) -> None:
    """Record every code object this process enters under a ``repro``
    package; write their ``file:line`` to ``out_dir/<pid>.txt`` at exit."""
    codes = set()

    def prof(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    def dump():
        sep = os.sep + "repro" + os.sep
        hits = {f"{c.co_filename}:{c.co_firstlineno}" for c in list(codes)
                if sep in c.co_filename and "site-packages" not in c.co_filename}
        with open(os.path.join(out_dir, f"{os.getpid()}.txt"), "a") as f:
            f.write("".join(h + "\n" for h in sorted(hits)))

    def child():
        # multiprocessing children leave through os._exit: run at its finalizers
        import multiprocessing.util as mu
        codes.clear()
        mu.Finalize(None, dump, exitpriority=100)

    sys.setprofile(prof)
    threading.setprofile(prof)
    atexit.register(dump)
    os.register_at_fork(after_in_child=child)


_SITECUSTOMIZE = """\
import importlib.util, os, sys
if os.environ.get("REPRO_LEDGER"):
    _spec = importlib.util.spec_from_file_location("_repro_reach", {path!r})
    _reach = sys.modules["_repro_reach"] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(_reach)
    _reach.install(os.environ["REPRO_LEDGER"])
"""


# ---------------------------------------------------------------------- report


@dataclass(frozen=True)
class Function:
    path: Path
    name: str
    line: int  # the ``def`` line
    first: int  # the first decorator's line, else ``line``
    n_lines: int
    kept: bool  # its own ``# kept:`` line
    owner: int | None  # line of a ``# kept: every method:`` class it sits in

    def hit(self, hits: set[str]) -> bool:
        # a code object's first line is its first decorator's
        return f"{self.path}:{self.first}" in hits


def _comment_above(lines: list[str], node) -> str:
    first = min([node.lineno] + [d.lineno for d in node.decorator_list])
    return lines[first - 2].strip() if first >= 2 else ""


def functions(src: Path) -> list[Function]:
    """Every ``def`` (methods and nested functions included) under ``src``."""
    out = []
    for path in sorted(Path(src).resolve().rglob("*.py")):
        text = path.read_text()
        lines = text.splitlines()

        def walk(node, owner):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    kept = _comment_above(lines, child).startswith(CLASS_KEPT)
                    walk(child, child.lineno if kept else None)
                elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    out.append(Function(
                        path, child.name, child.lineno, first, child.end_lineno - first + 1,
                        _comment_above(lines, child).startswith(KEPT), owner))
                    walk(child, None)
                else:
                    walk(child, owner)

        walk(ast.parse(text), None)
    return out


def read_ledger(ledger: Path) -> set[str]:
    hits = set()
    for f in Path(ledger).glob("*.txt"):
        hits.update(f.read_text().split())
    return hits


def check(funcs: list[Function], hits: set[str]) -> list[str]:
    """One line per violation of the ``# kept:`` rule (see the module doc)."""
    problems = []
    classes = defaultdict(list)
    for fn in funcs:
        reached = fn.hit(hits)
        if fn.owner is not None:
            classes[(fn.path, fn.owner)].append(reached)
        if fn.kept and reached:
            problems.append(f"{fn.path}:{fn.line}: {fn.name} is reached: "
                            "its # kept: line is stale")
        elif not (reached or fn.kept or fn.owner is not None):
            problems.append(f"{fn.path}:{fn.line}: {fn.name} is reached by no driver "
                            "and has no # kept: line")
    for (path, line), reached in classes.items():
        if all(reached):
            problems.append(f"{path}:{line}: every method of this class is reached: "
                            "its # kept: every method: line is stale")
    return problems


def report(funcs: list[Function], hits: set[str], src: Path) -> str:
    """Reached count, then each module's unreached functions."""
    missed = defaultdict(list)
    for fn in funcs:
        if not fn.hit(hits):
            missed[fn.path.relative_to(Path(src).resolve().parent)].append(fn)
    n_missed = sum(len(v) for v in missed.values())
    rows = [f"reached {len(funcs) - n_missed} of {len(funcs)} functions"]
    for mod, fns in missed.items():
        rows.append(f"{mod}: {sum(f.n_lines for f in fns)} lines: "
                    + ", ".join(f"{f.name}:{f.line}" for f in fns))
    return "\n".join(rows)


# --------------------------------------------------------------------- drivers

_E2E = """\
import sys
from pathlib import Path
sys.path.insert(0, sys.argv[1] + "/benchmarks/e2e")
import trace, workloads
for name, cls in workloads.WORKLOADS.items():
    d = Path("e2e") / name
    d.mkdir(parents=True)
    w = cls(1, workloads.SCALES["smoke"], d, trace.TracingBackend())
    w.setup(); w.block(0, False); w.verify(); w.close()
"""

_INPUTS = """\
import numpy as np
from repro.amr import write_plotfile
from repro.amr.io import write_sharded_series
from repro.sims.nyx import NyxConfig, nyx_hierarchy, nyx_timesteps
np.save("a.npy", np.random.default_rng(0).random((16, 16, 16)))
write_plotfile("plt", nyx_hierarchy(NyxConfig(coarse_n=8)))
write_sharded_series("camp.rphm", nyx_timesteps(config=NyxConfig(coarse_n=8)),
                     n_shards=2, parity=1, parallel="serial")
"""

_CLIENT = """\
from repro.serve import TCPClient
port = int(open("serve.log").read().split(":")[-1].split()[0])
with TCPClient("127.0.0.1", port) as c:
    c.ping(); c.meta(); c.plan(step=0, level=0)
    c.query(step=0, level=0); c.stats(); c.shutdown()
"""

_CUT = """\
d = open("run.rph2s", "rb").read()
open("cut.rph2s", "wb").write(d[:-40])
"""


def _steps(repo: Path, work: Path) -> list[tuple[str, list[str], bool]]:
    """``(label, argv, must_succeed)`` for every driver but the server."""
    py, cli = sys.executable, [sys.executable, "-m", "repro.compression"]
    ex = repo / "examples"
    return [
        ("registry", [py, "-m", "repro.experiments", "run", "all", "--quick",
                      "--out", str(work / "reg")], True),
        ("e2e workloads", [py, "-c", _E2E, str(repo)], True),
        ("CLI inputs", [py, "-c", _INPUTS], True),
        ("compress", cli + ["compress", "a.npy", "-o", "a.rprc"], True),
        ("decompress", cli + ["decompress", "a.rprc", "-o", "b.npy"], True),
        ("info", cli + ["info", "a.rprc"], True),
        ("compress-plotfile", cli + ["compress-plotfile", "plt", "-o", "h.rprh"], True),
        ("inspect", cli + ["inspect", "h.rprh"], True),
        ("extract", cli + ["extract", "h.rprh", "--level", "1", "--patch", "0",
                           "-o", "p.npz"], True),
        ("stream", cli + ["stream", "--sim", "nyx", "--steps", "2", "-o", "run.rph2s"], True),
        ("stream --sim warpx", cli + ["stream", "--sim", "warpx", "--steps", "2",
                                      "-o", "warpx.rph2s"], True),
        ("stream --shards 2", cli + ["stream", "--sim", "warpx", "--steps", "2",
                                     "--shards", "2", "-o", "warpx.rphm"], True),
        ("cut a series", [py, "-c", _CUT], True),
        ("recover", cli + ["recover", "cut.rph2s"], False),
        ("scrub", cli + ["scrub", "camp.rphm"], True),
        ("repair", cli + ["repair", "camp.rphm"], True),
        ("faultsim", [py, str(repo / "tools" / "faultsim.py"), "all", "--quick"], True),
        ("quickstart", [py, str(ex / "quickstart.py"), str(work / "qs")], True),
        ("amr_viz_primer", [py, str(ex / "amr_viz_primer.py")], True),
        ("campaign_planning", [py, str(ex / "campaign_planning.py"), "--scale", "0.25"], True),
        ("nyx_compression_study", [py, str(ex / "nyx_compression_study.py"),
                                   "--scale", "0.25"], True),
        ("parallel_insitu", [py, str(ex / "parallel_insitu.py"), "--scale", "0.25",
                             "--workers", "2"], True),
        ("warpx_visual_study", [py, str(ex / "warpx_visual_study.py"), "--scale", "0.25",
                                "--out", str(work / "warpx")], True),
    ]


def _run(label: str, argv: list[str], env, cwd: Path, must: bool) -> None:
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=cwd, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True)
    print(f"  {label}: exit {proc.returncode} ({time.perf_counter() - t0:.1f} s)")
    if must and proc.returncode != 0:
        raise SystemExit(f"reach: driver {label!r} failed (exit {proc.returncode}):\n"
                         f"{proc.stderr[-2000:]}")


def _serve(env, cwd: Path) -> None:
    """``serve`` on the campaign, asked ping/meta/plan/query/stats/shutdown."""
    log = cwd / "serve.log"
    with open(log, "w") as out:
        server = subprocess.Popen(
            [sys.executable, "-m", "repro.compression", "serve", "camp.rphm", "--port", "0"],
            cwd=cwd, env=env, stdout=out, stderr=subprocess.DEVNULL)
    try:
        for _ in range(100):
            if "serving" in log.read_text() or server.poll() is not None:
                break
            time.sleep(0.2)
        _run("serve client", [sys.executable, "-c", _CLIENT], env, cwd, True)
        server.wait(timeout=30)
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()


def drive(repo: Path, work: Path) -> Path:
    """Run every driver under the profiler in ``work``; return the ledger
    directory."""
    ledger, site = work / "ledger", work / "site"
    ledger.mkdir(parents=True)
    site.mkdir()
    (site / "sitecustomize.py").write_text(
        _SITECUSTOMIZE.format(path=str(Path(__file__).resolve())))
    env = dict(os.environ, REPRO_LEDGER=str(ledger),
               PYTHONPATH=os.pathsep.join([str(site), str(repo / "src")]))
    for label, argv, must in _steps(repo, work):
        _run(label, argv, env, work, must)
        if label == "repair":
            _serve(env, work)
    return ledger


def main() -> int:
    src = REPO / "src" / "repro"
    with tempfile.TemporaryDirectory(prefix="reach-") as work:
        hits = read_ledger(drive(REPO, Path(work)))
    funcs = functions(src)
    print(report(funcs, hits, src))
    problems = check(funcs, hits)
    for line in problems:
        print(line)
    print(f"{len(problems)} violation(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
