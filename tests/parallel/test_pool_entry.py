"""``pool=`` is the one way to say where work runs.

Every snapshot and series entry point takes a
:class:`~repro.parallel.WorkerPool` (or ``None``: inline on the caller's
thread) and no other argument for that decision. A closed pool is refused
before a byte is read or written, and no public callable takes the mode,
process-count or in-flight knobs back, outside the allow-list below.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
from contextlib import ExitStack
from functools import partial

import pytest

import repro
from repro.amr.io import append_step, write_series, write_sharded_series
from repro.compression.amr_codec import (
    compress_hierarchy,
    decompress_hierarchy,
    decompress_selection,
)
from repro.errors import CompressionError
from repro.insitu import StreamingWriter
from repro.parallel import EXECUTION_MODES, WorkerPool
from repro.storage import ByteSink, ByteSource
from tests.conftest import make_sphere_hierarchy

#: Each entry point as ``(root, hierarchy, opened) -> call``: ``call(pool=)``
#: makes the request; ``opened(name)`` opens a reader before the spy starts.
ENTRY_POINTS = {
    "compress_hierarchy": lambda root, h, opened: partial(compress_hierarchy, h, "sz-lr", 1e-3),
    "decompress_hierarchy": lambda root, h, opened: partial(
        decompress_hierarchy, opened("snap.rph2"), h),
    "decompress_selection": lambda root, h, opened: partial(
        decompress_selection, root / "run.rph2s"),
    "ContainerReader.select": lambda root, h, opened: opened("snap.rph2").select,
    "SeriesReader.select": lambda root, h, opened: opened("run.rph2s").select,
    "ShardedSeriesReader.select": lambda root, h, opened: opened("camp.rphm").select,
    "StreamingWriter.create": lambda root, h, opened: partial(
        StreamingWriter.create, root / "new.rph2s", "sz-lr", 1e-3),
    "StreamingWriter.append_to": lambda root, h, opened: partial(
        StreamingWriter.append_to, root / "run.rph2s"),
    "write_series": lambda root, h, opened: partial(write_series, root / "new.rph2s", [h]),
    "append_step": lambda root, h, opened: partial(append_step, root / "run.rph2s", h),
}


@pytest.fixture
def files(tmp_path):
    hierarchy = make_sphere_hierarchy(8)
    (tmp_path / "snap.rph2").write_bytes(compress_hierarchy(hierarchy, "sz-lr", 1e-3).tobytes())
    write_series(tmp_path / "run.rph2s", [hierarchy, hierarchy])
    write_sharded_series(tmp_path / "camp.rphm", [hierarchy, hierarchy], n_shards=2,
                         parallel="serial")
    return tmp_path, hierarchy


def _spy_on_bytes(monkeypatch) -> list[str]:
    """Record every source opened or read and every sink made or written."""
    seen: list[str] = []
    for cls, name in ((ByteSource, "__init__"), (ByteSource, "view"),
                      (ByteSink, "__init__"), (ByteSink, "write")):
        def spy(self, *args, _real=getattr(cls, name), _what=f"{cls.__name__}.{name}",
                **kwargs):
            seen.append(_what)
            return _real(self, *args, **kwargs)

        monkeypatch.setattr(cls, name, spy)
    return seen


@pytest.mark.parametrize("mode", EXECUTION_MODES)
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_a_closed_pool_is_refused_before_a_byte_moves(files, monkeypatch, entry, mode):
    """Whatever the mode: a segment writer runs a serial pool's work inline
    and a selection copies streams only for a process pool, so neither may
    be where the refusal happens."""
    root, hierarchy = files
    before = {path.name: path.read_bytes() for path in root.iterdir()}
    pool = WorkerPool(mode)
    pool.close()
    with ExitStack() as stack:
        call = ENTRY_POINTS[entry](root, hierarchy,
                                   lambda name: stack.enter_context(repro.open(root / name)))
        seen = _spy_on_bytes(monkeypatch)
        with pytest.raises(CompressionError, match="worker pool is closed"):
            call(pool=pool)
        assert seen == []
    assert {path.name: path.read_bytes() for path in root.iterdir()} == before


#: Who may still name a mode, a process count or an in-flight window.
ALLOWED = {
    # The pool itself: the one place a mode and a count are checked.
    "repro.parallel.pool.WorkerPool": {"workers"},
    "repro.parallel.pool.check_workers": {"workers"},
    # benchmarks/e2e/workloads.py:340 builds QueryService(..., workers=2, ...).
    "repro.serve.service.QueryService": {"workers"},
    # benchmarks/e2e/workloads.py:141 calls write_sharded_series(..., parallel=parallel),
    # which hands its mode to ShardedSeriesWriter.create; the campaign's
    # max_pending_steps window rides the same pinned signature.
    "repro.amr.io.write_sharded_series": {"parallel"},
    "repro.insitu.sharded.ShardedSeriesWriter.create": {"parallel", "max_pending_steps"},
    "repro.insitu.sharded.ShardedSeriesWriter": {"max_pending_steps"},
}


def _is_knob(name: str) -> bool:
    return name in ("parallel", "workers") or name.startswith("max_pending")


def _public_callables():
    """``(qualified name, callable)`` for every public function, class and
    public method of every ``repro`` module."""
    modules = [repro] + [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
        if not info.name.endswith("__main__")
    ]
    seen = set()
    for module in modules:
        for name in getattr(module, "__all__", [n for n in vars(module) if not n.startswith("_")]):
            obj = getattr(module, name, None)
            if not callable(obj) or not getattr(obj, "__module__", "").startswith("repro"):
                continue
            members = [(obj.__qualname__, obj)]
            if inspect.isclass(obj):
                members += [  # inherited ones too: SeriesReader.select is _SeriesView's
                    (f"{obj.__qualname__}.{attr}", getattr(obj, attr))
                    for attr in dir(obj)
                    if not attr.startswith("_")
                    and (isinstance(raw := inspect.getattr_static(obj, attr),
                                    (classmethod, staticmethod)) or inspect.isfunction(raw))
                ]
            for qualname, fn in members:
                key = f"{obj.__module__}.{qualname}"
                if key not in seen:
                    seen.add(key)
                    yield key, fn


def test_no_public_callable_takes_the_old_knobs():
    walked = dict(_public_callables())
    assert {"repro.compression.amr_codec.compress_hierarchy",
            "repro.compression.container.ContainerReader.select",
            "repro.insitu.series.SeriesReader.select",
            "repro.insitu.writer.StreamingWriter.append_to",
            *ALLOWED} <= set(walked)
    found = {}
    for key, fn in walked.items():
        try:
            names = inspect.signature(fn).parameters
        except (TypeError, ValueError):
            continue
        knobs = {name for name in names if _is_knob(name)} - ALLOWED.get(key, set())
        if knobs:
            found[key] = sorted(knobs)
    assert found == {}
