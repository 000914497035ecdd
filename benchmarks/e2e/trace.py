"""Outside-in tracing for the end-to-end benchmark.

Nothing under ``src/`` knows about this file. :data:`ENTRY_POINTS` names
the public entry points of each layer; :class:`Tracer` rebinds every one
of them to a timing wrapper for the duration of a ``with`` block — in the
owning module or class *and* in every loaded ``repro.*`` module whose
global is the original object, so ``from x import f`` call sites are
caught — and puts every original back on exit.

A span is ``(id, parent, op, layer, name, thread, start, end, bytes_in,
bytes_out)``. ``parent`` and ``op`` travel in :mod:`contextvars`; three
*carriers* hand the context across threads (``WorkerPool.submit`` /
``map`` and the event loop's ``run_in_executor``) so a decode task or a
ranged read started by a query is that query's child. Spans live in
per-thread lists and are drained when a traced region ends.

Two kinds of span are *waiting*, not work (layer :data:`WAIT`): the time a
task sat in a pool's queue, and the time a thread was blocked in
``Future.result``. They count as children — the caller was not busy while
it waited — but are left out of the busy totals.
"""

from __future__ import annotations

import concurrent.futures
import contextvars
import importlib
import inspect
import itertools
import json
import sys
import threading
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, NamedTuple

__all__ = [
    "ENTRY_POINTS", "LAYERS", "WAIT", "Entry", "Span", "Tracer",
    "TracingBackend", "build_ledger", "OP",
]

#: The layers of the ledger: module names under ``repro``, plus the
#: entropy and lossless stages of ``repro.compression`` (they are shared
#: by every codec and are the usual suspects).
LAYERS = (
    "sims", "compression", "entropy", "lossless", "container", "insitu",
    "storage", "integrity", "parallel", "serve", "viz", "metrics",
)

#: Pseudo-layer of queue waits and blocked ``Future.result`` calls.
WAIT = "wait"

#: Identifier of the operation (campaign, frame, query) a span belongs to.
OP: contextvars.ContextVar[int] = contextvars.ContextVar("e2e_op", default=0)
_CURRENT: contextvars.ContextVar[int] = contextvars.ContextVar("e2e_span", default=0)


class Span(NamedTuple):
    id: int
    parent: int
    op: int
    layer: str
    name: str
    thread: int
    start: float
    end: float
    bytes_in: int
    bytes_out: int


@dataclass(frozen=True)
class Entry:
    """One traced entry point.

    ``owner`` is ``"module"`` or ``"module:Class"``. ``arg`` is the index
    of the positional argument whose size is the span's ``bytes_in``
    (``self``/``cls`` is index 0). ``out`` is ``True`` to size the result
    as ``bytes_out``, or a callable ``result -> int``. With ``items`` an
    ndarray counts elements, not bytes (entropy symbols).
    """

    layer: str
    owner: str
    attr: str
    arg: int | None = None
    out: bool | Callable = False
    items: bool = False


def _sized(x, items: bool = False) -> int:
    """Payload size of an argument or result: bytes of a buffer, bytes (or
    elements, with ``items``) of an array or hierarchy, summed over the
    members of a list, tuple or dict."""
    if isinstance(x, (bytes, bytearray, memoryview)):
        return len(x)
    size = getattr(x, "size" if items else "nbytes", None)
    if size is not None:
        return int(size() if callable(size) else size)
    if isinstance(x, dict):
        x = list(x.values())
    if isinstance(x, (list, tuple)):
        return sum(_sized(v, items) for v in x)
    return 0


_CODEC = "repro.compression.sz_lr:SZLR"
_AMR = "repro.compression.amr_codec"
_BASE = "repro.compression.base"
_LOSSLESS = "repro.compression.lossless"
_CONTAINER = "repro.compression.container"
_SHARDED = "repro.insitu.sharded:ShardedSeriesWriter"
_STREAMING = "repro.insitu.writer:StreamingWriter"

#: name -> entry point. Nothing here is finer than a per-patch call.
ENTRY_POINTS: dict[str, Entry] = {
    "nyx_hierarchy": Entry("sims", "repro.sims.nyx", "nyx_hierarchy", out=True),
    # compression: the codec in use (sz-lr) and the hierarchy-level API
    "SZLR.compress": Entry("compression", _CODEC, "compress", arg=1, out=True),
    "SZLR.compress_batch": Entry("compression", _CODEC, "compress_batch", arg=1, out=True),
    "SZLR.decompress": Entry("compression", _CODEC, "decompress", arg=1, out=True),
    "decompress_any": Entry("compression", "repro.compression.registry", "decompress_any", arg=0, out=True),
    "compress_hierarchy": Entry("compression", _AMR, "compress_hierarchy", arg=0,
                                out=lambda c: c.compressed_bytes),
    "decompress_selection": Entry("compression", _AMR, "decompress_selection", out=True),
    # entropy stage shared by every codec
    "encode_codes": Entry("entropy", _BASE, "encode_codes", arg=0, out=True, items=True),
    "encode_codes_batch": Entry("entropy", _BASE, "encode_codes_batch", arg=0, out=True, items=True),
    "decode_codes": Entry("entropy", _BASE, "decode_codes", arg=0, out=True, items=True),
    "SharedCodebook.from_symbols": Entry(
        "entropy", "repro.compression.huffman:SharedCodebook", "from_symbols", arg=1, items=True),
    "SharedCodebook.from_symbols_with_inverse": Entry(
        "entropy", "repro.compression.huffman:SharedCodebook", "from_symbols_with_inverse",
        arg=1, items=True),
    # lossless backend
    "compress_bytes": Entry("lossless", _LOSSLESS, "compress_bytes", arg=0, out=True),
    "decompress_bytes": Entry("lossless", _LOSSLESS, "decompress_bytes", arg=0, out=True),
    "pack_ints": Entry("lossless", _LOSSLESS, "pack_ints", arg=0, out=True),
    "unpack_ints": Entry("lossless", _LOSSLESS, "unpack_ints", arg=0, out=True),
    # container framing and parsing
    "pack_container": Entry("container", _CONTAINER, "pack_container", out=True),
    "pack_group": Entry("container", _CONTAINER, "pack_group", out=True),
    "build_index_bytes": Entry("container", _CONTAINER, "build_index_bytes", out=True),
    "ContainerReader": Entry("container", _CONTAINER + ":ContainerReader", "__init__"),
    "CompressedHierarchy.frombytes": Entry(
        "container", _AMR + ":CompressedHierarchy", "frombytes", arg=1),
    # in-situ writers and series readers
    "ShardedSeriesWriter.create": Entry("insitu", _SHARDED, "create"),
    "ShardedSeriesWriter.append_step": Entry("insitu", _SHARDED, "append_step", arg=1),
    "ShardedSeriesWriter.close": Entry("insitu", _SHARDED, "close"),
    "StreamingWriter.append_step": Entry("insitu", _STREAMING, "append_step", arg=1),
    "StreamingWriter.rollback_step": Entry("insitu", _STREAMING, "rollback_step"),
    "StreamingWriter.close": Entry("insitu", _STREAMING, "close"),
    "SeriesReader.open": Entry("insitu", "repro.insitu.series:SeriesReader", "open"),
    "os.fsync": Entry("insitu", "os", "fsync"),
    # integrity
    "build_parity": Entry("integrity", "repro.integrity.parity", "build_parity",
                          out=lambda row: row["bytes"]),
    "scrub": Entry("integrity", "repro.integrity.scrub", "scrub",
                   out=lambda report: report.bytes_verified),
    # serve: ServeCache.get/put run once per patch of a warm query of tens of us,
    # so they are counted from the service's own stats, not wrapped
    "QueryService.query_info": Entry("serve", "repro.serve.service:QueryService", "query_info"),
    "plan_step": Entry("serve", "repro.serve.planner", "plan_step"),
    "coalesce_extents": Entry("serve", "repro.serve.planner", "coalesce_extents"),
    # viz and image metrics
    "resampling_isosurface": Entry("viz", "repro.viz.pipelines", "resampling_isosurface",
                                   out=lambda r: r.n_faces),
    "dual_cell_isosurface": Entry("viz", "repro.viz.pipelines", "dual_cell_isosurface",
                                  out=lambda r: r.n_faces),
    "render_mesh": Entry("viz", "repro.viz.render", "render_mesh", out=True),
    "ssim": Entry("metrics", "repro.metrics.ssim", "ssim", arg=1),
    "verify_error_bound": Entry("metrics", "repro.metrics.error", "verify_error_bound", arg=1),
}


class Tracer:
    """Installs the wrappers of :data:`ENTRY_POINTS` for a ``with`` block
    and collects the spans they record."""

    def __init__(self) -> None:
        self._ids = itertools.count(1)
        self._tls = threading.local()
        self._lists: list[list[tuple]] = []
        self._lock = threading.Lock()
        self._sites: list[tuple[object, str, object, object]] | None = None
        self.active = False

    # -- recording ------------------------------------------------------
    def _spans(self) -> list[tuple]:
        try:
            return self._tls.spans
        except AttributeError:
            spans = self._tls.spans = []
            with self._lock:
                self._lists.append(spans)
            return spans

    def record(self, layer: str, name: str, start: float, end: float,
               bytes_in: int = 0, bytes_out: int = 0) -> None:
        """Add a leaf span under the calling context's current span."""
        self._spans().append((
            next(self._ids), _CURRENT.get(), OP.get(), layer, name,
            threading.get_ident(), start, end, bytes_in, bytes_out,
        ))

    def drain(self) -> list[Span]:
        """All spans recorded so far, emptied from the per-thread lists."""
        with self._lock:
            out = [Span(*s) for spans in self._lists for s in spans]
            for spans in self._lists:
                spans.clear()
        return out

    # -- wrappers -------------------------------------------------------
    def _wrap(self, name: str, entry: Entry, fn):
        layer, arg, out, items = entry.layer, entry.arg, entry.out, entry.items
        ids, spans_of, get_ident = self._ids, self._spans, threading.get_ident
        size_out = None if out is False else (
            (lambda result: _sized(result, items)) if out is True else out)

        def finish(sid, parent, token, start, args, result):
            end = perf_counter()
            _CURRENT.reset(token)
            bytes_in = _sized(args[arg], items) if arg is not None and len(args) > arg else 0
            bytes_out = int(size_out(result)) if size_out is not None and result is not None else 0
            # a plain tuple in Span's field order; drain() names the fields
            spans_of().append((sid, parent, OP.get(), layer, name, get_ident(),
                               start, end, bytes_in, bytes_out))

        if inspect.iscoroutinefunction(fn):
            async def traced(*args, **kwargs):
                sid, parent = next(ids), _CURRENT.get()
                token = _CURRENT.set(sid)
                result = None
                start = perf_counter()
                try:
                    result = await fn(*args, **kwargs)
                    return result
                finally:
                    finish(sid, parent, token, start, args, result)
        else:
            def traced(*args, **kwargs):
                sid, parent = next(ids), _CURRENT.get()
                token = _CURRENT.set(sid)
                result = None
                start = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                    return result
                finally:
                    finish(sid, parent, token, start, args, result)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _carry(self, fn, queued_at: float | None):
        """``fn`` bound to a copy of the caller's context, so spans it
        records on another thread keep their parent and op. With
        ``queued_at`` the hand-off is a pool task: its queue wait and its
        run are recorded too."""
        ctx = contextvars.copy_context()
        if queued_at is None:
            return lambda *args: ctx.run(fn, *args)
        record = self.record

        def task(*args):
            start = perf_counter()
            record(WAIT, "WorkerPool.queue", queued_at, start)
            sid, parent = next(self._ids), _CURRENT.get()
            token = _CURRENT.set(sid)
            try:
                return fn(*args)
            finally:
                end = perf_counter()
                _CURRENT.reset(token)
                self._spans().append((sid, parent, OP.get(), "parallel", "WorkerPool.task",
                                      threading.get_ident(), start, end, 0, 0))

        return lambda *args: ctx.run(task, *args)

    def _carriers(self) -> list[tuple[object, str, object, object]]:
        from asyncio.base_events import BaseEventLoop
        from repro.parallel.pool import WorkerPool

        submit, pool_map = WorkerPool.submit, WorkerPool.map
        run_in_executor, result = BaseEventLoop.run_in_executor, concurrent.futures.Future.result
        tracer = self

        def traced_submit(pool, fn, *args):
            if pool.mode == "process":  # closures do not pickle; out of scope
                return submit(pool, fn, *args)
            return submit(pool, tracer._carry(fn, perf_counter()), *args)

        def traced_map(pool, fn, items):
            if pool.mode == "process":
                return pool_map(pool, fn, items)
            queued_at = perf_counter()
            # one context copy per item: a Context cannot be entered twice at once
            tasks = [(tracer._carry(fn, queued_at), item) for item in items]
            return pool_map(pool, lambda t: t[0](t[1]), tasks)

        def traced_run_in_executor(loop, executor, func, *args):
            return run_in_executor(loop, executor, tracer._carry(func, None), *args)

        def traced_result(future, timeout=None):
            start = perf_counter()
            try:
                return result(future, timeout)
            finally:
                tracer.record(WAIT, "Future.result", start, perf_counter())

        return [
            (WorkerPool, "submit", submit, traced_submit),
            (WorkerPool, "map", pool_map, traced_map),
            (BaseEventLoop, "run_in_executor", run_in_executor, traced_run_in_executor),
            (concurrent.futures.Future, "result", result, traced_result),
        ]

    # -- install / restore ----------------------------------------------
    def sites(self) -> list[tuple[object, str, object, object]]:
        """Every ``(namespace, attribute, original, replacement)`` the
        tracer rebinds; built once, when first needed."""
        if self._sites is not None:
            return self._sites
        owners = {}
        for entry in ENTRY_POINTS.values():
            module_name = entry.owner.partition(":")[0]
            owners[module_name] = importlib.import_module(module_name)
        # where each object is bound as a module global, found in one pass
        bound_at: dict[int, list[tuple[object, str]]] = defaultdict(list)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (
                mod_name == "repro" or mod_name.startswith("repro.") or mod_name in owners
            ):
                continue
            for key, value in vars(module).items():
                if inspect.isfunction(value) or inspect.isbuiltin(value):
                    bound_at[id(value)].append((module, key))
        sites = self._carriers()
        for name, entry in ENTRY_POINTS.items():
            module_name, _, class_name = entry.owner.partition(":")
            module = owners[module_name]
            if class_name:
                cls = getattr(module, class_name)
                raw = cls.__dict__[entry.attr]
                if isinstance(raw, (classmethod, staticmethod)):
                    replacement = type(raw)(self._wrap(name, entry, raw.__func__))
                else:
                    replacement = self._wrap(name, entry, raw)
                sites.append((cls, entry.attr, raw, replacement))
            else:
                original = getattr(module, entry.attr)
                replacement = self._wrap(name, entry, original)
                for namespace, key in bound_at[id(original)]:
                    sites.append((namespace, key, original, replacement))
        self._sites = sites
        return sites

    def __enter__(self) -> "Tracer":
        for namespace, key, _, replacement in self.sites():
            setattr(namespace, key, replacement)
        self.active = True
        return self

    def __exit__(self, *exc) -> None:
        self.active = False
        for namespace, key, original, _ in self.sites():
            setattr(namespace, key, original)

    def restored(self) -> bool:
        """Whether every rebound attribute is the original object again."""
        return all(vars(namespace)[key] is original
                   for namespace, key, original, _ in self.sites())


class TracingBackend:
    """A :class:`repro.storage.StorageBackend` over local files that the
    benchmark passes as ``backend=``: every ``read``/``write`` of a handle
    it opens becomes a ``storage`` span while ``tracer`` is active, and is
    a plain pass-through otherwise."""

    def __init__(self, tracer: Tracer | None = None):
        from repro.storage import LocalFileBackend

        self._inner = LocalFileBackend()
        self.tracer = tracer

    def open_read(self, name):
        return _TracedFile(self._inner.open_read(name), self)

    def open_write(self, name):
        return _TracedFile(self._inner.open_write(name), self)

    def open_append(self, name):
        return _TracedFile(self._inner.open_append(name), self)

    def __getattr__(self, attr):  # exists / size / delete / list
        return getattr(self._inner, attr)


class _TracedFile:
    def __init__(self, fileobj, backend: TracingBackend):
        self._f = fileobj
        self._backend = backend
        # everything but read/write goes straight to the file
        for attr in ("seek", "tell", "flush", "fileno", "truncate", "close"):
            setattr(self, attr, getattr(fileobj, attr))

    def read(self, size: int = -1):
        tracer = self._backend.tracer
        if tracer is None or not tracer.active:
            return self._f.read(size)
        start = perf_counter()
        data = self._f.read(size)
        tracer.record("storage", "read", start, perf_counter(), 0, len(data))
        return data

    def write(self, data):
        tracer = self._backend.tracer
        if tracer is None or not tracer.active:
            return self._f.write(data)
        start = perf_counter()
        written = self._f.write(data)
        tracer.record("storage", "write", start, perf_counter(), len(data), 0)
        return written

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._f.close()


def _covered(start: float, end: float, children: list[Span]) -> float:
    """Length of ``[start, end]`` covered by the union of child spans."""
    total, reach = 0.0, start
    for child in sorted(children, key=lambda s: s.start):
        lo, hi = max(child.start, reach), min(child.end, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def build_ledger(spans: list[Span], wall: float, root_thread: int) -> dict:
    """The per-layer ledger of one traced region.

    ``{layer: {self_s, share, calls, bytes_in, bytes_out}}`` over the busy
    layers, plus ``wait_s`` per wait span name and ``coverage``: the part
    of ``wall`` covered by spans without a parent on ``root_thread`` — the
    thread that blocks the result.
    """
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent:
            children[span.parent].append(span)
    layers = {layer: {"self_s": 0.0, "calls": 0, "bytes_in": 0, "bytes_out": 0}
              for layer in LAYERS}
    waits: dict[str, float] = defaultdict(float)
    roots = []
    for span in spans:
        if not span.parent and span.thread == root_thread:
            roots.append(span)
        if span.layer == WAIT:
            waits[span.name] += span.end - span.start
            continue
        row = layers[span.layer]
        row["self_s"] += (span.end - span.start) - _covered(
            span.start, span.end, children.get(span.id, ()))
        row["calls"] += 1
        row["bytes_in"] += span.bytes_in
        row["bytes_out"] += span.bytes_out
    busy = sum(row["self_s"] for row in layers.values())
    for row in layers.values():
        row["share"] = row["self_s"] / busy if busy > 0 else 0.0
    coverage = _covered(float("-inf"), float("inf"), roots) / wall if wall > 0 else 0.0
    return {"layers": layers, "wait_s": dict(waits), "coverage": coverage}


def write_spans(path, spans: list[Span]) -> None:
    """Dump spans as JSON lines (one object per span)."""
    with open(path, "w") as fh:
        for span in spans:
            fh.write(json.dumps(span._asdict()) + "\n")
