"""Pluggable byte backends for container and series I/O.

Every reader/writer in :mod:`repro.compression.container` and
:mod:`repro.insitu` ultimately needs four byte operations: open a named
object for reading, for writing, or for in-place append, and ask whether /
how large it is. This module extracts that surface into a
:class:`StorageBackend` interface so a campaign can target something other
than the local filesystem without the formats knowing:

* :class:`LocalFileBackend` — plain files under a root directory; the
  default, byte-identical to the historical direct-``Path`` paths.
* :class:`MemoryBackend` — an in-process object store (``name -> bytes``).
  Handy for tests and for staging a shard before upload; write handles
  have no file descriptor, so durability degrades explicitly (see
  :attr:`repro.insitu.StreamingWriter.degraded`).
* :class:`RangedBackend` — a read-path decorator modeling an object store:
  every read becomes a *ranged GET* against the wrapped backend, with
  readahead (requests are rounded up to a window, so footer+index parsing
  costs a handful of GETs instead of hundreds) and retry/backoff on
  :class:`~repro.errors.TransientStorageError`. Write/append/metadata
  calls pass straight through.

Underneath every reader sits one :class:`ByteSource`: the single place that
decides whether bytes come from a seekable handle (a local file, a backend's
``open_read`` handle) or from a byte buffer (``bytes``, a memory map — the
zero-copy mode), that owns what ``open`` opened, and that clamps every read
to the bytes the source holds.

Underneath every writer sits one :class:`ByteSink`: the single place that
resolves path-vs-backend, checks existence, opens, counts the byte position
and decides what "stable" means (flush + fsync, ``degraded`` where the
handle has no descriptor, a failing fsync never swallowed).

Readers and writers take ``backend=`` at their ``open``/``create`` entry
points (:meth:`ContainerReader.open`, :meth:`SeriesReader.open`,
:meth:`StreamingWriter.create` / :meth:`append_to`, and the sharded
campaign API in :mod:`repro.insitu.sharded`). Object *names* are plain
strings; :class:`LocalFileBackend` resolves relative names against its
root, and backends are free to treat them as flat keys.
"""

from __future__ import annotations

import io
import mmap as _mmap
import os
import random
import time
import warnings
from contextlib import contextmanager
from pathlib import Path
from typing import BinaryIO, Callable, Iterable

from repro.errors import (
    CompressionError,
    FormatError,
    StorageError,
    TransientStorageError,
)

__all__ = [
    "ByteSink",
    "ByteSource",
    "Closing",
    "StorageBackend",
    "LocalFileBackend",
    "MemoryBackend",
    "RangedBackend",
    "StorageError",
    "TransientStorageError",
]


# kept: every method: the protocol each backend implements
class StorageBackend:
    """Abstract byte backend: named objects with read/write/append access.

    Implementations must provide seekable binary handles. ``open_read``
    handles may be plain file objects or any object with ``seek`` /
    ``tell`` / ``read`` / ``close``; the readers never write through them.
    ``open_write`` truncates/creates; ``open_append`` opens an existing
    object positioned at 0 with read+write access (the resume path seeks
    itself). Callers own the returned handles and must close them.
    """

    def open_read(self, name: str) -> BinaryIO:
        """Open an existing object for reading."""
        raise NotImplementedError

    def open_write(self, name: str) -> BinaryIO:
        """Create (or truncate) an object and open it for writing."""
        raise NotImplementedError

    def open_append(self, name: str) -> BinaryIO:
        """Open an existing object read+write without truncating it."""
        raise NotImplementedError

    def exists(self, name: str) -> bool:
        """Whether an object of that name is stored."""
        raise NotImplementedError

    def size(self, name: str) -> int:
        """Byte size of a stored object."""
        raise NotImplementedError

    def delete(self, name: str) -> None:
        """Remove an object (missing objects raise :class:`StorageError`)."""
        raise NotImplementedError

    def list(self, prefix: str = "") -> list[str]:
        """Names of stored objects starting with ``prefix``, sorted."""
        raise NotImplementedError


# kept: every method: the StorageBackend protocol; delete and list serve recovery
class LocalFileBackend(StorageBackend):
    """Plain local files; relative names resolve against ``root``.

    This is the default backend everywhere a ``backend=`` parameter is
    accepted — passing ``LocalFileBackend()`` explicitly is identical to
    passing nothing, in bytes and in errors. Absolute names bypass the root.
    """

    def __init__(self, root: str | Path = "."):
        self._root = Path(root)

    def _resolve(self, name: str) -> Path:
        p = Path(name)
        return p if p.is_absolute() else self._root / p

    def open_read(self, name: str) -> BinaryIO:
        try:
            return self._resolve(name).open("rb")
        except OSError as exc:
            raise StorageError(f"cannot open {name!r} for reading: {exc}") from exc

    def open_write(self, name: str) -> BinaryIO:
        target = self._resolve(name)
        try:
            target.parent.mkdir(parents=True, exist_ok=True)
            return target.open("wb")
        except OSError as exc:
            raise StorageError(f"cannot open {name!r} for writing: {exc}") from exc

    def open_append(self, name: str) -> BinaryIO:
        try:
            return self._resolve(name).open("r+b")
        except OSError as exc:
            raise StorageError(f"cannot open {name!r} for append: {exc}") from exc

    def exists(self, name: str) -> bool:
        return self._resolve(name).exists()

    def size(self, name: str) -> int:
        try:
            return self._resolve(name).stat().st_size
        except OSError as exc:
            raise StorageError(f"cannot stat {name!r}: {exc}") from exc

    def delete(self, name: str) -> None:
        try:
            self._resolve(name).unlink()
        except OSError as exc:
            raise StorageError(f"cannot delete {name!r}: {exc}") from exc

    def list(self, prefix: str = "") -> list[str]:
        """Objects under the *directory part* of ``prefix`` whose names
        start with ``prefix`` (how the sharded reader discovers shard
        files when a campaign's manifest is lost)."""
        directory = self._resolve(os.path.dirname(prefix)) if prefix else self._root
        if not directory.is_dir():
            return []
        absolute = bool(prefix) and Path(prefix).is_absolute()
        out = []
        for entry in directory.iterdir():
            if not entry.is_file():
                continue
            name = str(entry) if absolute else str(entry.relative_to(self._root))
            if name.startswith(prefix):
                out.append(name)
        return sorted(out)


# kept: every method: the write handle a MemoryBackend hands out
class _MemoryFile(io.BytesIO):
    """A BytesIO whose contents publish back to the owning store.

    ``flush`` snapshots the buffer into the backend (so a writer's
    two-phase index/footer commit is observable mid-write), and ``close``
    publishes one final time. There is no file descriptor: ``fileno()``
    raises, which the streaming writer reports as degraded durability.
    """

    def __init__(self, store: dict, name: str, initial: bytes = b""):
        super().__init__()
        self._store = store
        self._name = name
        if initial:
            self.write(initial)
            self.seek(0)

    def flush(self) -> None:
        super().flush()
        self._store[self._name] = self.getvalue()

    def close(self) -> None:
        if not self.closed:
            self._store[self._name] = self.getvalue()
        super().close()


# kept: every method: the StorageBackend protocol (tests, staging, the repair CI step)
class MemoryBackend(StorageBackend):
    """An in-process object store mapping names to immutable byte strings.

    Reads serve :class:`io.BytesIO` copies; writes go through a buffer
    that publishes to the store on ``flush``/``close``. Useful for tests,
    for modeling remote stores (wrap it in :class:`RangedBackend`), and
    for staging campaign shards without touching disk.
    """

    def __init__(self):
        self._objects: dict[str, bytes] = {}

    def open_read(self, name: str) -> BinaryIO:
        try:
            return io.BytesIO(self._objects[name])
        except KeyError:
            raise StorageError(f"no stored object {name!r}") from None

    def open_write(self, name: str) -> BinaryIO:
        return _MemoryFile(self._objects, name)

    def open_append(self, name: str) -> BinaryIO:
        try:
            return _MemoryFile(self._objects, name, self._objects[name])
        except KeyError:
            raise StorageError(f"no stored object {name!r}") from None

    def exists(self, name: str) -> bool:
        return name in self._objects

    def size(self, name: str) -> int:
        try:
            return len(self._objects[name])
        except KeyError:
            raise StorageError(f"no stored object {name!r}") from None

    def delete(self, name: str) -> None:
        try:
            del self._objects[name]
        except KeyError:
            raise StorageError(f"no stored object {name!r}") from None

    def list(self, prefix: str = "") -> list[str]:
        return sorted(n for n in self._objects if n.startswith(prefix))


class _RangedReader:
    """Seekable read handle that fetches via retried, readahead ranged GETs.

    Serves ``read`` calls from a single readahead window; a miss issues one
    GET of ``max(requested, readahead)`` bytes through
    :meth:`RangedBackend._fetch` (which retries transient faults). The
    container/series readers' access pattern — footer, then index, then a
    few streams — therefore costs a handful of GETs, not one per ``read``.
    """

    closed = False

    def __init__(self, backend: "RangedBackend", name: str, size: int):
        self._backend = backend
        self._name = name
        self._size = size
        self._pos = 0
        self._buf = b""
        self._buf_start = 0

    def seek(self, offset: int, whence: int = io.SEEK_SET) -> int:
        if whence == io.SEEK_SET:
            pos = offset
        elif whence == io.SEEK_CUR:
            pos = self._pos + offset
        elif whence == io.SEEK_END:
            pos = self._size + offset
        else:  # pragma: no cover - mirrors io semantics
            raise ValueError(f"invalid whence {whence}")
        if pos < 0:
            raise ValueError("negative seek position")
        self._pos = pos
        return pos

    def tell(self) -> int:
        return self._pos

    def read(self, size: int = -1) -> bytes:
        if self._pos >= self._size:
            return b""
        budget = self._size - self._pos
        n = budget if size is None or size < 0 else min(size, budget)
        lo = self._pos - self._buf_start
        if not (0 <= lo and lo + n <= len(self._buf)):
            want = max(n, self._backend.readahead)
            want = min(want, self._size - self._pos)
            self._buf = self._backend._fetch(self._name, self._pos, want)
            self._buf_start = self._pos
            lo = 0
        out = self._buf[lo : lo + n]
        self._pos += len(out)
        return out

    def close(self) -> None:
        self.closed = True
        self._buf = b""


# kept: every method: the StorageBackend protocol over a remote-like store
class RangedBackend(StorageBackend):
    """Read-path decorator modeling an object store's ranged-GET protocol.

    Wraps any backend; ``open_read`` returns a handle whose reads become
    bounded byte-range requests with *readahead* (each GET fetches at
    least ``readahead`` bytes) and *retry with exponentially backed-off,
    jittered sleeps*: a GET that raises
    :class:`~repro.errors.TransientStorageError` (from the inner backend
    or an injected ``fault`` hook) is retried up to ``max_retries``
    times before the error propagates as-is. Retry ``attempt`` (1-based)
    sleeps ``backoff * 2**(attempt-1)`` seconds — with ``jitter=True``
    (the default) the actual sleep is drawn uniformly from ``[0, that]``
    ("full jitter"), so a herd of clients retrying the same outage
    decorrelates instead of hammering the backend in lockstep.
    ``max_elapsed`` is a wall-clock retry *budget*: once the time already
    spent plus the next planned sleep would exceed it, retrying stops and
    the failure surfaces — worst-case added latency per GET is bounded
    regardless of ``max_retries``. All other operations delegate to the
    wrapped backend unchanged.

    ``stats`` counts ``requests`` (GETs issued), ``bytes_fetched``, and
    ``retries`` — what the benchmarks assert readahead against. ``fault``
    is a test hook called as ``fault(name, offset, length, attempt)``
    before every GET attempt (a :class:`repro.faults.FaultPlan` slots in
    directly); ``sleep``, ``clock``, and ``rng`` are injectable so retry
    tests need no wall clock and jitter is seedable.
    """

    def __init__(
        self,
        inner: StorageBackend,
        readahead: int = 1 << 16,
        max_retries: int = 3,
        backoff: float = 0.01,
        jitter: bool = True,
        max_elapsed: float | None = None,
        sleep: Callable[[float], None] = time.sleep,
        clock: Callable[[], float] = time.monotonic,
        rng: random.Random | None = None,
        fault: Callable[[str, int, int, int], None] | None = None,
    ):
        if readahead < 1:
            raise StorageError(f"readahead must be >= 1 byte, got {readahead}")
        if max_retries < 0:
            raise StorageError(f"max_retries must be >= 0, got {max_retries}")
        if max_elapsed is not None and max_elapsed < 0:
            raise StorageError(f"max_elapsed must be >= 0, got {max_elapsed}")
        self._inner = inner
        self.readahead = int(readahead)
        self._max_retries = int(max_retries)
        self._backoff = float(backoff)
        self._jitter = bool(jitter)
        self._max_elapsed = None if max_elapsed is None else float(max_elapsed)
        self._sleep = sleep
        self._clock = clock
        self._rng = rng if rng is not None else random.Random()
        self._fault = fault
        self.stats = {"requests": 0, "bytes_fetched": 0, "retries": 0}

    def _fetch(self, name: str, offset: int, length: int) -> bytes:
        """One ranged GET, retried with jittered exponential backoff
        under the ``max_elapsed`` wall-clock budget."""
        start = self._clock()
        last: Exception | None = None
        budget = "budget"
        for attempt in range(self._max_retries + 1):
            if attempt:
                delay = self._backoff * (2 ** (attempt - 1))
                if self._jitter:
                    delay = self._rng.uniform(0.0, delay)
                if (
                    self._max_elapsed is not None
                    and (self._clock() - start) + delay > self._max_elapsed
                ):
                    budget = f"{self._max_elapsed}s retry budget"
                    break
                self.stats["retries"] += 1
                self._sleep(delay)
            try:
                if self._fault is not None:
                    self._fault(name, offset, length, attempt)
                handle = self._inner.open_read(name)
                try:
                    handle.seek(offset)
                    blob = handle.read(length)
                finally:
                    handle.close()
            except TransientStorageError as exc:
                last = exc
                continue
            self.stats["requests"] += 1
            self.stats["bytes_fetched"] += len(blob)
            return blob
        else:
            budget = f"{self._max_retries + 1} attempts"
        raise StorageError(
            f"ranged read of {name!r} [{offset}:{offset + length}] failed "
            f"after {budget}: {last}"
        ) from last

    def open_read(self, name: str) -> BinaryIO:
        return _RangedReader(self, name, self._inner.size(name))  # type: ignore[return-value]

    def open_write(self, name: str) -> BinaryIO:
        return self._inner.open_write(name)

    def open_append(self, name: str) -> BinaryIO:
        return self._inner.open_append(name)

    def exists(self, name: str) -> bool:
        return self._inner.exists(name)

    def size(self, name: str) -> int:
        return self._inner.size(name)

    def delete(self, name: str) -> None:
        self._inner.delete(name)

    def list(self, prefix: str = "") -> list[str]:
        return self._inner.list(prefix)


class Closing:
    """``with`` support for what stands on storage: leaving the block closes."""

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class ByteSource(Closing):
    """Where a reader's bytes come from, decided once.

    ``source`` is a seekable binary file-like — only ``seek`` / ``tell`` /
    ``read`` / ``close`` are asked of it, which is all a
    :meth:`StorageBackend.open_read` handle promises — or any byte buffer
    (``bytes``, ``bytearray``, ``memoryview``, ``mmap``): the **zero-copy
    mode** (:attr:`mapped`), where :meth:`view` hands out ``memoryview``
    slices instead of copies. A source built here borrows what it was
    given; :meth:`open` builds one that owns its handle (and mapping).

    Both reads clamp ``length`` to the bytes the source holds and come back
    short at the end exactly as a file read does, so no length taken from
    disk can size an allocation and every caller keeps its own "truncated"
    check and message.
    """

    def __init__(self, source):
        self._start = 0
        # An mmap has seek/read too: it must take the buffer branch, or
        # zero-copy mode silently degrades to the copying file path.
        if not isinstance(source, _mmap.mmap) and (
            hasattr(source, "seek") and hasattr(source, "read")
        ):
            self._file, self._buf = source, None
            source.seek(0, io.SEEK_END)
            #: Bytes this source (or window) holds.
            self.size: int = source.tell()
            self._release: tuple = ()
        else:
            try:
                self._buf = memoryview(source).cast("B")
            except TypeError:
                raise CompressionError(
                    f"cannot read bytes from {type(source).__name__}; pass a "
                    "seekable binary file or a byte buffer"
                ) from None
            self._file, self.size = None, self._buf.nbytes
            #: What :meth:`close` calls, in order.
            self._release = (self._buf.release,)

    @classmethod
    def open(cls, path: str | Path, *, mmap: bool = False, backend=None) -> "ByteSource":
        """Open a named object; the source owns (and closes) the handle.

        ``backend`` (a :class:`StorageBackend`) serves the handle; it
        defaults to :class:`LocalFileBackend`, so passing none and passing
        the local one cannot differ — a missing path is a
        :class:`~repro.errors.StorageError` either way. ``mmap=True``
        memory-maps the default backend's file handle into the zero-copy
        mode; it cannot be combined with a ``backend``.
        """
        if backend is not None and mmap:
            raise CompressionError("backend= and mmap=True are mutually exclusive")
        handle = (backend or LocalFileBackend()).open_read(str(path))
        try:
            if not mmap:
                src = cls(handle)
            else:
                try:
                    mapping = _mmap.mmap(handle.fileno(), 0, access=_mmap.ACCESS_READ)
                except (ValueError, OSError) as exc:
                    raise FormatError(f"cannot memory-map {path}: {exc}") from exc
                src = cls(mapping)
                src._release += (mapping.close,)
        except BaseException:
            handle.close()
            raise
        src._release += (handle.close,)
        return src

    @classmethod
    @contextmanager
    def under(cls, source):
        """The source a parser's constructor stands on while it parses:
        ``source`` itself when it already is one (adopted — its opener closes
        it), else one built here, which a failing parse must not leave alive
        (the traceback pins the parser, and a caller closing the buffer it
        passed would get ``BufferError``, not the parse error)."""
        src = source if isinstance(source, cls) else cls(source)
        try:
            yield src
        except BaseException:
            if src is not source:
                src.close()
            raise

    @property
    def mapped(self) -> bool:
        """True while the source serves zero-copy views of a byte buffer."""
        return self._buf is not None

    def view(self, offset: int, length: int):
        """Up to ``length`` bytes at ``offset``: a ``memoryview`` slice in
        zero-copy mode, ``bytes`` from seek + read otherwise."""
        length = min(length, self.size - offset)
        if offset < 0 or length <= 0:
            return b"" if self._buf is None else self._buf[:0]
        at = self._start + offset
        if self._buf is not None:
            return self._buf[at : at + length]
        self._file.seek(at)
        return self._file.read(length)

    def read(self, offset: int, length: int) -> bytes:
        """Up to ``length`` bytes at ``offset`` as owned ``bytes`` (what a
        parser keeps)."""
        return bytes(self.view(offset, length))

    def window(self, offset: int, length: int) -> "ByteSource":
        """A source over ``[offset, offset + length)`` of this one, cut to
        what it holds. It shares the handle (or buffer) and owns nothing."""
        win = object.__new__(ByteSource)
        win._file, win._buf, win._release = self._file, self._buf, ()
        win._start = self._start + offset
        win.size = max(0, min(length, self.size - offset)) if offset >= 0 else 0
        return win

    def close(self) -> None:
        """Release the buffer view and close what :meth:`open` opened; a
        borrowed file stays open, and a window closes nothing. Closing a
        mapping that a live :meth:`view` slice still pins raises
        ``BufferError``: release the slice and close again."""
        self._buf = None
        for release in self._release:
            release()
        self._release = ()


class ByteSink(Closing):
    """Where a writer's bytes go and when they are stable, decided once.

    ``handle`` is a writable binary handle — only ``write`` / ``seek`` /
    ``truncate`` / ``flush`` / ``close``, and ``fileno`` when it has one,
    are asked of it, which is all a :meth:`StorageBackend.open_write` /
    ``open_append`` handle promises. A sink built here borrows the handle
    (:meth:`close` leaves it open); :meth:`create` and :meth:`append` build
    one that owns it. Usable as a context manager.
    """

    def __init__(self, handle, name: str = "<handle>", owned: bool = False):
        self._handle, self._owned, self.name = handle, owned, str(name)
        #: Where the next byte lands (counted here; the handle is not asked).
        self.pos = 0
        #: True once a :meth:`sync` could not make the bytes stable.
        self.degraded = False
        self.closed = False

    @classmethod
    def create(cls, name, *, backend=None, overwrite: bool = True,
               what: str = "object") -> "ByteSink":
        """Create (or truncate) a named object; the sink owns the handle.
        ``backend`` defaults to :class:`LocalFileBackend`, so passing none
        and passing the local one cannot differ. With ``overwrite=False``
        an existing object raises before anything is opened."""
        backend, name = backend or LocalFileBackend(), str(name)
        if not overwrite and backend.exists(name):
            raise FormatError(f"{what} {name!r} already exists (pass overwrite=True)")
        return cls(backend.open_write(name), name, owned=True)

    @classmethod
    def append(cls, name, *, backend=None) -> "ByteSink":
        """Open an existing object for in-place writes, positioned at 0."""
        handle = (backend or LocalFileBackend()).open_append(str(name))
        return cls(handle, name, owned=True)

    def write(self, blob) -> None:
        """Write ``blob`` at :attr:`pos`. An ``OSError`` (a full disk) is a
        :class:`StorageError` — permanent: nothing retries it — and ``pos`` stays."""
        try:
            self._handle.write(blob)
        except OSError as exc:
            raise StorageError(
                f"write of {len(blob)} bytes to {self.name} at offset {self.pos} failed: {exc}"
            ) from exc
        self.pos += len(blob)

    def seek(self, pos: int) -> None:
        """Land the next byte at ``pos`` (a gap past the end reads as zeros)."""
        self._handle.seek(pos)
        self.pos = pos

    def truncate(self, pos: int) -> None:
        """Cut the object to ``pos`` bytes; the next byte lands there."""
        self._handle.truncate(pos)
        self.seek(pos)

    def flush(self) -> None:
        """Hand buffered bytes to the object. An ``OSError`` — a full disk
        that the buffered :meth:`write` never saw — is a :class:`StorageError`."""
        try:
            self._handle.flush()
        except OSError as exc:
            raise StorageError(f"flush of {self.name} failed: {exc}") from exc

    def sync(self, strict: bool = False) -> None:
        """Flush and fsync. A failing flush is :meth:`flush`'s
        :class:`StorageError`, under any ``strict``. A handle without a
        descriptor sets :attr:`degraded`; a *failing* fsync sets it too and
        is never swallowed: :class:`StorageError` under ``strict``, a
        ``RuntimeWarning`` otherwise."""
        self.flush()
        try:
            fd = self._handle.fileno()
        except (AttributeError, io.UnsupportedOperation):  # before OSError, its base
            self.degraded = True
            return
        try:
            os.fsync(fd)
        except OSError as exc:
            self.degraded = True
            if strict:
                raise StorageError(f"fsync of {self.name} failed: {exc}") from exc
            warnings.warn(f"fsync of {self.name} failed; durability degraded: {exc}",
                          RuntimeWarning, stacklevel=3)

    def close(self) -> None:
        """Close an owned handle, leave a borrowed one open; idempotent. A
        close whose final flush fails raises :class:`StorageError` and still
        marks the sink closed (a file handle is released either way), so a
        second ``close`` does nothing."""
        release, self.closed = self._owned and not self.closed, True
        if release:
            try:
                self._handle.close()
            except OSError as exc:
                raise StorageError(f"close of {self.name} failed: {exc}") from exc
