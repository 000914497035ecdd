"""A full disk is a typed, permanent failure on every write path.

A write handle that raises ``OSError(ENOSPC)`` used to escape every writer
as that bare ``OSError``. :meth:`repro.storage.ByteSink.write` — under the
series writer, the sharded writer, parity and a repair commit — now answers
it with a :class:`~repro.errors.StorageError` naming the object and the byte
offset, leaves its position where it was, and nothing retries it: only a
:class:`~repro.errors.TransientStorageError` is worth a second attempt.

A buffered local write that fails only when flushed — ``/dev/full`` takes
every ``write`` and refuses the flush — escaped ``ByteSink.flush``,
``sync`` and ``close`` as that bare ``OSError``; each is a
``StorageError`` naming the object now, and a failed ``close`` leaves the
sink closed.
"""

from __future__ import annotations

import contextlib
import errno
import io
import os

import pytest

from repro.amr.io import write_sharded_series
from repro.errors import StorageError, TransientStorageError
from repro.insitu import ShardedSeriesWriter, StreamingWriter
from repro.integrity import repair_sharded, scrub
from repro.storage import ByteSink, LocalFileBackend, MemoryBackend, StorageBackend

from tests.integrity.conftest import campaign_steps


class _FullDisk(StorageBackend):
    """Each write handle takes ``room`` bytes; the write that would pass
    that raises ``OSError(ENOSPC)`` and writes nothing."""

    def __init__(self, inner: StorageBackend, room: int):
        self.room, self.refused = room, 0
        self._inner = inner
        for attr in ("open_read", "exists", "size", "delete", "list"):
            setattr(self, attr, getattr(inner, attr))

    def open_write(self, name):
        return _Handle(self, self._inner.open_write(name))

    def open_append(self, name):
        return _Handle(self, self._inner.open_append(name))


class _Handle:
    def __init__(self, disk: _FullDisk, inner):
        self._disk, self._inner, self.used = disk, inner, 0
        for attr in ("seek", "truncate", "flush", "close", "fileno"):
            setattr(self, attr, getattr(inner, attr))

    def write(self, blob):
        if self.used + len(blob) > self._disk.room:
            self._disk.refused += 1
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        self.used += len(blob)
        return self._inner.write(blob)


def _is_full_disk(exc: BaseException) -> bool:
    cause = exc.__cause__
    return (
        type(exc) is StorageError
        and isinstance(cause, OSError)
        and cause.errno == errno.ENOSPC
    )


def test_sink_names_the_object_and_offset_and_keeps_its_position():
    sink = ByteSink.create("obj", backend=_FullDisk(MemoryBackend(), room=10))
    sink.write(b"0123456")
    with pytest.raises(StorageError, match=r"4 bytes to obj at offset 7") as info:
        sink.write(b"789A")
    assert _is_full_disk(info.value)
    assert sink.pos == 7
    sink.write(b"789")  # what still fits lands where the failed write would have
    assert sink.pos == 10


@pytest.mark.parametrize("inner", ["local", "memory"])
def test_streaming_writer(tmp_path, inner):
    backend = LocalFileBackend(tmp_path) if inner == "local" else MemoryBackend()
    disk = _FullDisk(backend, room=4_000)
    with pytest.raises(StorageError, match=r"run\.rph2s at offset") as info:
        with StreamingWriter.create("run.rph2s", "sz-lr", 1e-3, backend=disk) as writer:
            for h in campaign_steps():
                writer.append_step(h)
    assert _is_full_disk(info.value)


@pytest.mark.parametrize("parallel", ["serial", "thread"])
def test_sharded_writer_with_parity(tmp_path, parallel):
    """The reproducer: a bare ``OSError: [Errno 28]`` at the parent."""
    disk = _FullDisk(LocalFileBackend(tmp_path), room=4_000)
    with pytest.raises(StorageError, match=r"shard00\d\.rph2s at offset") as info:
        write_sharded_series("camp.rphm", campaign_steps(), "sz-lr", 1e-3,
                             n_shards=2, parallel=parallel, parity=1, backend=disk)
    assert _is_full_disk(info.value)


def test_sharded_writer_does_not_retry_it(tmp_path):
    naps = []
    disk = _FullDisk(LocalFileBackend(tmp_path), room=4_000)
    with pytest.raises(StorageError) as info:
        with ShardedSeriesWriter.create("camp.rphm", "sz-lr", 1e-3, n_shards=2,
                                        parallel="serial", backend=disk,
                                        sleep=naps.append) as writer:
            for h in campaign_steps():
                writer.append_step(h)
    assert not isinstance(info.value, TransientStorageError)
    assert disk.refused == 1 and naps == []


def test_repair_commit(tmp_path):
    write_sharded_series(tmp_path / "camp.rphm", campaign_steps(), "sz-lr", 1e-3,
                         n_shards=3, parallel="serial", parity=1)
    shard = next(tmp_path.glob("*.shard001.rph2s"))
    pristine = shard.read_bytes()
    shard.unlink()
    disk = _FullDisk(LocalFileBackend(tmp_path), room=0)
    with pytest.raises(StorageError, match=rf"{shard.name} at offset") as info:
        repair_sharded("camp.rphm", commit=True, backend=disk)
    assert _is_full_disk(info.value)
    # Space freed, the same commit finishes the job.
    disk.room = 1 << 30
    assert repair_sharded("camp.rphm", commit=True, backend=disk).committed
    assert scrub(tmp_path / "camp.rphm").clean
    assert shard.read_bytes() == pristine


class _FullOnFlush(io.BytesIO):
    """Takes every write into its buffer; the flush that would land them,
    and so the close, finds the disk full (what a buffered file does)."""

    def flush(self):
        if not self.closed:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def close(self):
        if not self.closed:
            super().close()
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.fixture(params=["fake", "dev-full"])
def full_sink(request):
    if request.param == "fake":
        sink = ByteSink(_FullOnFlush(), "obj", owned=True)
    elif os.path.exists("/dev/full"):
        sink = ByteSink.create("/dev/full")
    else:
        pytest.skip("no /dev/full on this system")
    sink.write(b"x" * 100)  # buffered: it succeeds
    yield sink
    with contextlib.suppress(OSError, StorageError):
        sink.close()


@pytest.mark.parametrize("call", ["flush", "sync", "sync-strict"])
def test_a_failing_flush_is_a_storage_error(full_sink, call):
    with pytest.raises(StorageError, match=rf"flush of {full_sink.name} failed") as info:
        if call == "flush":
            full_sink.flush()
        else:
            full_sink.sync(strict=call == "sync-strict")
    assert _is_full_disk(info.value)
    assert full_sink.pos == 100


def test_a_failing_close_is_a_storage_error_once(full_sink):
    with pytest.raises(StorageError, match=rf"close of {full_sink.name} failed") as info:
        full_sink.close()
    assert _is_full_disk(info.value)
    assert full_sink.closed
    full_sink.close()  # already closed: nothing left to fail
