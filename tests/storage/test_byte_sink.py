"""The one byte sink under every writer.

:class:`repro.storage.ByteSink` decides where a writer's bytes go
(path or backend), counts the position, and owns what "stable" means.
Pinned here: every handle kind ends up with the same bytes; a sync that
cannot be performed degrades and a failing one is never swallowed;
ownership on ``close``; ``create`` / ``append`` answer the same way with
no backend and with the local one; and nothing beyond ``write`` / ``seek``
/ ``truncate`` / ``flush`` / ``close`` / ``fileno`` is asked of a handle.
"""

from __future__ import annotations

import io
import os
import warnings

import pytest

from repro.errors import FormatError, StorageError
from repro.faults import FaultPlan, FaultyBackend
from repro.storage import (
    ByteSink,
    LocalFileBackend,
    MemoryBackend,
    RangedBackend,
)

KINDS = ["file", "bytesio", "memory-backend", "faulty-backend", "ranged-backend"]


def _exercise(sink: ByteSink) -> None:
    """One script over every primitive; ``EXPECT`` is what it leaves."""
    assert sink.pos == 0
    sink.write(b"0123456789")
    assert sink.pos == 10
    sink.seek(4)
    sink.write(b"ab")
    assert sink.pos == 6
    sink.seek(14)  # past the end: the gap reads as zeros
    sink.write(b"tail-to-cut")
    assert sink.pos == 25
    sink.truncate(18)
    assert sink.pos == 18
    sink.write(b"!")
    sink.sync()


EXPECT = b"0123ab6789" + b"\x00" * 4 + b"tail" + b"!"


@pytest.fixture(params=KINDS)
def case(request, tmp_path):
    """``(a fresh sink of one kind, read() -> the bytes it wrote, reopen()
    -> an appending sink on the same object)``."""
    kind = request.param
    if kind == "file":
        path = tmp_path / "obj"
        handle = path.open("wb")
        yield ByteSink(handle), path.read_bytes, lambda: ByteSink.append(path)
        handle.close()
        return
    if kind == "bytesio":
        handle = io.BytesIO()

        def rewound() -> ByteSink:
            handle.seek(0)  # a sink counts from where it is handed the handle
            return ByteSink(handle)

        yield ByteSink(handle), handle.getvalue, rewound
        return
    inner = MemoryBackend()
    backend = {
        "memory-backend": inner,
        "faulty-backend": FaultyBackend(inner, FaultPlan(seed=1)),
        "ranged-backend": RangedBackend(inner),
    }[kind]

    def read() -> bytes:
        with inner.open_read("obj") as handle:
            return handle.read()

    yield (
        ByteSink.create("obj", backend=backend), read,
        lambda: ByteSink.append("obj", backend=backend),
    )


class TestSameBytesEverywhere:
    def test_script_leaves_the_same_bytes(self, case):
        sink, read, _ = case
        _exercise(sink)
        sink.close()
        assert read() == EXPECT

    def test_reopened_sink_patches_in_place(self, case):
        sink, read, reopen = case
        _exercise(sink)
        sink.close()
        with reopen() as again:
            assert again.pos == 0
            again.seek(2)
            again.write(b"XY")
            again.sync()
        assert read() == EXPECT[:2] + b"XY" + EXPECT[4:]


class _Narrow:
    """Exactly what a write handle promises, and nothing else."""

    def __init__(self):
        inner = io.BytesIO()
        self.getvalue = inner.getvalue
        for attr in ("write", "seek", "truncate", "flush", "close"):
            setattr(self, attr, getattr(inner, attr))


def test_asks_a_handle_for_nothing_else():
    handle = _Narrow()
    sink = ByteSink(handle)
    _exercise(sink)  # sync included: no fileno at all -> degraded, no raise
    assert sink.degraded
    assert handle.getvalue() == EXPECT


class TestSync:
    def test_no_descriptor_degrades_quietly(self):
        sink = ByteSink(io.BytesIO())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sink.sync()
            sink.sync(strict=True)
        assert sink.degraded

    def test_real_descriptor_is_synced(self, tmp_path, monkeypatch):
        calls = []
        real = os.fsync
        monkeypatch.setattr(os, "fsync", lambda fd: calls.append(fd) or real(fd))
        with ByteSink.create(tmp_path / "obj") as sink:
            sink.write(b"abc")
            sink.sync()
            assert not sink.degraded
        assert len(calls) == 1

    @pytest.mark.parametrize("strict", [False, True])
    def test_failing_fsync_is_never_swallowed(self, tmp_path, monkeypatch, strict):
        def boom(fd):
            raise OSError(5, "Input/output error")

        monkeypatch.setattr(os, "fsync", boom)
        with ByteSink.create(tmp_path / "obj") as sink:
            sink.write(b"abc")
            if strict:
                with pytest.raises(StorageError, match="fsync"):
                    sink.sync(strict=True)
            else:
                with pytest.warns(RuntimeWarning, match="fsync"):
                    sink.sync()
            assert sink.degraded
        assert (tmp_path / "obj").read_bytes() == b"abc"  # flushed all the same


class TestOwnership:
    def test_borrowed_handle_stays_open(self):
        handle = io.BytesIO()
        sink = ByteSink(handle)
        sink.write(b"abc")
        sink.close()
        sink.close()
        assert sink.closed and not handle.closed
        handle.write(b"def")
        assert handle.getvalue() == b"abcdef"

    def test_owned_handle_is_closed_once(self, tmp_path):
        sink = ByteSink.create(tmp_path / "obj")
        handle = sink._handle
        sink.write(b"abc")
        sink.close()
        assert sink.closed and handle.closed
        sink.close()  # idempotent

    def test_context_manager_closes(self, tmp_path):
        with ByteSink.create(tmp_path / "obj") as sink:
            sink.write(b"abc")
        assert sink.closed and (tmp_path / "obj").read_bytes() == b"abc"


class TestCreateAndAppend:
    @pytest.fixture(params=["none", "local", "memory"])
    def backend(self, request, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        return {"none": None, "local": LocalFileBackend(), "memory": MemoryBackend()}[
            request.param
        ]

    def test_overwrite_false_raises_before_opening(self, backend, monkeypatch):
        with ByteSink.create("obj", backend=backend) as sink:
            sink.write(b"precious")
        store = backend or LocalFileBackend()
        opened = []
        real = type(store).open_write

        def spy(self, name):
            opened.append(name)
            return real(self, name)

        monkeypatch.setattr(type(store), "open_write", spy)
        with pytest.raises(FormatError, match="thing 'obj' already exists"):
            ByteSink.create("obj", backend=backend, overwrite=False, what="thing")
        assert not opened
        with store.open_read("obj") as handle:
            assert handle.read() == b"precious"
        # ... and overwrite=True (the default) truncates.
        ByteSink.create("obj", backend=backend).close()
        assert store.size("obj") == 0

    def test_append_to_a_missing_object_is_typed(self, backend):
        with pytest.raises(StorageError):
            ByteSink.append("nope", backend=backend)

    def test_none_and_local_backend_agree(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        outcomes = []
        for tag, backend in (("a", None), ("b", LocalFileBackend())):
            # a missing parent directory is made, not a bare FileNotFoundError
            with ByteSink.create(f"{tag}/deep/obj", backend=backend) as sink:
                _exercise(sink)
            with ByteSink.append(f"{tag}/deep/obj", backend=backend) as sink:
                sink.seek(1)
                sink.write(b"Z")
            blob = (tmp_path / tag / "deep" / "obj").read_bytes()
            errors = []
            for call in (
                lambda: ByteSink.create(f"{tag}/deep", backend=backend),  # a directory
                lambda: ByteSink.append(f"{tag}/deep", backend=backend),
                lambda: ByteSink.append(f"{tag}/missing", backend=backend),
            ):
                with pytest.raises(StorageError) as info:
                    call()
                errors.append(type(info.value))
            outcomes.append((blob, errors))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] == EXPECT[:1] + b"Z" + EXPECT[2:]
