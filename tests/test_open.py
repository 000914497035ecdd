"""``repro.open``: one matrix over what can be opened, how it is given, and
through which backend.

Every cell asserts the reader's ``kind`` and that its ``select`` output is
bit-identical to the class-level open of the same data; the error rows
assert that junk, empty and missing targets raise the same class and text
whatever the backend — ``backend=None`` *is* the local backend.
"""

from __future__ import annotations

import os
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.amr.io import write_container, write_series, write_sharded_series
from repro.compression.amr_codec import (
    CompressedHierarchy,
    compress_hierarchy,
    decompress_selection,
)
from repro.compression.container import ContainerReader
from repro.errors import CompressionError, FormatError, StorageError
from repro.insitu import SeriesReader
from repro.insitu.sharded import ShardedSeriesReader
from repro.storage import LocalFileBackend, MemoryBackend
from tests.strategies import make_sphere_hierarchy, scaled_steps

#: fixture -> (file, kind, class-level open, recover)
FIXTURES = {
    "snapshot": ("snap.rprh", "snapshot", ContainerReader.open, False),
    "one-step": ("one.dat", "series", SeriesReader.open, False),
    "series": ("run.rph2s", "series", SeriesReader.open, False),
    "campaign": ("camp.rphm", "campaign", ShardedSeriesReader.open, False),
    "parity": ("par.rphm", "campaign", ShardedSeriesReader.open, False),
    "torn": ("torn.rph2s", "series", SeriesReader.open, True),
}
BACKENDS = ("none", "local", "rooted", "memory")
JUNK = "not an RPH2 container, RPH2S series, or RPHM manifest (magic {!r})"


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """The six fixtures in one directory, and the same files in memory."""
    root = tmp_path_factory.mktemp("door")
    base = make_sphere_hierarchy(8)
    steps = scaled_steps(3, step=0.5)
    write_container(root / "snap.rprh", compress_hierarchy(base, "sz-lr", 1e-3))
    write_series(root / "one.dat", steps[:1])
    write_series(root / "run.rph2s", steps)
    write_sharded_series(root / "camp.rphm", steps, n_shards=2, parallel="serial")
    write_sharded_series(root / "par.rphm", steps, n_shards=2, parallel="serial", parity=1)
    shutil.copy(root / "run.rph2s", root / "torn.rph2s")
    with open(root / "torn.rph2s", "r+b") as f:
        f.truncate((root / "torn.rph2s").stat().st_size - 40)
    (root / "junk.bin").write_bytes(b"junk")
    (root / "empty.bin").write_bytes(b"")
    memory = MemoryBackend()
    for p in root.iterdir():
        with memory.open_write(p.name) as handle:
            handle.write(p.read_bytes())
    return root, memory


def _target(corpus, backend: str, name: str):
    """``(name to open, backend object)`` for one backend column."""
    root, memory = corpus
    return {
        "none": (root / name, None),
        "local": (str(root / name), LocalFileBackend()),
        "rooted": (name, LocalFileBackend(root=root)),
        "memory": (name, memory),
    }[backend]


def _same(got: dict, want: dict) -> None:
    assert list(got) == list(want)
    for key, arr in want.items():
        assert got[key].dtype == arr.dtype and np.array_equal(got[key], arr), key


@pytest.fixture(scope="module")
def truth(corpus):
    """Every fixture's full ``select`` through its class-level open."""
    out = {}
    for fixture, (name, _, open_cls, recover) in FIXTURES.items():
        kwargs = {"recover": True} if recover else {}
        with open_cls(corpus[0] / name, **kwargs) as reader:
            out[fixture] = reader.select()
    assert all(out.values())
    return out


CELLS = [(f, "path", b) for f in FIXTURES for b in BACKENDS] + [
    (f, form, "none") for f in FIXTURES for form in ("bytes", "file", "reader")
]


@pytest.mark.parametrize("fixture, form, backend", CELLS)
def test_open_matrix(corpus, truth, fixture, form, backend):
    name, kind, open_cls, recover = FIXTURES[fixture]
    target, backend_obj = _target(corpus, backend, name)
    opened = None
    if form == "bytes":
        target = target.read_bytes()
    elif form == "file":
        target = opened = target.open("rb")
    elif form == "reader":
        target = opened = open_cls(target, **({"recover": True} if recover else {}))
    try:
        if kind == "campaign" and form in ("bytes", "file"):
            given = "bytes" if form == "bytes" else "a file object"
            with pytest.raises(CompressionError, match=f"manifest path .*not {given}"):
                repro.open(target)
            with pytest.raises(CompressionError, match="manifest path"):
                decompress_selection(target)
            return
        reader = repro.open(target, backend=backend_obj, recover=recover)
        try:
            assert reader.kind == kind
            assert (reader is target) == (form == "reader")
            assert bool(getattr(reader, "recovered", False)) == recover
            _same(reader.select(), truth[fixture])
            step = {} if kind == "snapshot" else {"steps": 1 if fixture != "one-step" else 0}
            part = reader.select(levels=1, **step)
            assert part and all(np.array_equal(part[k], truth[fixture][k]) for k in part)
        finally:
            if reader is not target:
                reader.close()
        if not recover:  # decompress_selection has no recover=: a torn path raises
            _same(decompress_selection(target, backend=backend_obj), truth[fixture])
        if opened is not None:
            # what was handed in is still the caller's, and still open
            if form == "file":
                assert not opened.closed and opened.seek(0) == 0
            else:
                _same(opened.select(), truth[fixture])
    finally:
        if opened is not None:
            opened.close()


def test_an_in_memory_hierarchy_is_a_reader_too(corpus, truth):
    held = CompressedHierarchy.frombytes((corpus[0] / "snap.rprh").read_bytes())
    assert repro.open(held) is held
    _same(decompress_selection(held, verify=False), truth["snapshot"])
    with pytest.raises(CompressionError, match="single-snapshot"):
        held.select(steps=0)
    with ContainerReader.open(corpus[0] / "snap.rprh") as reader:
        with pytest.raises(CompressionError, match="single-snapshot"):
            reader.select(steps=0)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name, magic", [("junk.bin", b"junk"), ("empty.bin", b"")])
def test_alien_bytes_are_one_error_everywhere(corpus, backend, name, magic):
    target, backend_obj = _target(corpus, backend, name)
    for call in (repro.open, decompress_selection):
        with pytest.raises(FormatError) as exc:
            call(target, backend=backend_obj)
        assert str(exc.value) == JUNK.format(magic)
    if backend == "none":  # the same text for a buffer and a file object
        with pytest.raises(FormatError) as exc:
            repro.open(target.read_bytes())
        assert str(exc.value) == JUNK.format(magic)
        with target.open("rb") as handle, pytest.raises(FormatError) as exc:
            repro.open(handle)
        assert str(exc.value) == JUNK.format(magic)


def test_a_missing_path_is_a_storage_error_on_every_reader(corpus, tmp_path):
    """``backend=None`` and ``LocalFileBackend()`` agree in class *and* text;
    the parent raised a bare ``FileNotFoundError`` for the former."""
    from repro.insitu import recover_series
    from repro.integrity import ParityReader

    missing = str(tmp_path / "missing.bin")
    opens = (
        repro.open, decompress_selection, ContainerReader.open, SeriesReader.open,
        recover_series, ParityReader.open,
    )
    texts = set()
    for call in opens:
        for backend in (None, LocalFileBackend()):
            with pytest.raises(StorageError) as exc:
                call(missing, backend=backend)
            texts.add(str(exc.value))
    assert len(texts) == 1 and "missing.bin" in texts.pop()
    for backend in (LocalFileBackend(root=corpus[0]), corpus[1]):
        with pytest.raises(StorageError, match="missing.bin"):
            repro.open("missing.bin", backend=backend)


def test_typed_opens_keep_their_own_refusals(corpus):
    root = corpus[0]
    with pytest.raises(FormatError, match="RPH2S time-series"):
        ContainerReader.open(root / "run.rph2s")
    with pytest.raises(FormatError, match="not an RPH2 container"):
        ContainerReader.open(root / "camp.rphm")
    with pytest.raises(FormatError, match="not an RPH2S series"):
        SeriesReader.open(root / "snap.rprh")
    with pytest.raises(FormatError, match="not an RPHM manifest"):
        ShardedSeriesReader.open(root / "run.rph2s")
    with SeriesReader.open(root / "camp.rphm") as reader:  # the series family
        assert reader.kind == "campaign"


def test_recover_series_names_a_snapshot(corpus):
    from repro.insitu import recover_series

    with pytest.raises(FormatError, match="snap.rprh is an RPH2 snapshot"):
        recover_series(corpus[0] / "snap.rprh")
    rooted = LocalFileBackend(root=corpus[0])
    assert recover_series("run.rph2s", backend=rooted).intact
    assert not recover_series("torn.rph2s", backend=corpus[1]).intact
    assert recover_series("par.rphm", backend=rooted).intact


def test_import_repro_stays_light():
    import subprocess

    code = (
        "import sys, repro; before = sorted(m for m in sys.modules if m.startswith('repro'));"
        "assert before == ['repro', 'repro.errors'], before;"
        "assert callable(repro.open) and 'repro.door' in sys.modules"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])}
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


def test_sniff_is_total():
    from repro.door import kind_of, sniff

    assert sniff(b"RPH2S\x01") == "series" and sniff(b"RPH2\x01") == "snapshot"
    assert sniff(b"RPHM\x01") == "campaign" and sniff(b"RPRH") == "snapshot"
    assert sniff(b"RPXP") is None and sniff(b"") is None and kind_of(b"RPH") is None
