"""An existing RPHM manifest is rewritten in place, never truncated first.

Truncating an fsync'd object on open can stall for tens of milliseconds,
and a kill between the truncate and the write leaves an empty manifest.
Every manifest write — a campaign's create and close, a committed
recovery, a committed repair — therefore reopens an existing manifest
with ``open_append``, writes over it and cuts what is left of the old one.
A spy backend records every ``open_write`` of a name that already exists;
no manifest may be among them, and the written bytes are the ones the
truncate-and-rewrite code wrote.
"""

from __future__ import annotations

import hashlib
import itertools
import struct

import pytest

from repro.amr.io import write_sharded_series
from repro.insitu.sharded import parse_manifest, recover_sharded
from repro.integrity import repair_sharded
from repro.storage import LocalFileBackend, MemoryBackend, StorageBackend
from tests.strategies import scaled_steps

MANIFEST = "camp.rphm"

#: md5 of each file of the 3-step, 2-shard, parity-1, durability="step"
#: campaign of :func:`_steps`, as written when a manifest was truncated
#: and rewritten: the in-place rewrite must leave the same bytes.
PINNED = {
    "camp.parity000.rpxp": "f272afe86c929ad13a76e4e2ace17516",
    "camp.rphm": "f229fc95479e08ff6df237cca35af689",
    "camp.shard000.rph2s": "820c2f4a41fccacc388c609859d7bae3",
    "camp.shard001.rph2s": "db0747b13d12398a1f0f9c07c2de9a02",
}


class SpyBackend(StorageBackend):
    """Delegates to ``inner``; records the names ``open_write`` found
    existing (``overwritten``) and the names ``open_append`` opened."""

    def __init__(self, inner: StorageBackend):
        self.inner = inner
        self.overwritten: list[str] = []
        self.appended: list[str] = []

    def open_read(self, name):
        return self.inner.open_read(name)

    def open_write(self, name):
        if self.inner.exists(name):
            self.overwritten.append(name)
        return self.inner.open_write(name)

    def open_append(self, name):
        self.appended.append(name)
        return self.inner.open_append(name)

    def exists(self, name):
        return self.inner.exists(name)

    def size(self, name):
        return self.inner.size(name)

    def delete(self, name):
        self.inner.delete(name)

    def list(self, prefix=""):
        return self.inner.list(prefix)

    def manifests_overwritten(self) -> list[str]:
        return [n for n in self.overwritten if n.endswith(".rphm")]


def _files(backend: StorageBackend) -> dict[str, bytes]:
    out = {}
    for name in backend.list("camp."):
        with backend.open_read(name) as fh:
            out[name] = fh.read()
    return out


def _md5s(files: dict[str, bytes]) -> dict[str, str]:
    return {name: hashlib.md5(blob).hexdigest() for name, blob in files.items()}


def _write(backend, durability="step", parallel="serial", parity=1, **kw):
    write_sharded_series(MANIFEST, scaled_steps(3), n_shards=2, parity=parity,
                         parallel=parallel, durability=durability,
                         backend=backend, **kw)


@pytest.fixture(params=["memory", "local"])
def inner(request, tmp_path):
    if request.param == "memory":
        return MemoryBackend()
    return LocalFileBackend(root=tmp_path)


@pytest.mark.parametrize(
    "durability,parallel,parity",
    list(itertools.product(("step", "close", "none"), ("serial", "thread"), (0, 1))),
)
def test_a_campaign_rewrites_its_manifest_in_place(inner, durability, parallel, parity):
    spy = SpyBackend(inner)
    _write(spy, durability, parallel, parity)
    assert spy.manifests_overwritten() == []
    assert spy.appended.count(MANIFEST) == 1  # close, over create's manifest
    assert parse_manifest(_files(inner)[MANIFEST])["final"] is True
    if (durability, parity) == ("step", 1):
        assert _md5s(_files(inner)) == PINNED


def test_create_over_a_campaign_rewrites_its_manifest_in_place(inner):
    _write(inner)
    spy = SpyBackend(inner)
    _write(spy, overwrite=True)
    assert spy.manifests_overwritten() == []
    assert spy.appended.count(MANIFEST) == 2  # create's, then close's
    assert _md5s(_files(inner)) == PINNED


def test_commits_rewrite_the_manifest_in_place_and_cut_its_tail(inner):
    """A committed recovery drops a lost shard (a shorter manifest over a
    longer one); a committed repair resurrects it from parity, naming it
    in a non-final manifest before the final one. No manifest is opened
    with ``open_write``, and no stale tail outlives a rewrite."""
    _write(inner)
    inner.delete("camp.shard001.rph2s")
    before = len(_files(inner)[MANIFEST])
    spy = SpyBackend(inner)

    report = recover_sharded(MANIFEST, commit=True, backend=spy)
    assert [name for name, _ in report.dropped] == ["camp.shard001.rph2s"]
    assert spy.appended.count(MANIFEST) == 1
    blob = _files(inner)[MANIFEST]
    (body_len,) = struct.unpack_from("<I", blob, 5)
    assert len(blob) == 9 + body_len + 4 < before
    assert [row["name"] for row in parse_manifest(blob)["shards"]] == [
        "camp.shard000.rph2s"
    ]

    repaired = repair_sharded(MANIFEST, commit=True, backend=spy)
    assert repaired.committed and repaired.reconstructed
    assert not repaired.unrecoverable
    assert spy.appended.count(MANIFEST) == 3  # recover; repair's non-final, final
    assert spy.manifests_overwritten() == []
    files = _files(inner)
    assert parse_manifest(files[MANIFEST])["shards"][1]["steps"] == [1]
    for shard in ("camp.shard000.rph2s", "camp.shard001.rph2s"):
        assert _md5s(files)[shard] == PINNED[shard]
