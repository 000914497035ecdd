"""Decoded values are the contract: every write path, every run cut.

Where the cell budget cuts a run of patches decides which patches share a
Huffman codebook, so the written bytes move with the cut — the decoded
arrays must not. ``DIGESTS`` holds sha256 digests of the arrays
``repro.open(...).select()`` returns, taken from the per-patch-codebook
writer over the same seeded inputs, one per ``(kind, codec, batch)``:
every cut, backend and parity setting of a kind must decode to it.

The second property is that the streaming writer is the batch writer:
for any cut, a series segment is byte for byte ``compress_hierarchy``'s
container of the same step.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

import repro
from repro.amr.io import write_sharded_series
from repro.compression import amr_codec
from repro.compression.amr_codec import compress_hierarchy
from repro.insitu import StreamingWriter
from repro.insitu.series import SeriesReader
from repro.parallel import WorkerPool
from repro.storage import LocalFileBackend, MemoryBackend
from tests.strategies import many_patch_hierarchy

#: Run budgets: one patch per run, runs cut mid-level, one run per level.
CUTS = (1, 4096, 1 << 16)
CODECS = ("sz-lr", "sz-interp")
EB = 1e-3

#: ``(kind, codec, batch)`` -> sha256 of the decoded arrays.
DIGESTS = {
    "snapshot:sz-lr:patch": "cb1afb204f31b3a2f7f2a8a8848d4b9ef97d82a0f8077dae5cdb03c2ae43adb2",
    "snapshot:sz-lr:level": "cb1afb204f31b3a2f7f2a8a8848d4b9ef97d82a0f8077dae5cdb03c2ae43adb2",
    "snapshot:sz-interp:patch": "155ea4e0f4b908f01009d680364fda0e7cfdf83f78aa68fbc6081eb95f086f96",
    "snapshot:sz-interp:level": "155ea4e0f4b908f01009d680364fda0e7cfdf83f78aa68fbc6081eb95f086f96",
    "series:sz-lr:patch": "d5d3fb5e0f422ea83d89210d258b685b6cb8715948ccb79791deebefd420b2a7",
    "series:sz-interp:patch": "689c8c8dd87ba6ece6efe2d9222ae10a6ce563e95746e6755ffc1493121024b0",
    "sharded:sz-lr:patch": "4f6d3e0db2ff6f91d49df456ed2008fa7878af83bd0f7ca3fd5e615248fc9ddd",
    "sharded:sz-interp:patch": "ff8b1ae50cb35528afa29ec1eecfb5830c816817765cce7a234ab480d7b7ee37",
}


def _decoded_digest(selection: dict) -> str:
    sha = hashlib.sha256()
    for key in sorted(selection):
        arr = np.ascontiguousarray(selection[key])
        sha.update(repr((key, arr.dtype.str, arr.shape)).encode())
        sha.update(arr.tobytes())
    return sha.hexdigest()


def _select(target, backend=None) -> dict:
    with repro.open(target, backend=backend) as reader:
        return reader.select()


@pytest.fixture(scope="module")
def steps():
    """Two steps: the many-patch hierarchy drawn under two seeds."""
    first = many_patch_hierarchy()
    second = many_patch_hierarchy(seed=12)
    return [first, second]


def _backend(kind: str, tmp_path):
    return MemoryBackend() if kind == "memory" else LocalFileBackend(root=tmp_path)


@pytest.mark.parametrize("cut", CUTS)
@pytest.mark.parametrize("batch", ["patch", "level"])
@pytest.mark.parametrize("codec", CODECS)
def test_snapshot(steps, monkeypatch, codec, batch, cut):
    monkeypatch.setattr(amr_codec, "RUN_CELL_BUDGET", cut)
    blob = compress_hierarchy(steps[0], codec, EB, batch=batch).tobytes()
    assert _decoded_digest(_select(blob)) == DIGESTS[f"snapshot:{codec}:{batch}"]


@pytest.mark.parametrize("backend", ["local", "memory"])
@pytest.mark.parametrize("cut", CUTS)
@pytest.mark.parametrize("codec", CODECS)
def test_series_segments_are_the_batch_containers(steps, tmp_path, monkeypatch, codec, cut, backend):
    monkeypatch.setattr(amr_codec, "RUN_CELL_BUDGET", cut)
    store = _backend(backend, tmp_path)
    with WorkerPool("thread") as pool, StreamingWriter.create(
        "s.rph2s", codec, EB, pool=pool, backend=store
    ) as writer:
        for hierarchy in steps:
            writer.append_step(hierarchy)
    assert _decoded_digest(_select("s.rph2s", store)) == DIGESTS[f"series:{codec}:patch"]
    with store.open_read("s.rph2s") as fh:
        raw = fh.read()
    with SeriesReader.open("s.rph2s", backend=store) as reader:
        segments = [raw[e.offset : e.offset + e.length] for e in reader.step_entries]
    for hierarchy, segment in zip(steps, segments):
        assert segment == compress_hierarchy(hierarchy, codec, EB).tobytes()


@pytest.mark.parametrize("parity", [0, 1])
@pytest.mark.parametrize("backend", ["local", "memory"])
@pytest.mark.parametrize("cut", CUTS)
@pytest.mark.parametrize("codec", CODECS)
def test_sharded(steps, tmp_path, monkeypatch, codec, cut, backend, parity):
    monkeypatch.setattr(amr_codec, "RUN_CELL_BUDGET", cut)
    store = _backend(backend, tmp_path)
    write_sharded_series("c.rphm", steps + steps[:1], codec, EB, n_shards=2,
                         parallel="thread", backend=store, parity=parity)
    assert _decoded_digest(_select("c.rphm", store)) == DIGESTS[f"sharded:{codec}:patch"]
