"""One durability policy under every writer.

Every whole-object writer — manifest, parity shard, patched shard,
recovery commit — ends with :meth:`repro.storage.ByteSink.sync` before it
closes: an object is stable before anything that names it is written, a
sink without a descriptor degrades quietly, and a *failing* ``os.fsync``
is never swallowed. The spy maps descriptors to file names through
``/proc/self/fd``.
"""

from __future__ import annotations

import os
from collections import Counter

import pytest

from repro.amr.io import write_series
from repro.insitu import SeriesReader, recover_series
from repro.insitu.sharded import ShardedSeriesWriter
from repro.integrity import repair_sharded, scrub
from repro.storage import MemoryBackend
from tests.strategies import make_sphere_hierarchy

needs_proc = pytest.mark.skipif(
    not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd to name descriptors"
)


@pytest.fixture
def synced(monkeypatch):
    """Basenames of the files ``os.fsync`` was called on, in order."""
    names: list[str] = []
    real = os.fsync

    def spy(fd):
        names.append(os.path.basename(os.readlink(f"/proc/self/fd/{fd}")))
        return real(fd)

    monkeypatch.setattr(os, "fsync", spy)
    return names


def _campaign(manifest, durability, **kwargs):
    with ShardedSeriesWriter.create(manifest, "sz-lr", 1e-3, n_shards=2, parity=1,
                                    durability=durability, **kwargs) as w:
        for _ in range(4):
            w.append_step(make_sphere_hierarchy(8))


@needs_proc
@pytest.mark.parametrize("parallel", ["serial", "thread"])
def test_parity_is_synced_once_before_the_manifest_that_names_it(
    tmp_path, synced, parallel
):
    _campaign(tmp_path / "c.rphm", "step", parallel=parallel)
    assert Counter(synced) == {
        "c.rphm": 2,  # non-final at create, final at close
        "c.shard000.rph2s": 4,  # two sealed steps + index + footer
        "c.shard001.rph2s": 4,
        "c.parity000.rpxp": 1,
    }
    assert synced[0] == "c.rphm"
    assert synced[-2:] == ["c.parity000.rpxp", "c.rphm"]


@needs_proc
def test_durability_none_syncs_no_shard(tmp_path, synced):
    _campaign(tmp_path / "c.rphm", "none", parallel="serial")
    assert synced == ["c.rphm", "c.parity000.rpxp", "c.rphm"]


@needs_proc
def test_patched_shard_is_synced_before_its_reindex(tmp_path, synced):
    manifest = tmp_path / "c.rphm"
    _campaign(manifest, "none", parallel="serial")
    victim = tmp_path / "c.shard001.rph2s"
    blob = victim.read_bytes()
    victim.write_bytes(blob[: len(blob) // 5])  # torn: segments and index lost
    del synced[:]
    assert repair_sharded(manifest, commit=True).committed
    # the patch, then the two-phase index / footer commit, then the manifest
    assert synced == [victim.name] * 3 + ["c.rphm"]
    assert victim.read_bytes() == blob and scrub(manifest).clean


def _boom(fd):
    raise OSError(5, "Input/output error")


@pytest.fixture
def torn_series(tmp_path):
    path = tmp_path / "run.rph2s"
    write_series(path, [make_sphere_hierarchy(8) for _ in range(3)], "sz-lr", 1e-3)
    whole = path.read_bytes()
    path.write_bytes(whole[:-10])
    return path, whole


def test_recovery_commit_warns_on_a_failing_fsync_and_still_commits(
    torn_series, monkeypatch
):
    path, whole = torn_series
    monkeypatch.setattr(os, "fsync", _boom)
    with pytest.warns(RuntimeWarning, match="fsync"):
        report = recover_series(path, commit=True)
    monkeypatch.undo()
    assert not report.intact
    assert path.read_bytes() == whole
    with SeriesReader.open(path) as reader:
        assert reader.n_steps == 3


def test_campaign_close_warns_on_a_failing_fsync(tmp_path, monkeypatch):
    """The manifest's fsync used to be swallowed, the parity file's never
    issued."""
    monkeypatch.setattr(os, "fsync", _boom)
    with pytest.warns(RuntimeWarning, match="fsync") as caught:
        _campaign(tmp_path / "c.rphm", "none", parallel="serial")
    monkeypatch.undo()
    said = " ".join(str(w.message) for w in caught)
    assert "c.rphm" in said and "c.parity000.rpxp" in said
    assert scrub(tmp_path / "c.rphm").clean


def test_recovery_output_resolves_through_the_backend(torn_series, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    path, whole = torn_series
    backend = MemoryBackend()
    with backend.open_write("run.rph2s") as handle:
        handle.write(path.read_bytes())
    report = recover_series("run.rph2s", commit=True, output="fixed.rph2s",
                            backend=backend)
    assert not report.intact
    assert backend._objects["run.rph2s"] == whole[:-10]  # the original is untouched
    assert backend._objects["fixed.rph2s"] == whole
    assert not os.path.exists("fixed.rph2s")
