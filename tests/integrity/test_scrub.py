"""The scrub walker's two-sided property: zero findings on every clean
container variant, and a finding for every seeded corruption.

Every byte of the RPH2/RPH2S/RPHM/RPXP formats is covered by some
recorded checksum (stream and segment crcs, seal records, index/footer
crcs, manifest body crc, parity stripe crcs), so a single flipped byte
anywhere in a file must surface — silence on damage would make the
parity/repair layers above unsound.
"""

from __future__ import annotations

import os
import random
import shutil

import pytest

from repro.amr.io import write_series
from repro.compression.amr_codec import compress_hierarchy
from repro.insitu import recover_series
from repro.integrity import scrub
from repro.storage import MemoryBackend

from tests.integrity.conftest import flip_byte
from tests.strategies import step_hierarchy

SEED = 20260808


# ---------------------------------------------------------------------------
# Clean variants: zero findings.
# ---------------------------------------------------------------------------
def _snapshot(tmp_path, batch):
    path = tmp_path / f"snap-{batch}.rph2"
    path.write_bytes(
        compress_hierarchy(step_hierarchy(0, 8), "sz-lr", 1e-3, batch=batch)
        .tobytes()
    )
    return path


@pytest.mark.parametrize("batch", ["patch", "level"])
def test_clean_snapshot_scrubs_zero_findings(tmp_path, batch):
    report = scrub(_snapshot(tmp_path, batch))
    assert report.clean, [f.describe() for f in report.findings]
    assert report.streams > 0 and report.bytes_verified > 0


def test_clean_series_scrubs_zero_findings(series_path):
    report = scrub(series_path)
    assert report.clean, [f.describe() for f in report.findings]
    assert report.segments == 3


def test_clean_campaign_scrubs_zero_findings(campaign):
    report = scrub(campaign["manifest_path"])
    assert report.clean, [f.describe() for f in report.findings]
    # The walk covered the manifest, every shard, and the parity file.
    assert report.objects == 1 + len(campaign["shards"]) + len(campaign["parity"])


def test_recovered_series_scrubs_zero_findings(tmp_path):
    path = tmp_path / "torn.rph2s"
    write_series(path, [step_hierarchy(s, 8) for s in range(3)], "sz-lr", 1e-3)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) - 40])  # tear off footer + index tail
    recover_series(path, commit=True)
    report = scrub(path)
    assert report.clean, [f.describe() for f in report.findings]


def test_scrub_through_memory_backend(campaign):
    """The walker goes through any StorageBackend, not just local files."""
    mem = MemoryBackend()
    for name in (campaign["manifest"], *campaign["shards"], *campaign["parity"]):
        with mem.open_write(name) as handle:
            handle.write((campaign["root"] / name).read_bytes())
    report = scrub(campaign["manifest"], backend=mem)
    assert report.clean, [f.describe() for f in report.findings]


# ---------------------------------------------------------------------------
# Seeded corruptions: 100% flagged.
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("target", ["shard", "manifest", "parity"])
def test_every_seeded_corruption_is_flagged(campaign, target, tmp_path):
    name = {
        "shard": campaign["shards"][0],
        "manifest": campaign["manifest"],
        "parity": campaign["parity"][0],
    }[target]
    victim = campaign["root"] / name
    pristine = victim.read_bytes()
    rng = random.Random(SEED)
    positions = sorted(rng.sample(range(len(pristine)), 12))
    missed = []
    for pos in positions:
        flip_byte(victim, pos)
        report = scrub(campaign["manifest_path"])
        if report.clean:
            missed.append(pos)
        victim.write_bytes(pristine)  # restore for the next probe
    assert not missed, f"corruptions at {missed} of {name} went undetected"


def test_every_seeded_series_corruption_is_flagged(series_path, tmp_path):
    work = tmp_path / "series.rph2s"
    shutil.copyfile(series_path, work)
    pristine = work.read_bytes()
    rng = random.Random(SEED)
    missed = []
    for pos in sorted(rng.sample(range(len(pristine)), 12)):
        flip_byte(work, pos)
        if scrub(work).clean:
            missed.append(pos)
        work.write_bytes(pristine)
    assert not missed, f"series corruptions at {missed} went undetected"


def test_missing_shard_is_a_finding(campaign):
    os.remove(campaign["root"] / campaign["shards"][1])
    report = scrub(campaign["manifest_path"])
    assert not report.clean
    assert any(
        f.kind == "missing"
        and os.path.basename(f.file) == campaign["shards"][1]
        for f in report.findings
    )
