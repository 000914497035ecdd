"""Shared sources for the integrity suite: a parity-carrying campaign
template copied per test (damage tests mutate their copy), plus the
clean single-file variants the scrub property test walks."""

from __future__ import annotations

import os
import shutil

import pytest

from repro.amr.io import write_series, write_sharded_series
from repro.insitu.series import SEAL_SIZE, SeriesReader
from repro.insitu.sharded import ShardedSeriesReader

from tests.strategies import step_hierarchy

N_STEPS = 6
N_SHARDS = 3
PARITY = 1


def campaign_steps():
    return [step_hierarchy(s, 8) for s in range(N_STEPS)]


@pytest.fixture(scope="session")
def campaign_template(tmp_path_factory):
    """A pristine parity=1 campaign plus its byte/extent oracle."""
    root = tmp_path_factory.mktemp("integrity-template")
    manifest = root / "camp.rphm"
    write_sharded_series(
        manifest, campaign_steps(), "sz-lr", 1e-3,
        n_shards=N_SHARDS, parallel="serial", parity=PARITY,
    )
    reader = ShardedSeriesReader.open(manifest)
    shards = [os.path.basename(s) for s in reader.shards]
    parity = [row["name"] for row in reader.parity]
    reader.close()
    extents = {}
    for shard in shards:
        sub = SeriesReader.open(root / shard)
        extents[shard] = [
            (e.step, e.offset, e.length + SEAL_SIZE) for e in sub.step_entries
        ]
        sub.close()
    return {
        "root": root,
        "manifest": manifest.name,
        "shards": shards,
        "parity": parity,
        "extents": extents,
        "pristine": {
            name: (root / name).read_bytes() for name in (*shards, *parity)
        },
    }


@pytest.fixture
def campaign(campaign_template, tmp_path):
    """A fresh mutable copy of the template for one test."""
    work = tmp_path / "work"
    shutil.copytree(campaign_template["root"], work)
    return {**campaign_template, "root": work,
            "manifest_path": work / campaign_template["manifest"]}


def flip_byte(path, pos: int) -> None:
    blob = bytearray(path.read_bytes())
    blob[pos] ^= 0xFF
    path.write_bytes(bytes(blob))


@pytest.fixture(scope="session")
def series_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("integrity-series") / "run.rph2s"
    write_series(path, [step_hierarchy(s, 8) for s in range(3)], "sz-lr", 1e-3)
    return path
