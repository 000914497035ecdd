"""A rotten byte in a run's group payload — the entropy bits every
grouped patch of a campaign lives in — is a scrub finding, heals from
parity bit for bit on disk, and heals at serve time to the pristine
decode."""

from __future__ import annotations

import asyncio
import shutil

import numpy as np
import pytest

import repro
from repro.amr.io import write_sharded_series
from repro.compression.container import ContainerReader
from repro.insitu import SeriesReader
from repro.integrity import repair_sharded, scrub
from repro.serve import QueryService

from tests.integrity.conftest import flip_byte
from tests.strategies import many_patch_hierarchy

N_STEPS = 4


@pytest.fixture(scope="module")
def grouped_template(tmp_path_factory):
    """A pristine parity=1 campaign of many-patch steps, its files and its
    full decode."""
    root = tmp_path_factory.mktemp("grouped-integrity")
    write_sharded_series(root / "camp.rphm", [many_patch_hierarchy(s) for s in range(N_STEPS)],
                         "sz-lr", 1e-3, n_shards=2, parallel="serial", parity=1)
    with repro.open(root / "camp.rphm") as reader:
        truth = reader.select()
    return root, {p.name: p.read_bytes() for p in root.iterdir()}, truth


@pytest.fixture
def grouped(grouped_template, tmp_path):
    root, pristine, truth = grouped_template
    work = tmp_path / "work"
    shutil.copytree(root, work)
    return work, pristine, truth


def _rot_group_payload(root) -> int:
    """Flip a byte in the middle of the first group payload of step 0's
    segment; returns the step."""
    with SeriesReader.open(root / "camp.rphm") as reader:
        shard = root / reader.shard_of(0).rsplit("/", 1)[-1]
    with SeriesReader.open(shard) as series:
        step = series.entry(0)
    raw = shard.read_bytes()
    segment = ContainerReader(raw[step.offset : step.offset + step.length])
    entry = segment.group_entries[0]
    group = segment.group(entry.gid)
    rel, length, _ = group.member_extent(0)
    flip_byte(shard, step.offset + entry.offset + group.header_len + rel + length // 2)
    return step.step


def test_a_rotten_group_payload_is_a_finding(grouped):
    root, _, _ = grouped
    step = _rot_group_payload(root)
    found = {(f.kind, f.step) for f in scrub(root / "camp.rphm").findings}
    # named as the group payload it is, beside its segment's and its
    # parity stripe's crc findings
    assert found == {("group-payload", step), ("segment", step), ("parity-member", step)}


def test_a_rotten_group_payload_parity_heals_bit_exactly(grouped):
    root, pristine, _ = grouped
    _rot_group_payload(root)
    report = repair_sharded(root / "camp.rphm", commit=True)
    assert len(report.reconstructed) == 1 and not report.unrecoverable
    assert scrub(root / "camp.rphm").clean
    assert {p.name: p.read_bytes() for p in root.iterdir()} == pristine


def test_a_rotten_group_payload_heals_at_serve_time(grouped):
    root, _, truth = grouped
    step = _rot_group_payload(root)

    async def serve():
        svc = QueryService(root / "camp.rphm", heal=True)
        try:
            return await svc.query_info(steps=step)
        finally:
            svc.close()

    got, info = asyncio.run(serve())
    assert info.repairs > 0 and not info.missing
    want = {k: v for k, v in truth.items() if k[0] == step}
    assert got.keys() == want.keys()
    assert all(np.array_equal(got[k], want[k]) for k in want)
