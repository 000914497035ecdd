"""The read service over a grouped campaign — every segment's runs of
patches under shared codebooks — answers what ``repro.open(...).select``
answers: cold, warm, partial (a step lost to a rotten group payload) and
healed from parity."""

from __future__ import annotations

import asyncio
import shutil
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.amr.io import write_sharded_series
from repro.compression.container import ContainerReader
from repro.insitu.series import SeriesReader
from repro.serve import QueryService

from tests.integrity.conftest import flip_byte
from tests.strategies import many_patch_hierarchy

N_STEPS = 4


@pytest.fixture(scope="module")
def grouped_template(tmp_path_factory):
    root = tmp_path_factory.mktemp("serve-grouped")
    manifest = root / "camp.rphm"
    write_sharded_series(manifest, [many_patch_hierarchy(s) for s in range(N_STEPS)],
                         "sz-lr", 1e-3, n_shards=2, parallel="serial", parity=1)
    with repro.open(manifest) as reader:
        truth = reader.select()
    return root, truth


@pytest.fixture
def grouped(grouped_template, tmp_path):
    root, truth = grouped_template
    work = tmp_path / "work"
    shutil.copytree(root, work)
    return work / "camp.rphm", truth


def _rot_step_zero(manifest) -> None:
    """Flip a byte inside step 0's first group payload."""
    with SeriesReader.open(manifest) as reader:
        shard = Path(reader.shard_of(0))
    with SeriesReader.open(shard) as series:
        step = series.entry(0)
    raw = shard.read_bytes()
    segment = ContainerReader(raw[step.offset : step.offset + step.length])
    entry = segment.group_entries[0]
    assert entry.gid in {e.group for e in segment.entries}
    group = segment.group(entry.gid)
    flip_byte(shard, step.offset + entry.offset + group.header_len + group.payload_len // 2)


def _query(manifest, queries, **options):
    async def run():
        svc = QueryService(manifest, **options)
        try:
            return [await svc.query_info(**sel) for sel in queries]
        finally:
            svc.close()

    return asyncio.run(run())


def _equal(got: dict, want: dict) -> bool:
    return got.keys() == want.keys() and all(np.array_equal(got[k], want[k]) for k in want)


def _subset(truth: dict, keep) -> dict:
    return {k: v for k, v in truth.items() if keep(k)}


def test_cold_and_warm_replies_are_the_select(grouped):
    manifest, truth = grouped
    (cold, cold_info), (warm, warm_info), (one, _) = _query(
        manifest, [{}, {}, {"steps": 2, "levels": 1, "patches": [1, 3]}])
    assert cold_info.group_batches > 0 and cold_info.cache_misses == len(truth)
    assert _equal(cold, truth)
    assert warm_info.cache_misses == 0 and warm_info.fetched_bytes == 0
    assert _equal(warm, truth)
    assert _equal(one, _subset(truth, lambda k: k[0] == 2 and k[1] == 1 and k[3] in (1, 3)))


def test_a_cold_one_patch_query_is_the_select(grouped):
    manifest, truth = grouped
    ((got, info),) = _query(manifest, [{"steps": 1, "levels": 1, "fields": "a", "patches": 0}])
    assert info.group_batches == 1
    assert _equal(got, _subset(truth, lambda k: k == (1, 1, "a", 0)))


def test_partial_reply_drops_the_rotten_step(grouped):
    manifest, truth = grouped
    _rot_step_zero(manifest)
    ((got, info),) = _query(manifest, [{"partial": True}], heal=False)
    assert [m["step"] for m in info.missing] == [0]
    assert _equal(got, _subset(truth, lambda k: k[0] != 0))


def test_healed_reply_is_the_select(grouped):
    manifest, truth = grouped
    _rot_step_zero(manifest)
    (healed, info), (again, again_info) = _query(manifest, [{}, {"steps": 0}], heal=True)
    assert info.repairs > 0 and not info.missing
    assert _equal(healed, truth)
    assert again_info.repairs == 0 and again_info.cache_misses == 0
    assert _equal(again, _subset(truth, lambda k: k[0] == 0))


def test_a_concurrent_query_joins_every_step_in_flight(grouped):
    """Loading a step's group headers awaits; a second query walking
    meanwhile must find every step's decode already in flight, not only
    the first one's, and read nothing itself."""
    manifest, truth = grouped

    async def run():
        svc = QueryService(manifest)
        try:
            return await asyncio.gather(svc.query_info(), svc.query_info())
        finally:
            svc.close()

    (first, first_info), (second, second_info) = asyncio.run(run())
    assert first_info.cache_misses == len(truth) and first_info.group_batches > N_STEPS
    assert second_info.cache_misses == 0 and second_info.fetched_bytes == 0
    assert _equal(first, truth) and _equal(second, truth)
