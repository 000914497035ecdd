"""The service decodes a step plan as ONE task — every missed patch of the
step rides one lockstep entropy pass — and batching loses nothing a
per-patch task gave: a corrupt member is still named (it, and no
neighbour), a step with parity still heals and answers byte for byte, and
the pool sees exactly one decode task per step plan."""

from __future__ import annotations

import asyncio
import re
import shutil
from pathlib import Path

import pytest

from repro.amr.io import write_sharded_series
from repro.compression.amr_codec import decompress_selection
from repro.compression.container import _decode_run
from repro.compression.base import StreamReader
from repro.errors import DecompressionError, FormatError
from repro.insitu.series import SeriesReader
from repro.parallel import WorkerPool
from repro.serve import QueryService

from tests.serve.conftest import assert_byte_identical
from tests.strategies import many_patch_hierarchy

FIELD, LEVEL, VICTIM = "a", 1, 37  # the 60 fine patches of one field; one of them


@pytest.fixture(scope="module")
def template(tmp_path_factory):
    """A parity=1 campaign of two steps, 60 fine patches per field, and its
    full decode."""
    root = tmp_path_factory.mktemp("serve-runs")
    manifest = write_sharded_series(
        root / "camp.rphm", [many_patch_hierarchy(11), many_patch_hierarchy(12)],
        "sz-lr", 1e-3, n_shards=2, parallel="serial", parity=1)
    return root, decompress_selection(manifest)


@pytest.fixture
def campaign(template, tmp_path):
    root, truth = template
    shutil.copytree(root, tmp_path / "work")
    return tmp_path / "work" / "camp.rphm", truth


def _flip_first_payload_bit(manifest: Path, step: int, key: tuple, at=lambda stream: 0) -> None:
    """Flip one bit of one patch stream of ``step``: of its first byte, or
    of the byte ``at(stream)`` names."""
    with SeriesReader.open(manifest) as campaign:
        shard = Path(campaign.shard_of(step))
    with SeriesReader.open(shard) as series:
        segment = next(e for e in series.step_entries if e.step == step)
        step_reader = series.open_step(step)
        entry = step_reader.entry(*key)
        stream = bytes(step_reader.read_stream(entry))
    blob = bytearray(shard.read_bytes())
    blob[segment.offset + entry.offset + at(stream)] ^= 0x01
    shard.write_bytes(bytes(blob))


def _dc_count_byte(stream: bytes) -> int:
    """Offset of the low byte of the ``dc`` section's recorded entry count."""
    reader = StreamReader(stream)
    return stream.index(bytes(reader.section("dc"))) + 2


class SpyPool:
    """A worker pool that records what is submitted to it."""

    def __init__(self, inner: WorkerPool):
        self._inner = inner
        self.submitted: list[tuple] = []

    def submit(self, fn, *args):
        self.submitted.append((fn, *args))
        return self._inner.submit(fn, *args)

    def __getattr__(self, name):
        return getattr(self._inner, name)


def test_one_decode_task_per_step_plan(campaign):
    manifest, truth = campaign

    async def scenario():
        pool = SpyPool(WorkerPool("thread", workers=2))
        svc = QueryService(manifest, pool=pool, cache_bytes=None)
        try:
            served = await svc.query(steps=0, fields=FIELD, levels=LEVEL)
            assert len(served) == 60
            (task,) = pool.submitted  # the cold (step, field, level 1) query: one task
            fn, (members, extents) = task
            assert fn is _decode_run
            assert len(members) == len(extents) == 60
            assert {key[:2] for key, *_ in members} == {(LEVEL, FIELD)}
            assert all(crc is not None for _, crc, _ in extents)  # verify=True
            await svc.query()  # both steps, every field and level: one task per step
            assert [len(t[1][0]) for t in pool.submitted[1:]] == [2 * (16 + 60)] * 2
            assert_byte_identical(served, {k: v for k, v in truth.items()
                                           if k[:3] == (0, LEVEL, FIELD)})
        finally:
            svc.close()
            pool.close()

    asyncio.run(scenario())


def test_corrupt_member_of_a_run_is_named_and_no_neighbour(campaign):
    manifest, _ = campaign
    _flip_first_payload_bit(manifest, 0, (LEVEL, FIELD, VICTIM))

    async def scenario():
        svc = QueryService(manifest, workers=2, heal=False)
        try:
            with pytest.raises(FormatError) as failure:
                await svc.query(steps=0, fields=FIELD, levels=LEVEL, verify=False)
            message = str(failure.value)
            assert f"(level={LEVEL}, field={FIELD!r}, patch={VICTIM})" in message
            assert re.findall(r"patch=(\d+)", message) == [str(VICTIM)]
            assert not svc._inflight
            # the other step is untouched and served whole
            assert len(await svc.query(steps=1, fields=FIELD, levels=LEVEL, verify=False)) == 60
        finally:
            svc.close()

    asyncio.run(scenario())


def test_member_whose_sections_disagree_is_named_too(campaign):
    """Without ``verify`` a stream whose ``dc`` count disagrees with its
    bytes reaches the codec, and its typed refusal names the member."""
    manifest, _ = campaign
    _flip_first_payload_bit(manifest, 0, (LEVEL, FIELD, VICTIM), at=_dc_count_byte)

    async def scenario():
        svc = QueryService(manifest, heal=False)
        try:
            with pytest.raises(DecompressionError) as failure:
                await svc.query(steps=0, fields=FIELD, levels=LEVEL, verify=False)
            message = str(failure.value)
            assert message.startswith(f"patch stream (level={LEVEL}, field={FIELD!r}, patch={VICTIM}): ")
            assert "integer blob of" in message
        finally:
            svc.close()

    asyncio.run(scenario())


@pytest.mark.parametrize("verify", [True, False], ids=["crc", "decode"])
def test_corrupt_member_heals_from_parity_and_answers_as_before(campaign, verify):
    """With ``verify`` the member's crc fails inside the task; without it
    the codec refuses the stream. Either way the step is rebuilt from
    parity once and the reply is the pristine campaign's, byte for byte."""
    manifest, truth = campaign
    _flip_first_payload_bit(manifest, 0, (LEVEL, FIELD, VICTIM))

    async def scenario():
        svc = QueryService(manifest, workers=2)
        try:
            served, info = await svc.query_info(steps=0, verify=verify)
            assert info.repairs == 1 and not info.missing
            assert_byte_identical(served, {k: v for k, v in truth.items() if k[0] == 0})
            again, info = await svc.query_info(steps=0, verify=verify)
            assert info.repairs == 0 and info.cache_hits == info.keys
            assert_byte_identical(again, served)
        finally:
            svc.close()

    asyncio.run(scenario())
