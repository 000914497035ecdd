"""One fail-over matrix for the read service: wherever a step's bytes stop
being readable (its shard cannot be opened, its segment index is corrupt,
a payload byte rots mid-stream), the outcome is decided by the one helper
in ``QueryService`` — healed from parity byte-identically, reported
``missing`` under ``partial=True``, or a typed error — and a healed step is
reconstructed once, cached, and fully accounted."""

from __future__ import annotations

import asyncio
import os
import shutil
import threading
from pathlib import Path

import pytest

from repro.amr.io import write_sharded_series
from repro.compression.amr_codec import decompress_selection
from repro.compression.container import FOOTER_SIZE, ContainerReader
from repro.errors import CircuitOpenError, FormatError, StorageError
from repro.insitu.series import SeriesReader
from repro.serve import QueryService
from repro.storage import LocalFileBackend

from tests.integrity.conftest import flip_byte
from tests.serve.conftest import N_SHARD_STEPS, N_SHARDS, assert_byte_identical
from tests.strategies import step_hierarchy


@pytest.fixture(scope="session")
def parity_template(tmp_path_factory):
    """A pristine parity=1 campaign and its full decode."""
    root = tmp_path_factory.mktemp("serve-parity")
    manifest = root / "camp.rphm"
    write_sharded_series(
        manifest, [step_hierarchy(s, 16) for s in range(N_SHARD_STEPS)],
        "sz-lr", 1e-3, n_shards=N_SHARDS, parallel="serial", parity=1,
    )
    return root, decompress_selection(manifest)


@pytest.fixture
def campaign(parity_template, tmp_path):
    """A mutable copy: ``(manifest, victim shard path, its steps, truth)``.
    The victim owns step 0."""
    root, truth = parity_template
    work = tmp_path / "work"
    shutil.copytree(root, work)
    with SeriesReader.open(work / "camp.rphm") as reader:
        victim = reader.shard_of(0)
    with SeriesReader.open(victim) as shard:
        entries = list(shard.step_entries)
    return work / "camp.rphm", victim, entries, truth


def _damage(stage: str, victim: str, entries) -> set[int]:
    """Apply one kind of damage; returns the steps it makes unreadable."""
    first = entries[0]
    if stage == "open":  # the shard is gone: open_read fails
        os.remove(victim)
        return {e.step for e in entries}
    if stage == "catalog":  # a byte of the segment index: the parse fails
        flip_byte(Path(victim), first.offset + first.length - FOOTER_SIZE - 2)
    else:  # "decode": a payload byte mid-stream: the stream crc fails
        flip_byte(Path(victim), first.offset + first.length // 2)
    return {first.step}


class _MeteredHandle:
    def __init__(self, handle, meter):
        self._handle = handle
        self._meter = meter

    def read(self, size=-1):
        blob = self._handle.read(size)
        with self._meter.lock:
            self._meter.stats["requests"] += 1
            self._meter.stats["bytes_fetched"] += len(blob)
        return blob

    def __getattr__(self, name):
        return getattr(self._handle, name)


class Meter(LocalFileBackend):
    """Counts every read of every handle it opens — unbuffered, unlike a
    ``RangedBackend`` whose readahead window may serve a re-read for free."""

    def __init__(self):
        super().__init__()
        self.lock = threading.Lock()
        self.stats = {"requests": 0, "bytes_fetched": 0}

    def open_read(self, name):
        return _MeteredHandle(super().open_read(name), self)


def _metered(manifest, **kwargs):
    backend = Meter()
    return QueryService(manifest, backend=backend, workers=2, **kwargs), backend


@pytest.mark.parametrize("stage", ["open", "catalog", "decode"])
@pytest.mark.parametrize("mode", ["heal", "partial", "strict"])
def test_failover_matrix(campaign, stage, mode):
    manifest, victim, entries, truth = campaign

    async def scenario():
        svc, backend = _metered(manifest, heal=(mode == "heal"))
        try:
            lost = _damage(stage, victim, entries)
            before = backend.stats["bytes_fetched"]
            if mode == "strict":
                with pytest.raises((StorageError, FormatError)):
                    await svc.query()
                assert not svc._inflight
                return
            served, info = await svc.query_info(partial=(mode == "partial"))
            assert not svc._inflight
            if mode == "partial":
                assert info.repairs == 0
                assert {m["step"] for m in info.missing} == lost
                assert all(m["file"] == victim for m in info.missing)
                assert_byte_identical(
                    served, {k: v for k, v in truth.items() if k[0] not in lost}
                )
                return
            # Healed: the same bytes the pristine campaign decodes to, and
            # every byte the backend served is on the query's account.
            assert_byte_identical(served, truth)
            assert info.repairs == len(lost) and not info.missing
            assert info.keys == len(truth) == info.cache_misses
            fetched = backend.stats["bytes_fetched"] - before
            assert fetched == info.fetched_bytes + info.meta_bytes
            stats = svc.stats
            assert fetched == stats["payload_bytes"] + stats["meta_bytes"]
            # The repeat is warm: nothing reconstructed, nothing read.
            again, info2 = await svc.query_info()
            assert_byte_identical(again, truth)
            assert info2.repairs == 0 and info2.cache_hits == info2.keys
            assert backend.stats["bytes_fetched"] - before == fetched
            assert svc.stats["repairs"] == len(lost)
        finally:
            svc.close()

    asyncio.run(scenario())


def test_truncated_shard_heals_the_step_it_lost(campaign):
    """Damage that predates the service: a shard cut short mid-way through
    its last segment still opens (salvaged) once the strict open has failed.
    Its sealed steps are served from the file; the lost one's extent comes
    from the parity index and its bytes heal on first touch."""
    manifest, victim, entries, truth = campaign
    last = entries[-1]
    os.truncate(victim, last.offset + last.length // 2)
    with pytest.raises((StorageError, FormatError)):
        QueryService(manifest, heal=False)

    async def scenario():
        svc, backend = _metered(manifest)
        try:
            assert svc.steps == tuple(range(N_SHARD_STEPS))
            before = backend.stats["bytes_fetched"]
            served, info = await svc.query_info()
            assert info.repairs == 1 and not info.missing
            fetched = backend.stats["bytes_fetched"] - before
            assert fetched == info.fetched_bytes + info.meta_bytes
            return served
        finally:
            svc.close()

    assert_byte_identical(asyncio.run(scenario()), truth)


def test_healed_step_outlives_its_decoded_patches(campaign):
    """A healed step is a cached *catalog*: a later query for patches the
    first one never decoded plans against the reconstruction — no second
    repair, no backend byte."""
    manifest, victim, entries, truth = campaign

    async def scenario():
        svc, backend = _metered(manifest)
        try:
            os.remove(victim)
            _, info = await svc.query_info(steps=0, levels=0)
            assert info.repairs == 1
            before = dict(backend.stats)
            served, info2 = await svc.query_info(steps=0)
            assert info2.repairs == 0 and info2.cache_misses > 0
            assert info2.fetched_bytes == 0 and info2.meta_bytes == 0
            assert backend.stats == before
            return served
        finally:
            svc.close()

    served = asyncio.run(scenario())
    assert_byte_identical(served, {k: v for k, v in truth.items() if k[0] == 0})


def test_concurrent_queries_heal_a_dead_step_once(campaign):
    manifest, victim, entries, truth = campaign

    async def scenario():
        svc, _ = _metered(manifest)
        try:
            os.remove(victim)
            replies = await asyncio.wait_for(
                asyncio.gather(*[svc.query_info() for _ in range(2)]), timeout=60
            )
            assert svc.stats["repairs"] == len(entries)
            assert sum(info.repairs for _, info in replies) == len(entries)
            assert not svc._inflight
            return [served for served, _ in replies]
        finally:
            svc.close()

    for served in asyncio.run(scenario()):
        assert_byte_identical(served, truth)


@pytest.mark.parametrize("case", ["healed", "heal off", "double loss"])
def test_waiter_shares_the_owners_outcome(campaign, case):
    """A query that joins another's in-flight decode of a rotten step gets
    what the owner got — the healed patches, or the step ``missing`` — and
    reads, and repairs, nothing itself: after the owner's failed heal there
    is nothing a second stripe read could change."""
    manifest, victim, entries, truth = campaign
    lost = _damage("decode", victim, entries)
    if case == "double loss":  # rot the same stripe's member in a 2nd shard
        with SeriesReader.open(manifest) as reader:
            other = next(s for s in reader.shards if s != victim)
        with SeriesReader.open(other) as shard:
            lost |= _damage("decode", other, list(shard.step_entries))
    missing = set() if case == "healed" else lost

    async def scenario():
        svc, _ = _metered(manifest, heal=(case != "heal off"))
        try:
            replies = await asyncio.wait_for(
                asyncio.gather(*[svc.query_info(partial=True) for _ in range(2)]),
                timeout=60,
            )
            assert not svc._inflight
            return replies, svc.stats["repairs"]
        finally:
            svc.close()

    ((owned, info1), (joined, info2)), repairs = asyncio.run(scenario())
    assert info2.cache_misses == 0 and info2.meta_bytes == 0 == info2.repairs
    assert repairs == info1.repairs == (1 if case == "healed" else 0)
    for served, info in ((owned, info1), (joined, info2)):
        assert {m["step"] for m in info.missing} == missing
        assert_byte_identical(
            served, {k: v for k, v in truth.items() if k[0] not in missing}
        )


def test_failed_shard_open_counts_against_its_breaker(campaign):
    manifest, victim, entries, truth = campaign

    async def scenario():
        svc, backend = _metered(manifest, heal=False, breaker_threshold=2)
        try:
            os.remove(victim)
            for _ in range(2):
                with pytest.raises(StorageError):
                    await svc.query(steps=0)
            assert svc.stats["breakers"][victim]["state"] == "open"
            requests = backend.stats["requests"]
            with pytest.raises(CircuitOpenError):
                await svc.query(steps=0)
            assert backend.stats["requests"] == requests
        finally:
            svc.close()

    asyncio.run(scenario())


@pytest.mark.parametrize("partial", [False, True])
def test_corrupt_group_header_fails_through_the_same_helper(
    snapshot_path, tmp_path, partial
):
    """A grouped snapshot has no parity — nothing to heal: a flipped
    RPGB header byte is a typed error, or step 0 ``missing``."""
    path = tmp_path / "snap.rph2"
    shutil.copy(snapshot_path, path)
    with ContainerReader.open(path) as reader:
        group = reader.group_entries[0]
    flip_byte(path, group.offset + 20)

    async def scenario():
        svc = QueryService(path, workers=2)
        try:
            if not partial:
                with pytest.raises(FormatError, match="header checksum"):
                    await svc.query()
                assert not svc._inflight
                return
            served, info = await svc.query_info(partial=True)
            assert [m["step"] for m in info.missing] == [0]
            assert info.missing[0]["error"] == "FormatError"
            assert served == {} and info.repairs == 0
            assert not svc._inflight
        finally:
            svc.close()

    asyncio.run(scenario())
