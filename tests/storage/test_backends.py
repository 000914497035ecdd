"""Storage backends: the byte surface under every container and series.

Three contracts: :class:`LocalFileBackend` is byte-identical to the
historical direct-``Path`` I/O; :class:`MemoryBackend` runs the full
write/read/append lifecycle without touching disk (and degrades
durability *visibly*); :class:`RangedBackend` turns reads into retried,
readahead ranged GETs without changing any bytes.
"""

from __future__ import annotations

import io
import random

import numpy as np
import pytest

from repro.compression.amr_codec import compress_hierarchy
from repro.compression.container import ContainerReader
from repro.errors import (
    CompressionError,
    FormatError,
    StorageError,
    TransientStorageError,
)
from repro.insitu import SeriesReader, StreamingWriter
from repro.storage import LocalFileBackend, MemoryBackend, RangedBackend
from tests.strategies import make_sphere_hierarchy


@pytest.fixture()
def hier():
    return make_sphere_hierarchy(8)


def _write_series(backend, name, steps=2):
    with StreamingWriter.create(name, "sz-lr", 1e-3, backend=backend) as writer:
        for i in range(steps):
            writer.append_step(make_sphere_hierarchy(8))
    return writer


class TestLocalFileBackend:
    def test_object_lifecycle(self, tmp_path):
        be = LocalFileBackend(tmp_path)
        with be.open_write("a/b.bin") as h:
            h.write(b"payload")
        assert be.exists("a/b.bin") and be.size("a/b.bin") == 7
        with be.open_read("a/b.bin") as h:
            assert h.read() == b"payload"
        with be.open_append("a/b.bin") as h:
            h.seek(0, io.SEEK_END)
            h.write(b"!")
        assert be.size("a/b.bin") == 8
        assert be.list("a/") == ["a/b.bin"]
        be.delete("a/b.bin")
        assert not be.exists("a/b.bin")

    def test_errors_wrap_as_storage_error(self, tmp_path):
        be = LocalFileBackend(tmp_path)
        with pytest.raises(StorageError):
            be.open_read("missing.bin")
        with pytest.raises(StorageError):
            be.size("missing.bin")
        with pytest.raises(StorageError):
            be.delete("missing.bin")

    def test_byte_identical_to_direct_path(self, tmp_path):
        """backend=LocalFileBackend() produces the same file as backend=None."""
        direct = tmp_path / "direct.rph2s"
        via = tmp_path / "via.rph2s"
        steps = [make_sphere_hierarchy(8)]
        with StreamingWriter.create(direct, "sz-lr", 1e-3) as w:
            w.append_step(steps[0])
        with StreamingWriter.create(str(via), "sz-lr", 1e-3,
                                    backend=LocalFileBackend(tmp_path)) as w:
            w.append_step(steps[0])
        assert direct.read_bytes() == via.read_bytes()


class TestMemoryBackend:
    def test_series_lifecycle_off_disk(self):
        be = MemoryBackend()
        writer = _write_series(be, "run.rph2s")
        assert writer.degraded  # no fd to fsync: loud, not silent
        with SeriesReader.open("run.rph2s", backend=be) as reader:
            assert reader.steps == (0, 1)
            got = reader.select(steps=1)
        assert {k[0] for k in got} == {1}
        # Append resumes from the stored object.
        with StreamingWriter.append_to("run.rph2s", backend=be) as writer:
            writer.append_step(make_sphere_hierarchy(8))
        with SeriesReader.open("run.rph2s", backend=be) as reader:
            assert reader.n_steps == 3

    def test_container_reads_through_backend(self, hier):
        be = MemoryBackend()
        blob = compress_hierarchy(hier, codec="sz-lr", error_bound=1e-3).tobytes()
        with be.open_write("h.rprh") as h:
            h.write(blob)
        with ContainerReader.open("h.rprh", backend=be) as reader:
            level, field, patch = reader.entries[0].key
            arr = reader.read_patch(level, field, patch)
        assert arr.size > 0

    def test_flush_publishes_mid_write(self):
        be = MemoryBackend()
        h = be.open_write("obj")
        h.write(b"half")
        h.flush()
        assert be.size("obj") == 4  # observable before close
        h.write(b"+rest")
        h.close()
        assert be.size("obj") == 9

    def test_missing_objects_raise(self):
        be = MemoryBackend()
        for op in (be.open_read, be.open_append, be.size, be.delete):
            with pytest.raises(StorageError, match="no stored object"):
                op("ghost")

    def test_backend_and_mmap_are_exclusive(self, tmp_path):
        be = MemoryBackend()
        with pytest.raises(CompressionError, match="mmap"):
            SeriesReader.open("x.rph2s", backend=be, mmap=True)
        with pytest.raises(CompressionError, match="mmap"):
            ContainerReader.open("x.rprh", backend=be, mmap=True)


class TestRangedBackend:
    def test_readahead_batches_gets(self):
        inner = MemoryBackend()
        with inner.open_write("obj") as h:
            h.write(bytes(range(256)) * 64)  # 16 KiB
        be = RangedBackend(inner, readahead=4096)
        h = be.open_read("obj")
        first = h.read(10)
        assert first == bytes(range(10))
        for _ in range(100):
            h.read(8)  # all served from the readahead window
        assert be.stats["requests"] == 1
        h.seek(-16, io.SEEK_END)
        assert len(h.read()) == 16  # window miss: exactly one more GET
        assert be.stats["requests"] == 2
        h.close()
        assert h.closed

    def test_retry_with_exponential_backoff(self):
        inner = MemoryBackend()
        with inner.open_write("obj") as h:
            h.write(b"x" * 100)
        failures = {"left": 2}
        naps = []

        def fault(name, offset, length, attempt):
            if failures["left"]:
                failures["left"] -= 1
                raise TransientStorageError(f"503 on {name} attempt {attempt}")

        be = RangedBackend(inner, max_retries=3, backoff=0.01, jitter=False,
                           sleep=naps.append, fault=fault)
        h = be.open_read("obj")
        assert h.read() == b"x" * 100
        assert be.stats["retries"] == 2
        assert naps == [0.01, 0.02]  # exponential, injected clock

    def test_full_jitter_bounded_by_exponential_envelope(self):
        inner = MemoryBackend()
        with inner.open_write("obj") as h:
            h.write(b"x" * 100)
        failures = {"left": 3}
        naps = []

        def fault(name, offset, length, attempt):
            if failures["left"]:
                failures["left"] -= 1
                raise TransientStorageError("503")

        be = RangedBackend(inner, max_retries=3, backoff=0.01,
                           sleep=naps.append, fault=fault,
                           rng=random.Random(42))
        assert be.open_read("obj").read() == b"x" * 100
        assert len(naps) == 3
        for attempt, nap in enumerate(naps, start=1):
            assert 0.0 <= nap <= 0.01 * 2 ** (attempt - 1)
        # Seeded rng: the schedule is reproducible.
        failures["left"] = 3
        naps2 = []
        be2 = RangedBackend(inner, max_retries=3, backoff=0.01,
                            sleep=naps2.append, fault=fault,
                            rng=random.Random(42))
        assert be2.open_read("obj").read() == b"x" * 100
        assert naps2 == naps

    def test_max_elapsed_retry_budget(self):
        inner = MemoryBackend()
        with inner.open_write("obj") as h:
            h.write(b"data")

        def always_fail(name, offset, length, attempt):
            raise TransientStorageError("permanent brownout")

        # A fake clock that leaps 10s per look: the first computed delay
        # already blows the 5s budget, so no retry happens at all.
        ticks = iter(range(0, 1000, 10))
        be = RangedBackend(inner, max_retries=5, backoff=0.01, jitter=False,
                           max_elapsed=5.0, sleep=lambda s: None,
                           clock=lambda: float(next(ticks)),
                           fault=always_fail)
        with pytest.raises(StorageError, match="5.0s retry budget"):
            be.open_read("obj").read()
        assert be.stats["retries"] == 0

    def test_max_elapsed_allows_retries_within_budget(self):
        inner = MemoryBackend()
        with inner.open_write("obj") as h:
            h.write(b"payload")
        failures = {"left": 2}

        def fault(name, offset, length, attempt):
            if failures["left"]:
                failures["left"] -= 1
                raise TransientStorageError("503")

        be = RangedBackend(inner, max_retries=3, backoff=0.001, jitter=False,
                           max_elapsed=60.0, sleep=lambda s: None,
                           fault=fault)
        assert be.open_read("obj").read() == b"payload"
        assert be.stats["retries"] == 2

    def test_exhausted_retries_raise_storage_error(self):
        inner = MemoryBackend()
        with inner.open_write("obj") as h:
            h.write(b"data")

        def always_fail(name, offset, length, attempt):
            raise TransientStorageError("permanent brownout")

        be = RangedBackend(inner, max_retries=2, sleep=lambda s: None,
                           fault=always_fail)
        with pytest.raises(StorageError, match="after 3 attempts"):
            be.open_read("obj").read()

    def test_series_read_is_o_selection_gets(self, tmp_path):
        """Selective reads through the ranged decorator fetch a bounded
        number of ranges, far less than the file."""
        inner = LocalFileBackend(tmp_path)
        _write_series(inner, str(tmp_path / "run.rph2s"), steps=3)
        total = inner.size(str(tmp_path / "run.rph2s"))
        be = RangedBackend(inner, readahead=1 << 12)
        with SeriesReader.open(str(tmp_path / "run.rph2s"), backend=be) as r:
            r.select(steps=1)
        assert 0 < be.stats["requests"] < 40
        assert be.stats["bytes_fetched"] < 3 * total

    def test_writes_and_metadata_delegate(self, tmp_path):
        inner = MemoryBackend()
        be = RangedBackend(inner)
        with be.open_write("w") as h:
            h.write(b"zz")
        assert inner.exists("w") and be.exists("w") and be.size("w") == 2
        assert be.list("") == ["w"]
        be.delete("w")
        assert not inner.exists("w")

    def test_invalid_config_rejected(self):
        with pytest.raises(StorageError):
            RangedBackend(MemoryBackend(), readahead=0)
        with pytest.raises(StorageError):
            RangedBackend(MemoryBackend(), max_retries=-1)


class TestShardedThroughBackends:
    def test_sharded_campaign_in_memory(self):
        from repro.insitu import ShardedSeriesWriter

        be = MemoryBackend()
        with ShardedSeriesWriter.create("camp.rphm", "sz-lr", 1e-3, n_shards=2,
                                        parallel="serial", backend=be) as w:
            for i in range(4):
                w.append_step(make_sphere_hierarchy(8))
        assert sorted(be.list("camp.shard")) == [
            "camp.shard000.rph2s", "camp.shard001.rph2s",
        ]
        with SeriesReader.open("camp.rphm", backend=be) as reader:
            assert reader.is_sharded and reader.steps == (0, 1, 2, 3)
            got = reader.select(steps=[2])
        assert {k[0] for k in got} == {2}
