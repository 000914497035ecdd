"""The streaming writer's run buffer: it owns what it is handed.

``add_patch`` defers the encode (a run of patches is one kernel pass, and
with a pool the encode runs on a worker), so it must copy its input: a
solver that reuses its buffer right after the call must not change what
gets stored. Validation still happens *at* the call.
"""

from __future__ import annotations

import threading
from pathlib import Path

import numpy as np
import pytest

from repro.amr.io import open_series
from repro.amr.patch import Patch
from repro.compression import amr_codec
from repro.errors import CompressionError
from repro.insitu import ShardedSeriesWriter, StreamingWriter
from repro.parallel import WorkerPool
from tests.conftest import make_sphere_hierarchy

EB = 1e-3


def _patches(n: int = 5):
    rng = np.random.default_rng(3)
    return [np.cumsum(rng.standard_normal((8, 8, 8)), axis=0) for _ in range(n)]


def _assert_stored(path, originals):
    with open_series(path) as reader:
        for p_idx, want in enumerate(originals):
            got = reader.read_patch(reader.steps[0], 0, "f", p_idx)
            assert np.abs(got - want).max() <= EB * (1 + 1e-12)


class TestOwnership:
    def test_serial_source_reused_after_add_patch(self, tmp_path):
        originals = _patches()
        path = tmp_path / "s.rph2s"
        with StreamingWriter.create(path, "sz-lr", EB, mode="abs") as w:
            w.begin_step()
            for arr in originals:
                scratch = arr.copy()
                w.add_patch(0, "f", scratch)
                scratch[:] = 7.0
            w.end_step()
        _assert_stored(path, originals)

    def test_pool_source_reused_before_the_worker_runs(self, tmp_path, monkeypatch):
        """Fails at the parent commit: the queued task held a view of the
        caller's buffer and stored the overwritten values (max error 7)."""
        monkeypatch.setattr(amr_codec, "RUNS_PER_LANE", 64)  # nothing drains early
        originals = _patches()
        path = tmp_path / "p.rph2s"
        gate = threading.Event()
        with WorkerPool("thread", workers=1) as pool:
            blocker = pool.submit(gate.wait, 30)  # the single worker is busy
            try:
                with StreamingWriter.create(path, "sz-lr", EB, mode="abs", pool=pool) as w:
                    w.begin_step()
                    for arr in originals:
                        scratch = arr.copy()
                        w.add_patch(0, "f", scratch)
                        scratch[:] = 7.0
                    gate.set()
                    w.end_step()
            finally:
                gate.set()
            assert blocker.result(timeout=30)
        _assert_stored(path, originals)

    @pytest.mark.parametrize("parallel", ["serial", "thread"])
    def test_sharded_lanes_copy_too(self, tmp_path, monkeypatch, parallel):
        real = StreamingWriter.add_patch

        def add_then_scribble(self, level, field, data, *args, **kwargs):
            real(self, level, field, data, *args, **kwargs)
            data[...] = 7.0

        monkeypatch.setattr(StreamingWriter, "add_patch", add_then_scribble)
        pristine = make_sphere_hierarchy(8)
        manifest = tmp_path / "camp.rphm"
        with ShardedSeriesWriter.create(manifest, "sz-lr", EB, mode="abs", n_shards=2,
                                        parallel=parallel) as w:
            for _ in range(2):
                w.append_step(make_sphere_hierarchy(8))
        with open_series(manifest) as reader:
            for step in reader.steps:
                for lev_idx, level in enumerate(pristine):
                    got = reader.read_patch(step, lev_idx, "f", 0)
                    want = level.patches("f")[0].data
                    assert np.abs(got - want).max() <= EB * (1 + 1e-12)


def _two_fields(nan: bool = False):
    """The sphere hierarchy with a second field ``g``; with ``nan``, ``g``'s
    last patch (the walk's last) holds a NaN, so its refusal comes after
    ``f``'s and level 0's runs were encoded and written."""
    h = make_sphere_hierarchy(8)
    for level in h:
        level.add_field("g", [Patch(p.box, p.data + 1.0) for p in level.patches("f")])
    if nan:
        h[h.n_levels - 1].patches("g")[-1].data[1, 2, 3] = np.nan
    return h


class TestRefusedStepLeavesNoBytes:
    """A step refused after writing any byte is truncated back to the last
    sealed step: the finished file equals one written without the attempt."""

    @staticmethod
    def _series(path, attempt, pooled):
        with WorkerPool("thread") as pool:
            with StreamingWriter.create(path, "sz-lr", EB, mode="abs",
                                        pool=pool if pooled else None) as w:
                w.append_step(_two_fields())
                if attempt is not None:
                    with pytest.raises(CompressionError):
                        attempt(w)
                w.append_step(_two_fields())
        return path.read_bytes()

    @pytest.mark.parametrize("pooled", [False, True])
    def test_nan_in_a_later_field(self, tmp_path, pooled):
        def nan_step(w):
            w.append_step(_two_fields(nan=True))

        clean = self._series(tmp_path / "clean.rph2s", None, pooled)
        assert self._series(tmp_path / "nan.rph2s", nan_step, pooled) == clean

    def test_empty_end_step(self, tmp_path):
        def empty_step(w):
            w.begin_step()
            w.end_step()

        clean = self._series(tmp_path / "clean.rph2s", None, False)
        assert self._series(tmp_path / "empty.rph2s", empty_step, False) == clean

    @pytest.mark.parametrize("parallel", ["serial", "thread"])
    def test_sharded_lane(self, tmp_path, parallel):
        def campaign(name, refused):
            manifest = tmp_path / name / "camp.rphm"
            manifest.parent.mkdir()
            with ShardedSeriesWriter.create(manifest, "sz-lr", EB, mode="abs", n_shards=2,
                                            parallel=parallel) as w:
                w.append_step(_two_fields(), step=0, shard=0)
                if refused:
                    with pytest.raises(CompressionError):
                        w.append_step(_two_fields(nan=True), step=1, shard=0)
                        w.flush()  # a lane failure surfaces here
                w.append_step(_two_fields(), step=2, shard=0)
                w.append_step(_two_fields(), step=3, shard=1)
                shards = w.shards
            return [Path(name).read_bytes() for name in shards]

        assert campaign("refused", True) == campaign("clean", False)


class TestErrorsSurfaceAtTheCall:
    @pytest.mark.parametrize("pooled", [False, True])
    def test_bad_input_raises_from_add_patch_and_buffers_nothing(self, tmp_path, pooled):
        good = _patches(3)
        bad_nan = good[0].copy()
        bad_nan[1, 2, 3] = np.nan
        path = tmp_path / "e.rph2s"
        with WorkerPool("thread", workers=2) as pool:
            with StreamingWriter.create(path, "sz-lr", EB, mode="abs",
                                        pool=pool if pooled else None) as w:
                w.begin_step()
                w.add_patch(0, "f", good[0])
                for bad in (bad_nan, np.ones((8, 8, 8), dtype=np.int64),
                            np.empty((0, 8, 8)), np.full((8, 8, 8), np.inf)):
                    with pytest.raises(CompressionError):
                        w.add_patch(0, "f", bad)
                with pytest.raises(CompressionError, match="error bound"):
                    w.add_patch(0, "f", good[1], error_bound=-1.0)
                w.add_patch(0, "f", good[1])
                w.add_patch(0, "f", good[2])
                entry = w.end_step()
        assert entry.n_patches == 3
        _assert_stored(path, good)


class TestRollback:
    @pytest.mark.parametrize("pooled", [False, True])
    def test_rollback_drops_the_unflushed_run(self, tmp_path, pooled):
        originals = _patches(4)
        path = tmp_path / "r.rph2s"
        with WorkerPool("thread", workers=2) as pool:
            with StreamingWriter.create(path, "sz-lr", EB, mode="abs",
                                        pool=pool if pooled else None) as w:
                w.begin_step(step=0)
                w.add_patch(0, "f", np.full((8, 8, 8), 9.0))  # still buffered
                w.rollback_step()
                w.begin_step(step=0)
                for arr in originals:
                    w.add_patch(0, "f", arr)
                entry = w.end_step()
        assert entry.n_patches == len(originals)
        _assert_stored(path, originals)
