"""A rejected argument touches nothing.

``StreamingWriter.create`` / ``append_to`` and ``ShardedSeriesWriter.create``
validate everything the arguments can get wrong *before* the target is
opened: a refused call neither truncates an existing object nor leaves
behind one it made, whatever the backend — and passing no backend cannot
differ from passing the local one.
"""

from __future__ import annotations

import pytest

from repro.errors import CompressionError, FormatError, ReproError, StorageError
from repro.insitu import SeriesReader, StreamingWriter
from repro.insitu.sharded import ShardedSeriesWriter
from repro.parallel import WorkerPool
from repro.storage import LocalFileBackend, MemoryBackend
from tests.strategies import make_sphere_hierarchy

BAD = {
    "durability": {"durability": "paranoid"},
    "codec": {"codec": "no-such-codec"},
    "mode": {"mode": "x"},
    "fields-repeated": {"fields": ["f", "f"]},
    "fields-empty": {"fields": []},
}
#: The sharded writer still takes a mode string (``parallel="thread"`` is its
#: campaign lane); a ``StreamingWriter`` takes only a pool.
SHARDED_BAD = {**BAD, "parallel": {"parallel": "gpu"}}


def _closed_pool() -> WorkerPool:
    pool = WorkerPool("thread")
    pool.close()
    return pool


@pytest.fixture(params=["none", "local", "memory"])
def store(request, tmp_path, monkeypatch):
    """``(backend= argument, backend to inspect the outcome through)``."""
    monkeypatch.chdir(tmp_path)
    backend = {"none": None, "local": LocalFileBackend(), "memory": MemoryBackend()}[
        request.param
    ]
    return backend, backend or LocalFileBackend()


def _read(look, name: str) -> bytes:
    with look.open_read(name) as handle:
        return handle.read()


def _create(name, backend, **overrides):
    args = {"codec": "sz-lr", "error_bound": 1e-3, "overwrite": True, **overrides}
    return StreamingWriter.create(name, backend=backend, **args)


class TestStreamingWriter:
    @pytest.mark.parametrize("bad", BAD)
    def test_existing_series_keeps_its_bytes(self, store, bad):
        backend, look = store
        with _create("run.rph2s", backend) as w:
            w.append_step(make_sphere_hierarchy(8))
            w.append_step(make_sphere_hierarchy(8))
        before = _read(look, "run.rph2s")
        with pytest.raises(ReproError):
            _create("run.rph2s", backend, **BAD[bad])
        assert _read(look, "run.rph2s") == before
        with SeriesReader.open("run.rph2s", backend=backend) as reader:
            assert reader.n_steps == 2

    @pytest.mark.parametrize("bad", BAD)
    def test_fresh_path_leaves_nothing(self, store, bad):
        backend, look = store
        with pytest.raises(ReproError):
            _create("fresh.rph2s", backend, **BAD[bad])
        assert not look.exists("fresh.rph2s")
        # ... so the corrected retry is not refused as "already exists".
        _create("fresh.rph2s", backend, overwrite=False).abort()

    @pytest.mark.parametrize("kwargs", [
        {"field_bounds": {"f": -1.0}},
        {"field_bounds": {"g": 1e-3}, "fields": ["f"]},
    ], ids=["bound", "unknown-field"])
    def test_other_arguments_are_checked_first_too(self, store, kwargs):
        backend, look = store
        with pytest.raises(ReproError):
            _create("fresh.rph2s", backend, **kwargs)
        assert not look.exists("fresh.rph2s")

    def test_closed_pool_is_refused_before_the_open(self, store):
        backend, look = store
        with pytest.raises(CompressionError, match="pool is closed"):
            _create("fresh.rph2s", backend, pool=_closed_pool())
        assert not look.exists("fresh.rph2s")

    @pytest.mark.parametrize("fields", [["f", "f"], []], ids=["repeated", "empty"])
    def test_append_step_checks_its_field_list_first(self, store, fields):
        """A repeated name once sealed ``n_patches`` twice over and recorded
        the series fields as ``('f', 'f')``."""
        backend, look = store
        with _create("run.rph2s", backend) as w:
            with pytest.raises(CompressionError, match="more than once|is empty"):
                w.append_step(make_sphere_hierarchy(8), fields=fields)
            entry = w.append_step(make_sphere_hierarchy(8), fields=["f"])
        assert entry.n_patches == 2
        with SeriesReader.open("run.rph2s", backend=backend) as reader:
            assert reader.fields == ("f",) and reader.n_steps == 1

    def test_append_to_keeps_the_series_on_a_bad_argument(self, store):
        backend, look = store
        with _create("run.rph2s", backend) as w:
            w.append_step(make_sphere_hierarchy(8))
        before = _read(look, "run.rph2s")
        for kwargs in ({"durability": "paranoid"}, {"pool": _closed_pool()}):
            with pytest.raises(ReproError):
                StreamingWriter.append_to("run.rph2s", backend=backend, **kwargs)
            assert _read(look, "run.rph2s") == before

    def test_overwrite_false_on_an_existing_object(self, store):
        backend, look = store
        _create("run.rph2s", backend).abort()
        before = _read(look, "run.rph2s")
        with pytest.raises(FormatError, match="already exists"):
            _create("run.rph2s", backend, overwrite=False)
        assert _read(look, "run.rph2s") == before


class TestNoneIsTheLocalBackend:
    """Defect 3: the two spellings of "the local filesystem" differed."""

    @pytest.mark.parametrize("backend", [None, LocalFileBackend()], ids=["none", "local"])
    def test_missing_parent_is_made_and_a_directory_is_typed(
        self, backend, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        with _create("deep/er/run.rph2s", backend) as w:
            w.append_step(make_sphere_hierarchy(8))
        with SeriesReader.open("deep/er/run.rph2s", backend=backend) as reader:
            assert reader.n_steps == 1
        with pytest.raises(StorageError, match="deep"):
            _create("deep", backend)
        assert (tmp_path / "deep").is_dir()


class TestShardedWriter:
    @staticmethod
    def _create(backend, **overrides):
        args = {"codec": "sz-lr", "error_bound": 1e-3, "n_shards": 2,
                "overwrite": True, "parity": 1, **overrides}
        return ShardedSeriesWriter.create("camp.rphm", backend=backend, **args)

    @pytest.mark.parametrize("bad", SHARDED_BAD)
    def test_fresh_campaign_leaves_no_manifest_and_no_shard(self, store, bad):
        backend, look = store
        with pytest.raises(ReproError):
            self._create(backend, **SHARDED_BAD[bad])
        assert look.list("camp.") == []

    @pytest.mark.parametrize("bad", SHARDED_BAD)
    def test_existing_campaign_keeps_its_bytes(self, store, bad):
        backend, look = store
        with self._create(backend, parallel="serial") as w:
            for _ in range(2):
                w.append_step(make_sphere_hierarchy(8))
        before = {name: _read(look, name) for name in look.list("camp.")}
        assert len(before) == 4  # manifest, two shards, one parity file
        with pytest.raises(ReproError):
            self._create(backend, **SHARDED_BAD[bad])
        assert {name: _read(look, name) for name in look.list("camp.")} == before

    def test_a_zero_window_leaves_no_manifest_and_no_shard(self, store):
        """``max_pending_steps=0`` is refused like ``-1``, not run as the default."""
        backend, look = store
        with pytest.raises(CompressionError, match="max_pending_steps must be >= 1, got 0"):
            self._create(backend, max_pending_steps=0)
        assert look.list("camp.") == []

    def test_overwrite_false_on_an_existing_manifest(self, store):
        backend, look = store
        self._create(backend).abort()
        before = _read(look, "camp.rphm")
        with pytest.raises(FormatError, match="manifest 'camp.rphm' already exists"):
            self._create(backend, overwrite=False)
        assert _read(look, "camp.rphm") == before
