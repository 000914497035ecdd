"""Sharded multi-writer campaigns: RPHM manifests, routing, recovery.

The contract under test: a campaign fanned across N shard files is
indistinguishable, to a reader, from the same steps written by one
:class:`StreamingWriter` — same values, same selective-read semantics —
and killing one shard's writer mid-step loses at most that shard's
in-flight step while every other shard stays bit-exact.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

import repro
from repro.amr.io import write_series, write_sharded_series
from repro.compression.amr_codec import decompress_selection
from repro.errors import (
    CompressionError,
    FormatError,
    StorageError,
    TruncatedSeriesError,
)
from repro.insitu import (
    MANIFEST_MAGIC,
    SeriesReader,
    ShardedRecoveryReport,
    ShardedSeriesReader,
    ShardedSeriesWriter,
    StreamingWriter,
    recover_series,
    recover_sharded,
)
from repro.insitu.sharded import (
    _SERIES_META_KEYS,
    pack_manifest,
    parse_manifest,
    shard_names,
)
from tests.conftest import load_faultsim
from tests.strategies import make_sphere_hierarchy, scaled_steps

faultsim = load_faultsim()

N_STEPS = 6
N_SHARDS = 3


@pytest.fixture(scope="module")
def campaign(tmp_path_factory):
    """A finished 3-shard campaign plus its single-writer reference."""
    root = tmp_path_factory.mktemp("sharded")
    steps = scaled_steps(N_STEPS)
    manifest = root / "camp.rphm"
    write_sharded_series(manifest, steps, n_shards=N_SHARDS, parallel="serial",
                         durability="step")
    single = root / "single.rph2s"
    write_series(single, steps, durability="step")
    with repro.open(single) as reader:
        ref = reader.select()
    return manifest, single, ref


class TestShardedWrite:
    def test_union_is_value_identical_to_single_writer(self, campaign):
        manifest, _, ref = campaign
        with repro.open(manifest) as reader:
            assert reader.is_sharded and reader.n_shards == N_SHARDS
            assert reader.steps == tuple(range(N_STEPS))
            got = reader.select()
        assert set(got) == set(ref)
        for key, want in ref.items():
            assert np.array_equal(got[key], want), key

    def test_round_robin_routing_and_o_selection_reads(self, campaign):
        manifest, _, _ = campaign
        with SeriesReader.open(manifest) as reader:
            # Arrival order fans out round-robin: step s lives on shard s%N.
            for s in range(N_STEPS):
                assert reader.shard_of(s).endswith(
                    f".shard{s % N_SHARDS:03d}.rph2s"
                )
            only = reader.select(steps=4)
            assert {k[0] for k in only} == {4}
            reader.verify_step(4)
            assert reader.entry(4).step == 4

    def test_decompress_selection_routes_through_manifest(self, campaign):
        manifest, _, ref = campaign
        got = decompress_selection(str(manifest), steps=[1, 5])
        assert {k[0] for k in got} == {1, 5}
        for key, arr in got.items():
            assert np.array_equal(arr, ref[key])

    def test_explicit_shard_pinning(self, tmp_path):
        manifest = tmp_path / "pinned.rphm"
        steps = scaled_steps(4)
        with ShardedSeriesWriter.create(manifest, "sz-lr", 1e-3, n_shards=2,
                                        parallel="serial") as writer:
            for i, h in enumerate(steps):
                writer.append_step(h, shard=i // 2)  # ranks 0,0,1,1
        with repro.open(manifest) as reader:
            assert reader.shard_of(0) == reader.shard_of(1)
            assert reader.shard_of(2) == reader.shard_of(3)
            assert reader.shard_of(0) != reader.shard_of(2)

    def test_step_numbers_strictly_increasing_campaign_wide(self, tmp_path):
        with ShardedSeriesWriter.create(tmp_path / "x.rphm", "sz-lr", 1e-3,
                                        n_shards=2, parallel="serial") as writer:
            writer.append_step(make_sphere_hierarchy(8), step=3)
            with pytest.raises(CompressionError, match="strictly increasing"):
                writer.append_step(make_sphere_hierarchy(8), step=3)
            writer.append_step(make_sphere_hierarchy(8), step=7)

    def test_threaded_lanes_match_serial(self, tmp_path):
        """File identity, not just value identity: the background lane
        writes every byte — shards, parity, manifest — that inline
        appends write."""
        steps = scaled_steps(4)
        for mode in ("thread", "serial"):
            (tmp_path / mode).mkdir()
            write_sharded_series(tmp_path / mode / "camp.rphm", steps,
                                 n_shards=2, parallel=mode, parity=1)
        names = sorted(p.name for p in (tmp_path / "serial").iterdir())
        assert len(names) == 4  # manifest + 2 shards + 1 parity
        assert sorted(p.name for p in (tmp_path / "thread").iterdir()) == names
        for name in names:
            assert (tmp_path / "thread" / name).read_bytes() == \
                (tmp_path / "serial" / name).read_bytes(), name

    def test_append_to_refuses_manifests(self, campaign):
        manifest, _, _ = campaign
        with pytest.raises(CompressionError, match="sharded"):
            StreamingWriter.append_to(manifest)


class TestManifest:
    def test_shard_files_named_from_manifest_stem(self, tmp_path):
        names = shard_names(str(tmp_path / "runX.rphm"), 2)
        assert [Path(n).name for n in names] == [
            "runX.shard000.rph2s", "runX.shard001.rph2s",
        ]

    def test_manifest_records_per_shard_durability(self, tmp_path):
        manifest = tmp_path / "mixed.rphm"
        write_sharded_series(manifest, scaled_steps(4), n_shards=2, parallel="serial",
                             durability=("step", "none"))
        man = parse_manifest(manifest.read_bytes())
        assert man["final"] is True
        assert [r["durability"] for r in man["shards"]] == ["step", "none"]
        assert [r["steps"] for r in man["shards"]] == [[0, 2], [1, 3]]

    @pytest.mark.parametrize("parallel", ["serial", "thread"])
    def test_final_manifest_lists_only_sealed_steps(
        self, tmp_path, monkeypatch, parallel
    ):
        """A step whose append failed is in no shard, so the final
        manifest must not route it (it used to list shard 1 as [1, 3]
        while the shard index held [3], and scrub called that clean)."""
        real = StreamingWriter.append_step

        def failing(self, hierarchy, time=None, step=None, fields=None):
            if step == 1:
                raise StorageError("injected: step 1 never reaches its shard")
            return real(self, hierarchy, time=time, step=step, fields=fields)

        monkeypatch.setattr(StreamingWriter, "append_step", failing)
        manifest = tmp_path / "camp.rphm"
        writer = ShardedSeriesWriter.create(manifest, "sz-lr", 1e-3,
                                            n_shards=2, parallel=parallel)
        try:
            for i, h in enumerate(scaled_steps(4)):
                if (parallel, i) == ("serial", 1):
                    with pytest.raises(StorageError, match="injected"):
                        writer.append_step(h, step=i)
                else:
                    writer.append_step(h, step=i)
            if parallel == "thread":  # the lane's failure surfaces once
                with pytest.raises(StorageError, match="injected"):
                    writer.close()
            writer.close()
        finally:
            writer.abort()
        assert writer.n_steps == 4  # submitted, in either mode; sealed: 3
        man = parse_manifest(manifest.read_bytes())
        assert man["final"]
        assert [row["steps"] for row in man["shards"]] == [[0, 2], [3]]
        with repro.open(manifest) as reader:
            assert reader.steps == (0, 2, 3)

    def test_crc_catches_manifest_bit_rot(self, campaign, tmp_path):
        manifest, _, _ = campaign
        raw = bytearray(manifest.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        bad = tmp_path / "rotten.rphm"
        bad.write_bytes(bytes(raw))
        with pytest.raises(TruncatedSeriesError, match="checksum"):
            parse_manifest(bytes(raw))

    def test_alien_magic_is_not_recoverable_class(self):
        with pytest.raises(FormatError) as exc:
            parse_manifest(b"NOPE" + b"\x00" * 64)
        assert not isinstance(exc.value, TruncatedSeriesError)

    def test_manifest_torn_inside_its_magic_is_recoverable_class(self):
        for n in range(len(MANIFEST_MAGIC)):
            with pytest.raises(TruncatedSeriesError, match="torn"):
                parse_manifest(MANIFEST_MAGIC[:n])
        with pytest.raises(FormatError) as exc:
            parse_manifest(b"RX")
        assert not isinstance(exc.value, TruncatedSeriesError)

    def test_nonfinal_manifest_refused_without_recover(self, tmp_path):
        manifest = tmp_path / "killed.rphm"
        writer = ShardedSeriesWriter.create(manifest, "sz-lr", 1e-3,
                                            n_shards=2, parallel="serial")
        writer.append_step(make_sphere_hierarchy(8))
        writer.abort()
        assert manifest.read_bytes()[:4] == MANIFEST_MAGIC
        with pytest.raises(TruncatedSeriesError, match="final"):
            SeriesReader.open(manifest)


class TestOverwrite:
    def test_overwrite_removes_what_the_new_layout_does_not_name(self, tmp_path):
        """A 2-shard campaign written over a 4-shard one with parity leaves
        no old shard or parity file for rediscovery to adopt."""
        manifest = tmp_path / "camp.rphm"
        write_sharded_series(manifest, scaled_steps(4), n_shards=4, parity=1,
                             parallel="serial")
        with pytest.raises(CompressionError, match="parity"):  # touches nothing
            ShardedSeriesWriter.create(manifest, "sz-lr", 1e-3, n_shards=2,
                                       parity=3, overwrite=True)
        assert len(list(tmp_path.iterdir())) == 6
        write_sharded_series(manifest, scaled_steps(2), n_shards=2, parallel="serial",
                             overwrite=True)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "camp.rphm", "camp.shard000.rph2s", "camp.shard001.rph2s",
        ]
        raw = manifest.read_bytes()
        manifest.write_bytes(raw[: len(raw) // 2])
        report = recover_sharded(manifest)
        assert len(report.shard_reports) == 2 and report.steps == (0, 1)


class TestKilledWriter:
    def test_failed_final_manifest_write_leaves_it_recoverable(self, tmp_path):
        """The close's manifest write fails before a byte lands: the
        non-final manifest it was rewriting is still there and every
        sealed step is salvaged."""
        from repro.faults import FaultPlan, FaultyBackend
        from repro.sims.nyx import NyxConfig
        from repro.sims.streams import nyx_step_stream
        from repro.storage import LocalFileBackend

        plan = FaultPlan()
        plan.nth(1, match="*.rphm", kind="storage")
        with pytest.raises(StorageError, match="injected"):
            write_sharded_series(
                "camp.rphm", nyx_step_stream(4, NyxConfig(coarse_n=8)),
                n_shards=2, parallel="serial",
                backend=FaultyBackend(LocalFileBackend(root=tmp_path), plan),
            )
        assert parse_manifest((tmp_path / "camp.rphm").read_bytes())["final"] is False
        report = recover_sharded(
            "camp.rphm", commit=True, backend=LocalFileBackend(root=tmp_path)
        )
        assert report.steps == (0, 1, 2, 3) and not report.dropped

    def test_crashsim_matrix_union_oracle(self, campaign, tmp_path):
        """Every deterministic kill: normal open refuses, recovery serves
        exactly the union oracle, survivors bit-exact, commit repairs. A
        manifest torn inside its magic is no campaign to ``SeriesReader``
        (it tells one by its magic alone); ``recover_sharded`` is told."""
        manifest, _, ref = campaign
        points = faultsim.sharded_injection_points(manifest)
        assert len(points) == 6 + N_SHARDS * len(faultsim.DEFAULT_FRACS)
        assert {p.manifest for p in points} == set(faultsim.MANIFEST_STATES)
        for i, pt in enumerate(points):
            ctx = f"[sharded point {i}: {pt.label}]"
            vman = faultsim.apply_sharded(manifest, pt, tmp_path / f"v{i}")
            if not vman.read_bytes().startswith(MANIFEST_MAGIC):
                with pytest.raises(FormatError):
                    SeriesReader.open(vman, recover=True)
            else:
                with pytest.raises(TruncatedSeriesError):
                    SeriesReader.open(vman)
                with SeriesReader.open(vman, recover=True) as reader:
                    assert reader.recovered, ctx
                    assert reader.steps == pt.expect_steps, ctx
                    got = reader.select()
                for key, want in ref.items():
                    if key[0] in pt.expect_steps:
                        assert np.array_equal(got[key], want), (ctx, key)

            report = recover_sharded(vman, commit=True)
            assert isinstance(report, ShardedRecoveryReport)
            assert report.steps == pt.expect_steps, ctx
            with repro.open(vman) as reader:  # normal open after commit
                assert not reader.recovered, ctx
                assert reader.steps == pt.expect_steps, ctx

    def test_mixed_durability_per_shard_survivor_oracles(self, tmp_path):
        """Shard A at durability="step", shard B at "none"; kill B mid-step.
        The per-shard oracles differ: A keeps everything it ever sealed, B
        loses exactly the in-flight step."""
        manifest = tmp_path / "mixed.rphm"
        write_sharded_series(manifest, scaled_steps(6), n_shards=2, parallel="serial",
                             durability=("step", "none"))
        names = [Path(n).name for n in shard_names(str(manifest), 2)]
        points = faultsim.sharded_injection_points(manifest)
        victims = [p for p in points if p.victim == names[1]]
        assert victims, "no kill point for the durability='none' shard"
        pt = victims[0]
        vman = faultsim.apply_sharded(manifest, pt, tmp_path / "killed")

        report = recover_sharded(vman, commit=True)
        per_shard = {
            Path(name).name: tuple(e.step for e in rep.entries)
            for name, rep in report.shard_reports.items()
        }
        assert per_shard[names[0]] == (0, 2, 4)  # "step" shard: all sealed
        assert per_shard[names[1]] == (1, 3)     # "none" victim: lost step 5
        assert not report.dropped
        # Durability modes survive the manifest rebuild.
        man = parse_manifest(vman.read_bytes())
        assert [r["durability"] for r in man["shards"]] == ["step", "none"]
        assert "recovered" in report.describe()

    def test_shard_lost_entirely_is_dropped_not_fatal(self, campaign, tmp_path):
        manifest, _, _ = campaign
        pt = faultsim.sharded_injection_points(manifest)[0]
        vdir = tmp_path / "gone"
        vman = faultsim.apply_sharded(manifest, pt, vdir)
        victim = shard_names(str(vman), N_SHARDS)[1]
        Path(victim).write_bytes(b"NOPE")  # shard overwritten by alien bytes
        with SeriesReader.open(vman, recover=True) as reader:
            assert reader.recovery is not None
            assert [Path(n).name for n, _ in reader.recovery.dropped] == [
                Path(victim).name
            ]
            # Union drops shard 1's steps (1, 4); everything else survives.
            assert reader.steps == (0, 2, 3, 5)

    def test_recover_series_routes_manifests(self, campaign, tmp_path):
        manifest, _, _ = campaign
        pt = faultsim.sharded_injection_points(manifest)[0]
        vman = faultsim.apply_sharded(manifest, pt, tmp_path / "route")
        report = recover_series(vman)  # dry run: nothing modified
        assert isinstance(report, ShardedRecoveryReport) and not report.intact
        with pytest.raises(TruncatedSeriesError):
            SeriesReader.open(vman)
        with pytest.raises(FormatError, match="output"):
            recover_series(vman, output=tmp_path / "elsewhere.rphm")

    def test_intact_campaign_reports_intact(self, campaign):
        manifest, _, _ = campaign
        report = recover_sharded(manifest)
        assert report.intact and report.steps == tuple(range(N_STEPS))
        assert "intact" in report.describe()


class TestRecoverThroughBackend:
    """``recover_sharded(path, backend=...)`` reads the manifest *and* the
    shards through the backend: an in-memory store, or a local root the
    working directory is not."""

    @pytest.fixture(params=["healthy", "killed"])
    def case(self, request, campaign, tmp_path):
        """(directory holding ``camp.rphm`` + shards, steps that survive)."""
        manifest, _, _ = campaign
        if request.param == "healthy":
            return manifest.parent, tuple(range(N_STEPS))
        pt = next(
            pt for pt in faultsim.sharded_injection_points(manifest)
            if pt.victim and pt.expect_steps != tuple(range(N_STEPS))
        )
        vman = faultsim.apply_sharded(manifest, pt, tmp_path / "killed")
        return vman.parent, pt.expect_steps

    @staticmethod
    def _campaign_files(directory):
        return [p for p in directory.iterdir() if p.name.startswith("camp.")]

    def test_dry_run_through_memory_backend(self, case):
        from repro.storage import MemoryBackend

        directory, expect = case
        be = MemoryBackend()
        for p in self._campaign_files(directory):
            with be.open_write(p.name) as handle:
                handle.write(p.read_bytes())
        report = recover_sharded("camp.rphm", backend=be)
        assert report.steps == expect and not report.dropped
        assert report.intact == (expect == tuple(range(N_STEPS)))
        with SeriesReader.open("camp.rphm", backend=be, recover=True) as reader:
            assert reader.steps == expect
        # Committing works through any backend: a clean strict re-open.
        recover_sharded("camp.rphm", commit=True, backend=be)
        with SeriesReader.open("camp.rphm", backend=be) as reader:
            assert reader.steps == expect

    def test_dry_run_opens_every_file_once(self, case):
        """A dry run sniffs each object from the source it scans: the
        manifest and every shard are opened for reading exactly once."""
        from collections import Counter

        from repro.insitu import recover_series
        from repro.storage import MemoryBackend

        class CountingBackend(MemoryBackend):
            def __init__(self):
                super().__init__()
                self.opens = Counter()

            def open_read(self, name):
                self.opens[name] += 1
                return super().open_read(name)

        directory, expect = case
        be = CountingBackend()
        for p in self._campaign_files(directory):
            with be.open_write(p.name) as handle:
                handle.write(p.read_bytes())
        shards = sorted(p.name for p in self._campaign_files(directory) if p.suffix == ".rph2s")
        assert len(shards) == N_SHARDS
        for recover in (recover_sharded, recover_series):
            be.opens.clear()
            report = recover("camp.rphm", backend=be)
            assert report.steps == expect
            assert be.opens == Counter(["camp.rphm", *shards]), recover.__name__

    def test_rooted_local_backend_dry_then_committed(self, case, tmp_path, monkeypatch):
        import shutil

        from repro.storage import LocalFileBackend

        directory, expect = case
        root = tmp_path / "rooted"
        root.mkdir()
        for p in self._campaign_files(directory):
            shutil.copy(p, root / p.name)
        monkeypatch.chdir(tmp_path)  # relative names must resolve via the root
        be = LocalFileBackend(root=root)
        before = {p.name: p.read_bytes() for p in root.iterdir()}
        dry = recover_sharded("camp.rphm", backend=be)
        assert dry.steps == expect and not dry.dropped
        assert {p.name: p.read_bytes() for p in root.iterdir()} == before
        done = recover_sharded("camp.rphm", commit=True, backend=be)
        assert done.steps == expect
        with SeriesReader.open("camp.rphm", backend=be) as reader:  # normal open
            assert not reader.recovered and reader.steps == expect
        assert parse_manifest((root / "camp.rphm").read_bytes())["final"] is True


class TestShardedReaderApi:
    def test_meta_and_stats_aggregate(self, campaign):
        manifest, single, _ = campaign
        with repro.open(manifest) as sh, repro.open(single) as mono:
            assert sh.codec == mono.codec == "sz-lr"
            assert sh.error_bound == mono.error_bound
            assert sh.fields == mono.fields
            assert sh.times == mono.times
            assert sh.original_bytes == mono.original_bytes
            assert sh.meta()["codec"] == "sz-lr"
            assert len(sh.shards) == N_SHARDS

    def test_open_step_and_read_patch_route(self, campaign):
        manifest, _, ref = campaign
        with repro.open(manifest) as reader:
            with reader.open_step(2) as step_reader:
                assert step_reader.n_levels > 0 and step_reader.entries
            key = next(k for k in ref if k[0] == 3)
            got = reader.read_patch(*key)
            assert np.array_equal(got, ref[key])

    def test_duplicate_step_across_shards_refused(self, tmp_path):
        """Two shards both claiming a step is corruption, not a tie to
        break silently."""
        manifest = tmp_path / "dup.rphm"
        write_sharded_series(manifest, scaled_steps(2), n_shards=2, parallel="serial")
        names = shard_names(str(manifest), 2)
        # Clone shard 0 over shard 1: both now hold step 0.
        Path(names[1]).write_bytes(Path(names[0]).read_bytes())
        man = parse_manifest(manifest.read_bytes())
        meta = {k: man[k] for k in _SERIES_META_KEYS}
        manifest.write_bytes(pack_manifest(meta, man["shards"], final=True))
        with pytest.raises(FormatError, match="shard"):
            SeriesReader.open(manifest)
