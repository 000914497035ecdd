"""Crash-injection matrix for the RPH2S recovery subsystem.

The durability guarantee — a killed in-situ writer loses at most the step
in flight — is proven here by damaging a finished series at every
structurally interesting offset class (``tools/faultsim.py`` derives the
offsets from the file's real layout) and asserting, for each variant:

* recovery salvages exactly the oracle's step set — every fully-sealed
  step, nothing else;
* each salvaged step is bit-exact: segment bytes identical to the
  original, decoded arrays identical to the pre-crash reference;
* both surfaces agree: ``SeriesReader.open(..., recover=True)`` and the
  CLI ``recover --commit`` rewrite;
* an intact series opened with ``recover=True`` takes the normal footer
  path (no rebuild), and no recovery path reads more than O(scan) bytes.

Quick mode: ``REPRO_CRASH_SCALE`` < 1 (the CI crash-recovery job uses
0.25) shrinks the campaign and the truncation-fraction grid;
``REPRO_CRASH_SEED`` reseeds the deterministic bitflip offsets.
"""

from __future__ import annotations

import io
import os
from types import SimpleNamespace

import numpy as np
import pytest

import repro
from repro.amr.io import append_step, write_series
from repro.compression.__main__ import main as cli_main
from repro.errors import CompressionError, FormatError, TruncatedSeriesError
from repro.insitu import SeriesReader, StreamingWriter, recover_series, scan_segments
from tests.conftest import CountingBytesIO, load_faultsim
from tests.strategies import make_sphere_hierarchy, scaled_steps

faultsim = load_faultsim()

SCALE = float(os.environ.get("REPRO_CRASH_SCALE", "1.0"))
SEED = int(os.environ.get("REPRO_CRASH_SEED", str(faultsim.DEFAULT_SEED)))
FRACS = faultsim.DEFAULT_FRACS if SCALE >= 1.0 else (0.5,)
N_STEPS = 4 if SCALE >= 1.0 else 3

#: Offset classes that leave the series footer intact, so a normal open
#: still succeeds and the oracle is asserted against the scan directly.
_FOOTER_INTACT = ("payload-bitflip", "seal-bitflip", "adjacent-seal-bitflip")


@pytest.fixture(scope="module")
def campaign(tmp_path_factory):
    """One finished, durable series + its pre-crash ground truth."""
    path = tmp_path_factory.mktemp("crash") / "run.rph2s"
    steps = scaled_steps(N_STEPS, step=0.2)
    write_series(path, steps, codec="sz-lr", error_bound=1e-3, durability="step")
    raw = path.read_bytes()
    with repro.open(path) as reader:
        entries = {e.step: e for e in reader.step_entries}
        ref = reader.select()
    return SimpleNamespace(path=path, raw=raw, entries=entries, ref=ref)


def _points(campaign):
    return faultsim.injection_points(campaign.raw, payload_fracs=FRACS, seed=SEED)


def _assert_bit_exact(campaign, reader, expect_steps, ctx):
    """Every expected step must round-trip with its original bytes/values."""
    assert reader.steps == tuple(expect_steps), ctx
    for step in expect_steps:
        orig = campaign.entries[step]
        got = reader.entry(step)
        assert (got.offset, got.length) == (orig.offset, orig.length), ctx
        reader.verify_step(step)
    for (s, lev, field, p), want in campaign.ref.items():
        if s in expect_steps:
            assert np.array_equal(reader.read_patch(s, lev, field, p), want), (
                f"{ctx}: step {s} level {lev} patch {p} not bit-exact"
            )


class TestCrashMatrix:
    def test_every_offset_class_recovers_all_sealed_steps(self, campaign, tmp_path):
        points = _points(campaign)
        classes = {p.klass for p in points}
        # The matrix must exercise every documented offset class.
        assert classes == {
            "mid-payload", "mid-segment-footer", "mid-seal", "step-boundary",
            "append-resume", "mid-index", "mid-footer", "post-footer-garbage",
            "index-bitflip", "footer-bitflip", "payload-bitflip",
            "seal-bitflip", "adjacent-seal-bitflip",
        }
        for i, pt in enumerate(points):
            ctx = f"[point {i}: {pt.klass} — {pt.label}]"
            variant = faultsim.apply(campaign.raw, pt)

            # The scan is the oracle check: exact survivor set, bit-exact
            # segment bytes at the original offsets.
            report = scan_segments(io.BytesIO(variant))
            got_steps = tuple(e.step for e in report.entries)
            assert got_steps == pt.expect_steps, ctx
            for e in report.entries:
                want = campaign.entries[e.step]
                assert variant[e.offset : e.offset + e.length] == (
                    campaign.raw[want.offset : want.offset + want.length]
                ), f"{ctx}: step {e.step} segment bytes differ"

            if pt.klass in _FOOTER_INTACT:
                # Footer survives bit rot inside a segment/seal: a normal
                # open still works (stream crcs localize the damage), so
                # the recover surfaces are exercised by the other classes.
                SeriesReader(io.BytesIO(variant)).close()
                continue

            # Footer-destroying damage: normal open must refuse with the
            # recoverable error class, and both recovery surfaces must
            # serve exactly the sealed steps.
            with pytest.raises(TruncatedSeriesError):
                SeriesReader(io.BytesIO(variant))
            path = tmp_path / f"v{i}.rph2s"
            path.write_bytes(variant)
            if not pt.expect_steps:
                with pytest.raises(TruncatedSeriesError, match="nothing to recover"):
                    SeriesReader.open(path, recover=True)
                assert cli_main(["recover", str(path), "--commit"]) == 1
                assert path.read_bytes() == variant  # never half-committed
                continue
            with SeriesReader.open(path, recover=True) as reader:
                assert reader.recovered and reader.recovery is not None
                _assert_bit_exact(campaign, reader, pt.expect_steps, ctx)
            assert path.read_bytes() == variant  # recover=True is read-only

            assert cli_main(["recover", str(path), "--commit"]) == 0
            with repro.open(path) as reader:  # normal open after commit
                assert not reader.recovered, ctx
                _assert_bit_exact(campaign, reader, pt.expect_steps, ctx)

    def test_clean_boundary_commit_is_byte_identical(self, campaign, tmp_path):
        """A crash exactly on the last sealed boundary commits back to a
        file byte-identical to the uninterrupted original — index builder
        and writer share one serialization."""
        last = campaign.entries[max(campaign.entries)]
        cut = last.offset + last.length + faultsim.SEAL_SIZE
        path = tmp_path / "boundary.rph2s"
        path.write_bytes(campaign.raw[:cut])
        assert cli_main(["recover", str(path), "--commit"]) == 0
        assert path.read_bytes() == campaign.raw

    def test_recovery_reads_o_scan_bytes(self, campaign):
        # Worst interesting case: footer gone, every step sealed.
        variant = campaign.raw[: campaign.raw.rfind(b"RPH2SIDX") - 40]
        counting = CountingBytesIO(variant)
        report = scan_segments(counting)
        assert report.entries, "scan found nothing — bad test setup"
        # A bounded number of passes over the file, never O(steps x file).
        assert counting.bytes_read <= 4 * len(variant) + 4096


class TestRecoverSurfaces:
    def test_intact_series_takes_normal_path(self, campaign):
        with SeriesReader.open(campaign.path, recover=True) as reader:
            assert not reader.recovered and reader.recovery is None
            _assert_bit_exact(
                campaign, reader, tuple(sorted(campaign.entries)), "intact"
            )
        assert campaign.path.read_bytes() == campaign.raw

    def test_dry_run_reports_without_modifying(self, campaign, tmp_path):
        path = tmp_path / "dry.rph2s"
        variant = campaign.raw[:-10]
        path.write_bytes(variant)
        report = recover_series(path)
        assert not report.intact and "footer" in report.reason
        assert [e.step for e in report.entries] == sorted(campaign.entries)
        assert path.read_bytes() == variant
        assert cli_main(["recover", str(path)]) == 0  # dry run via CLI too
        assert path.read_bytes() == variant

    def test_commit_to_output_preserves_original(self, campaign, tmp_path):
        damaged = tmp_path / "damaged.rph2s"
        fixed = tmp_path / "fixed.rph2s"
        variant = campaign.raw[:-10]
        damaged.write_bytes(variant)
        assert cli_main(["recover", str(damaged), "--commit", "-o", str(fixed)]) == 0
        assert damaged.read_bytes() == variant
        with repro.open(fixed) as reader:
            _assert_bit_exact(
                campaign, reader, tuple(sorted(campaign.entries)), "output"
            )

    def test_recovered_series_appendable_after_commit(self, campaign, tmp_path):
        path = tmp_path / "resume.rph2s"
        path.write_bytes(campaign.raw[:-10])
        recover_series(path, commit=True)
        entry = append_step(path, make_sphere_hierarchy(8), time=99.0)
        assert entry.step == max(campaign.entries) + 1
        with repro.open(path) as reader:
            assert reader.times[-1] == 99.0

    def test_recover_report_describe_names_steps(self, campaign, tmp_path):
        path = tmp_path / "desc.rph2s"
        path.write_bytes(campaign.raw[:-10])
        text = recover_series(path).describe()
        assert "recovered" in text and "via seal" in text
        intact_text = recover_series(campaign.path).describe()
        assert "intact" in intact_text

    def test_non_series_refused(self, tmp_path):
        path = tmp_path / "alien.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 128)
        with pytest.raises(FormatError, match="not an RPH2S"):
            scan_segments(path)
        with pytest.raises(FormatError, match="not an RPH2S"):
            recover_series(path)

    def test_mmap_recovery(self, campaign, tmp_path):
        path = tmp_path / "mapped.rph2s"
        path.write_bytes(campaign.raw[:-10])
        with SeriesReader.open(path, mmap=True, recover=True) as reader:
            assert reader.mapped and reader.recovered
            _assert_bit_exact(
                campaign, reader, tuple(sorted(campaign.entries)), "mmap"
            )


class TestDurability:
    def test_truncation_error_names_recovery(self, campaign, tmp_path):
        path = tmp_path / "hint.rph2s"
        path.write_bytes(campaign.raw[:-10])
        with pytest.raises(TruncatedSeriesError, match="recover"):
            SeriesReader.open(path)
        # Bad magic stays a distinct, non-recoverable failure class.
        try:
            SeriesReader(io.BytesIO(b"NOPE" + b"\x00" * 128))
        except TruncatedSeriesError:  # pragma: no cover - the wrong class
            pytest.fail("bad magic must not be classified as truncation")
        except FormatError as exc:
            assert "not an RPH2S series" in str(exc)

    def test_unknown_durability_rejected(self, tmp_path):
        with pytest.raises(CompressionError, match="durability"):
            StreamingWriter.create(tmp_path / "x.rph2s", "sz-lr", 1e-3,
                                   durability="paranoid")

    def test_fsync_failure_raises_under_step(self, tmp_path, monkeypatch):
        """A failing fsync must not silently void ``durability="step"``."""
        path = tmp_path / "sync.rph2s"
        writer = StreamingWriter.create(path, "sz-lr", 1e-3, durability="step")
        try:
            def boom(fd):
                raise OSError(5, "Input/output error")

            monkeypatch.setattr(os, "fsync", boom)
            with pytest.raises(CompressionError, match="fsync"):
                writer.append_step(make_sphere_hierarchy(8))
            assert writer.degraded
        finally:
            monkeypatch.undo()
            writer.abort()

    def test_fsync_failure_warns_under_close(self, tmp_path, monkeypatch):
        """Under ``durability="close"`` a failing fsync degrades loudly —
        warn, flag the writer, keep the (flushed) file readable."""
        path = tmp_path / "warned.rph2s"
        writer = StreamingWriter.create(path, "sz-lr", 1e-3, durability="close")
        writer.append_step(make_sphere_hierarchy(8))

        def boom(fd):
            raise OSError(5, "Input/output error")

        monkeypatch.setattr(os, "fsync", boom)
        with pytest.warns(RuntimeWarning, match="fsync"):
            writer.close()
        monkeypatch.undo()
        assert writer.degraded
        with repro.open(path) as reader:
            assert reader.n_steps == 1

    def test_append_to_truncates_stale_index_eagerly(self, campaign, tmp_path):
        """``append_to`` must cut the old index/footer the moment it takes
        over the file — a crash before the first new step must leave the
        append-resume shape (all seals intact, zero stale bytes), never a
        stale index whose entries lie about the file's contents."""
        path = tmp_path / "resume.rph2s"
        path.write_bytes(campaign.raw)
        with repro.open(path) as reader:
            resume_pos = reader._index_offset
        writer = StreamingWriter.append_to(path)
        try:
            assert path.stat().st_size == resume_pos
            assert path.read_bytes() == campaign.raw[:resume_pos]
        finally:
            writer.abort()
        # The aborted shape is exactly faultsim's append-resume class:
        # every original step salvageable, bit-exactly.
        report = scan_segments(path)
        assert [e.step for e in report.entries] == sorted(campaign.entries)
        recover_series(path, commit=True)
        with repro.open(path) as reader:
            _assert_bit_exact(
                campaign, reader, tuple(sorted(campaign.entries)), "resume"
            )

    @pytest.mark.parametrize("durability,min_syncs", [("step", 4), ("none", 0)])
    def test_fsync_placement(self, tmp_path, monkeypatch, durability, min_syncs):
        calls = []
        real_fsync = os.fsync
        monkeypatch.setattr(os, "fsync", lambda fd: calls.append(fd) or real_fsync(fd))
        path = tmp_path / f"{durability}.rph2s"
        with StreamingWriter.create(path, "sz-lr", 1e-3,
                                    durability=durability) as writer:
            writer.append_step(make_sphere_hierarchy(8))
            writer.append_step(make_sphere_hierarchy(8))
        if min_syncs:
            # One per sealed step plus the two-phase index/footer commit.
            assert len(calls) >= min_syncs
        else:
            assert not calls
        with repro.open(path) as reader:
            assert reader.n_steps == 2
