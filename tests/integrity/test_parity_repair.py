"""Parity shards and repair: the RPXP format's XOR arithmetic, the
manifest's overhead accounting, bit-exact reconstruction of every
single-loss damage class, the over-budget refusal, and parity's
survival through campaign recovery."""

from __future__ import annotations

import json
import os
import random
import struct
import tracemalloc
import zlib

import pytest

from repro.errors import FormatError, IntegrityError, ReproError
from repro.insitu.recovery import recover_series
from repro.insitu.sharded import ShardedSeriesReader, recover_sharded
from repro.integrity import (
    ParityReader,
    SegmentHealer,
    parity_groups,
    parity_names,
    repair_sharded,
    scrub,
    xor_blocks,
)

from repro.insitu.sharded import parse_manifest
from repro.storage import LocalFileBackend, MemoryBackend

from tests.integrity.conftest import flip_byte

SEED = 20260808


# ---------------------------------------------------------------------------
# Format arithmetic.
# ---------------------------------------------------------------------------
def test_xor_blocks_pads_and_inverts():
    rng = random.Random(SEED)
    blocks = [bytes(rng.randrange(256) for _ in range(n)) for n in (40, 17, 33)]
    parity = xor_blocks(blocks)
    assert len(parity) == 40
    # XOR of the parity with all-but-one member recovers the member
    # (zero-padded to stripe width).
    lost = blocks[1]
    back = xor_blocks([parity, blocks[0], blocks[2]])
    assert back[: len(lost)] == lost
    assert all(b == 0 for b in back[len(lost):])


def test_parity_group_assignment_round_robins():
    assert parity_groups(6, 2) == [[0, 2, 4], [1, 3, 5]]
    names = parity_names("camp.rphm", 2)
    assert names == ["camp.parity000.rpxp", "camp.parity001.rpxp"]


# ---------------------------------------------------------------------------
# Write-path accounting.
# ---------------------------------------------------------------------------
def test_manifest_records_parity_accounting(campaign):
    reader = ShardedSeriesReader.open(campaign["manifest_path"])
    rows = reader.parity
    reader.close()
    assert len(rows) == len(campaign["parity"])
    for row in rows:
        pfile = campaign["root"] / row["name"]
        assert pfile.exists()
        # The byte-overhead accounting is the literal parity file size.
        assert row["bytes"] == pfile.stat().st_size
        assert row["stripes"] > 0
        assert set(row["members"]) <= set(campaign["shards"])


def test_parity_reader_stripe_crcs_match_shards(campaign):
    for name in campaign["parity"]:
        reader = ParityReader.open(str(campaign["root"] / name))
        try:
            assert reader.stripes, "parity file carries no stripes"
            for stripe in reader.stripes:
                blob = reader.parity_bytes(stripe, verify=True)
                members = []
                for m in stripe.members:
                    raw = (campaign["root"] / m.shard).read_bytes()
                    seg = raw[m.offset : m.offset + m.length]
                    assert zlib.crc32(seg) == m.crc32
                    members.append(seg)
                # The stored parity IS the XOR of its members.
                assert xor_blocks(members, length=stripe.length) == blob
        finally:
            reader.close()


# ---------------------------------------------------------------------------
# Repair: every single-loss damage class restores bit-exactly.
# ---------------------------------------------------------------------------
def _assert_shard_extents_pristine(campaign, shard):
    repaired = (campaign["root"] / shard).read_bytes()
    pristine = campaign["pristine"][shard]
    for step, offset, length in campaign["extents"][shard]:
        assert repaired[offset : offset + length] == \
            pristine[offset : offset + length], f"step {step} not bit-exact"


def test_bit_rot_repairs_bit_exact(campaign):
    shard = campaign["shards"][0]
    step, offset, length = campaign["extents"][shard][0]
    flip_byte(campaign["root"] / shard, offset + length // 3)
    dry = repair_sharded(campaign["manifest_path"])
    assert [d.step for d in dry.reconstructed] == [step]
    assert not dry.committed
    report = repair_sharded(campaign["manifest_path"], commit=True)
    assert report.committed and not report.unrecoverable
    _assert_shard_extents_pristine(campaign, shard)
    assert scrub(campaign["manifest_path"]).clean


def test_deleted_shard_resurrects_bit_exact(campaign):
    shard = campaign["shards"][1]
    os.remove(campaign["root"] / shard)
    report = repair_sharded(campaign["manifest_path"], commit=True)
    assert not report.unrecoverable
    assert {d.step for d in report.reconstructed} == {
        step for step, _, _ in campaign["extents"][shard]
    }
    _assert_shard_extents_pristine(campaign, shard)
    assert scrub(campaign["manifest_path"]).clean
    # The resurrected campaign reads like the original.
    reader = ShardedSeriesReader.open(campaign["manifest_path"])
    assert reader.n_steps == sum(len(v) for v in campaign["extents"].values())
    reader.close()


def test_multi_loss_is_refused_not_fabricated(campaign):
    for shard in campaign["shards"][:2]:
        os.remove(campaign["root"] / shard)
    report = repair_sharded(campaign["manifest_path"])
    assert report.unrecoverable
    blamed = {d.shard for d in report.unrecoverable}
    assert set(campaign["shards"][:2]) <= blamed
    for damage in report.unrecoverable:
        assert damage.blocked_by  # names the co-lost members


def test_repair_without_parity_raises_integrity_error(tmp_path):
    from repro.amr.io import write_sharded_series

    from tests.integrity.conftest import campaign_steps

    manifest = tmp_path / "bare.rphm"
    write_sharded_series(manifest, campaign_steps()[:2], "sz-lr", 1e-3,
                         n_shards=2, parallel="serial")
    with pytest.raises(IntegrityError, match="parity"):
        repair_sharded(manifest)


def test_recover_sharded_preserves_parity_rows(campaign):
    # Torn tail on one shard: recovery truncates it back to the sealed
    # prefix; offsets of sealed segments are unchanged, so the recovered
    # manifest must keep its parity rows (and still scrub clean).
    shard = campaign["root"] / campaign["shards"][2]
    with open(shard, "ab") as handle:
        handle.write(b"\x00" * 123)  # torn step: garbage past the seal
    recover_series(shard, commit=True)
    recover_sharded(campaign["manifest_path"], commit=True)
    reader = ShardedSeriesReader.open(campaign["manifest_path"])
    assert len(reader.parity) == len(campaign["parity"])
    reader.close()
    assert scrub(campaign["manifest_path"]).clean


# ---------------------------------------------------------------------------
# SegmentHealer: the serving layer's single-segment primitive.
# ---------------------------------------------------------------------------
def test_segment_healer_reconstructs_and_writes_back(campaign):
    shard = campaign["shards"][0]
    step, offset, length = campaign["extents"][shard][0]
    flip_byte(campaign["root"] / shard, offset + 5)
    rows = ShardedSeriesReader.open(campaign["manifest_path"]).parity
    healer = SegmentHealer(str(campaign["manifest_path"]), rows)
    try:
        member, blob = healer.heal(shard, step)
        pristine = campaign["pristine"][shard][offset : offset + length]
        assert blob == pristine
        assert healer.write_back(shard, member, blob)
    finally:
        healer.close()
    assert scrub(campaign["manifest_path"]).clean


def test_segment_healer_refuses_double_loss(campaign):
    from repro.insitu.sharded import parse_manifest

    shard0, shard1 = campaign["shards"][:2]
    os.remove(campaign["root"] / shard0)
    os.remove(campaign["root"] / shard1)
    # The manifest still opens: harvest the parity rows straight from it.
    man = parse_manifest(campaign["manifest_path"].read_bytes())
    healer = SegmentHealer(str(campaign["manifest_path"]),
                           man.get("parity") or [])
    try:
        step = campaign["extents"][shard0][0][0]
        with pytest.raises(IntegrityError):
            healer.heal(shard0, step)
    finally:
        healer.close()


# ---------------------------------------------------------------------------
# Hostile lengths in a parity index size no read.
# ---------------------------------------------------------------------------
_TRAILER = struct.Struct("<QQI8s")
FORGED = 1 << 40


def _forge_parity_index(path, mutate) -> None:
    """Rewrite an RPXP file's index through ``mutate(index)``, under a
    recomputed trailer crc — damage no checksum of the file catches."""
    raw = path.read_bytes()
    offset, length, _, magic = _TRAILER.unpack(raw[-_TRAILER.size :])
    index = json.loads(raw[offset : offset + length])
    mutate(index)
    body = json.dumps(index, separators=(",", ":")).encode()
    path.write_bytes(
        raw[:offset] + body
        + _TRAILER.pack(offset, len(body), zlib.crc32(body), magic)
    )


@pytest.mark.parametrize("where", ["local", "memory"])
@pytest.mark.parametrize("forged", ["stripe", "member"])
def test_forged_parity_lengths_size_no_read(campaign, forged, where):
    """A stripe length (or a member-row length) of 2**40 in a parity index
    whose crc was recomputed: repair, the healer, scrub and the stripe
    read answer with a typed error or a report row, and allocate nothing
    proportional to the forged value (a bare ``MemoryError`` before)."""
    root = campaign["root"]
    pname = campaign["parity"][0]

    def mutate(index):
        row = index["stripes"][0]
        if forged == "stripe":
            row[2] = FORGED
        else:
            row[4][0][3] = FORGED

    _forge_parity_index(root / pname, mutate)
    # Damage the first member of that stripe so the stripe is needed.
    shard = campaign["shards"][0]
    step, offset, length = campaign["extents"][shard][0]
    flip_byte(root / shard, offset + length // 3)
    campaign_bytes = sum(p.stat().st_size for p in root.iterdir())
    if where == "local":
        backend, prefix = LocalFileBackend(), f"{root}{os.sep}"
    else:
        backend, prefix = MemoryBackend(), ""
        for p in root.iterdir():
            with backend.open_write(p.name) as handle:
                handle.write(p.read_bytes())
    manifest = prefix + campaign["manifest"]
    rows = parse_manifest((root / campaign["manifest"]).read_bytes())["parity"]

    tracemalloc.start()
    try:
        if forged == "stripe":
            with pytest.raises(
                FormatError, match=rf"stripe 0: read \d+ of {FORGED} bytes"
            ):
                repair_sharded(manifest, backend=backend)
        else:
            report = repair_sharded(manifest, backend=backend)
            assert [(d.shard, d.step) for d in report.unrecoverable] == [(shard, step)]
            assert not report.reconstructed
        healer = SegmentHealer(manifest, rows, backend)
        try:
            with pytest.raises(ReproError):
                healer.heal(shard, step)
        finally:
            healer.close()
        kinds = {f.kind for f in scrub(manifest, backend).findings}
        assert ("parity-stripe" if forged == "stripe" else "parity-member") in kinds
        with ParityReader.open(prefix + pname, backend=backend) as reader:
            if forged == "stripe":
                with pytest.raises(FormatError, match="stripe 0"):
                    reader.parity_bytes(reader.stripes[0])
            else:
                assert reader.stripes[0].members[0].length == FORGED
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * campaign_bytes, (peak, campaign_bytes)
