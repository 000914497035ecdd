"""Self-healing serving: a ``QueryService`` over a parity-carrying
campaign reconstructs damaged or missing shard segments from the
surviving shards instead of failing (or reporting them ``missing``),
with every reconstruction visible in the repair accounting."""

from __future__ import annotations

import os

import pytest

from repro.compression.amr_codec import decompress_selection
from repro.serve import InProcessClient
from repro.storage import LocalFileBackend, RangedBackend

from tests.integrity.conftest import flip_byte
from tests.serve.conftest import assert_byte_identical


@pytest.fixture(scope="session")
def truth(campaign_template):
    return decompress_selection(
        str(campaign_template["root"] / campaign_template["manifest"])
    )


def test_destroyed_shard_serves_complete_not_partial(campaign, truth):
    """The acceptance bar: one data shard destroyed outright, yet a plain
    (non-partial) query returns the complete, byte-exact selection, and
    the reconstructions are counted."""
    victim = campaign["shards"][1]
    os.remove(campaign["root"] / victim)
    with InProcessClient(str(campaign["manifest_path"])) as client:
        served, info = client.query_info()
        stats = client.stats()
    assert_byte_identical(served, truth)
    assert not info.partial and not info.missing
    expected = len(campaign["extents"][victim])
    assert info.repairs == expected
    assert stats["repairs"] == expected


def test_bit_rot_heals_mid_query(campaign, truth):
    """Damage discovered at execute time (catalog parses fine, payload
    crc fails) heals through the same path."""
    victim = campaign["shards"][0]
    step, offset, length = campaign["extents"][victim][0]
    flip_byte(campaign["root"] / victim, offset + length // 2)
    with InProcessClient(str(campaign["manifest_path"])) as client:
        served, info = client.query_info()
    assert_byte_identical(served, truth)
    assert info.repairs >= 1 and not info.missing


def test_healed_patches_are_cached(campaign, truth):
    victim = campaign["shards"][1]
    os.remove(campaign["root"] / victim)
    backend = RangedBackend(LocalFileBackend(), readahead=1)
    with InProcessClient(str(campaign["manifest_path"]), backend=backend) as client:
        client.query()
        first = client.stats()["repairs"]
        fetched = dict(backend.stats)
        # Re-query only the dead shard's steps: patches and the healed
        # catalogs are cached, so nothing is reconstructed or read again.
        steps = [s for s, _, _ in campaign["extents"][victim]]
        served2, info2 = client.query_info(steps=steps)
    assert first == len(steps)
    assert info2.repairs == 0
    assert backend.stats == fetched
    assert_byte_identical(
        served2, {k: v for k, v in truth.items() if k[0] in steps}
    )


def test_heal_false_preserves_degraded_behavior(campaign, truth):
    victim = campaign["shards"][0]
    step, offset, length = campaign["extents"][victim][0]
    flip_byte(campaign["root"] / victim, offset + length // 2)
    with InProcessClient(str(campaign["manifest_path"]), heal=False) as client:
        served, info = client.query_info(partial=True)
    assert info.repairs == 0
    assert {m["step"] for m in info.missing} == {step}
    assert_byte_identical(
        served, {k: v for k, v in truth.items() if k[0] != step}
    )


def test_heal_write_back_restores_the_shard_file(campaign, truth):
    victim = campaign["shards"][0]
    step, offset, length = campaign["extents"][victim][0]
    flip_byte(campaign["root"] / victim, offset + 7)
    with InProcessClient(
        str(campaign["manifest_path"]), heal_write_back=True
    ) as client:
        served, info = client.query_info()
    assert_byte_identical(served, truth)
    assert info.repairs >= 1
    assert (campaign["root"] / victim).read_bytes() == \
        campaign["pristine"][victim]
    # A fresh service over the written-back campaign needs zero repairs.
    with InProcessClient(str(campaign["manifest_path"])) as client:
        served2, info2 = client.query_info()
    assert_byte_identical(served2, truth)
    assert info2.repairs == 0


def test_multi_loss_still_fails_typed(campaign):
    from repro.errors import ReproError

    for victim in campaign["shards"][:2]:
        os.remove(campaign["root"] / victim)
    with InProcessClient(str(campaign["manifest_path"])) as client:
        with pytest.raises(ReproError):
            client.query()
