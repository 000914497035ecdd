"""A series segment holds one shared-codebook group per run of patches;
a writer killed anywhere inside the last grouped segment — in its patch
streams, its group sections, its index or its footer — leaves a series
that recovers to the last sealed step, and the recovered steps decode to
what the whole series decoded to. A segment whose seal alone is torn is
whole, and recovers through its own footer."""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.amr.io import write_series
from repro.compression.container import FOOTER_SIZE, ContainerReader
from repro.insitu import SeriesReader, recover_series
from repro.insitu.series import SEAL_SIZE
from tests.strategies import many_patch_hierarchy

N_STEPS = 3


@pytest.fixture(scope="module")
def grouped_series(tmp_path_factory):
    """A 3-step grouped series, its bytes, its last segment's extent and
    reader, and its full decode."""
    path = tmp_path_factory.mktemp("grouped") / "s.rph2s"
    write_series(path, [many_patch_hierarchy(seed) for seed in range(N_STEPS)],
                 error_bound=1e-3, durability="none")
    raw = path.read_bytes()
    with SeriesReader.open(path) as reader:
        last = reader.step_entries[-1]
        truth = reader.select()
    segment = ContainerReader(raw[last.offset : last.offset + last.length])
    assert segment.group_entries, "sz-lr segments hold their runs as groups"
    return raw, last, segment, truth


def _cuts(last, segment) -> dict[str, int]:
    """Absolute file offsets inside each region of the last segment."""
    stream = segment.entries[len(segment.entries) // 2]
    first, final = segment.group_entries[0], segment.group_entries[-1]
    group = segment.group(first.gid)
    index_at = last.length - FOOTER_SIZE - 10
    return {
        "header": last.offset + 2,
        "stream": last.offset + stream.offset + stream.length // 2,
        "group-header": last.offset + first.offset + group.header_len // 2,
        "group-payload": last.offset + first.offset + group.header_len + group.payload_len // 2,
        "last-group": last.offset + final.offset + final.length - 1,
        "index": last.offset + index_at,
        "footer": last.offset + last.length - FOOTER_SIZE // 2,
        "seal": last.offset + last.length + SEAL_SIZE // 2,
    }


def _same(got: dict, want: dict) -> bool:
    return got.keys() == want.keys() and all(np.array_equal(got[k], want[k]) for k in want)


@pytest.mark.parametrize("region", ["header", "stream", "group-header", "group-payload",
                                    "last-group", "index", "footer", "seal"])
def test_torn_grouped_segment_recovers_to_the_last_sealed_step(grouped_series, tmp_path, region):
    raw, last, segment, truth = grouped_series
    cut = _cuts(last, segment)[region]
    assert last.offset < cut < last.offset + last.length + SEAL_SIZE
    path = tmp_path / "torn.rph2s"
    path.write_bytes(raw[:cut])
    kept = N_STEPS if region == "seal" else N_STEPS - 1
    report = recover_series(path)
    assert not report.intact
    assert [e.step for e in report.entries] == list(range(kept))
    sealed = {k: v for k, v in truth.items() if k[0] < kept}
    with repro.open(path, recover=True) as reader:
        assert _same(reader.select(), sealed)
    recover_series(path, commit=True)
    with repro.open(path) as reader:
        assert reader.steps == tuple(range(kept))
        assert _same(reader.select(), sealed)
