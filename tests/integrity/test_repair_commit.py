"""``repair_sharded(commit=True)`` patches in place, through any backend,
and can always be finished by running it again.

The damage matrix pins what a commit leaves for eleven damage classes
(counts, the kinds scrub still reports, whether every file is byte for
byte the pristine one). Ten of them are what the rewrite-and-rename commit
this replaced left as well; ``index`` — a shard whose segments all verify
but whose index is gone — used to be left with its finding and is now
re-indexed to pristine.
"""

from __future__ import annotations

import os

import pytest

from repro.errors import StorageError
from repro.insitu import SeriesReader
from repro.insitu.sharded import recover_sharded
from repro.integrity import repair_sharded, scrub
from repro.storage import LocalFileBackend, MemoryBackend, StorageBackend

from tests.integrity.conftest import N_STEPS, flip_byte


def _flip_segment(c, shard: int, nth: int, at: float = 1 / 3) -> int:
    """Rot one byte inside the ``nth`` segment of a shard; returns its step."""
    name = c["shards"][shard]
    step, offset, length = c["extents"][name][nth]
    flip_byte(c["root"] / name, offset + int(length * at))
    return step


def _flip_index(c, shard: int) -> None:
    name = c["shards"][shard]
    _, offset, length = c["extents"][name][-1]
    flip_byte(c["root"] / name, offset + length + 10)  # the index follows the last seal


def _flip_seal(c, shard: int) -> None:
    name = c["shards"][shard]
    _, offset, length = c["extents"][name][0]
    flip_byte(c["root"] / name, offset + length - 5)


def _tear(c, shard: int, keep: float) -> None:
    path = c["root"] / c["shards"][shard]
    blob = path.read_bytes()
    path.write_bytes(blob[: int(len(blob) * keep)])


def _delete(c, *shards: int) -> None:
    for shard in shards:
        os.remove(c["root"] / c["shards"][shard])


#: case -> (damage, reconstructed, unrecoverable, scrub kinds left, pristine)
MATRIX = {
    "segment": (lambda c: _flip_segment(c, 0, 0), 1, 0, [], True),
    "index": (lambda c: _flip_index(c, 0), 0, 0, [], True),
    "both": (lambda c: (_flip_segment(c, 0, 0), _flip_index(c, 0)), 1, 0, [], True),
    "seal": (lambda c: _flip_seal(c, 0), 1, 0, [], True),
    "parity": (lambda c: flip_byte(c["root"] / c["parity"][0], 40), 0, 0, [], True),
    "torn70": (lambda c: _tear(c, 1, 0.7), 1, 0, [], True),
    "torn20": (lambda c: _tear(c, 1, 0.2), 2, 0, [], True),
    "deleted": (lambda c: _delete(c, 1), 2, 0, [], True),
    "deleted2": (lambda c: _delete(c, 0, 1), 0, 4, ["missing"], False),
    "deleted+rot": (
        lambda c: (_delete(c, 1), _flip_segment(c, 2, 1)),
        1, 2, ["parity-member", "segment", "stream"], False,
    ),
    "manifest": (lambda c: os.remove(c["manifest_path"]), 0, 0, ["missing"], False),
}


def _files(root) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in root.iterdir()}


@pytest.mark.parametrize("case", MATRIX)
def test_damage_matrix(campaign, campaign_template, case):
    damage, reconstructed, unrecoverable, kinds, pristine = MATRIX[case]
    damage(campaign)
    report = repair_sharded(campaign["manifest_path"], commit=True)
    assert len(report.reconstructed) == reconstructed
    assert len(report.unrecoverable) == unrecoverable
    left = scrub(campaign["manifest_path"])
    assert sorted({f.kind for f in left.findings}) == kinds
    assert (_files(campaign["root"]) == _files(campaign_template["root"])) is pristine
    assert not list(campaign["root"].glob("*.repair"))


def test_dry_run_names_the_shard_it_would_reindex(campaign):
    _flip_index(campaign, 0)
    before = _files(campaign["root"])
    dry = repair_sharded(campaign["manifest_path"])
    assert dry.reindexed == [campaign["shards"][0]] and not dry.clean
    assert "needs re-index" in dry.describe()
    assert _files(campaign["root"]) == before
    done = repair_sharded(campaign["manifest_path"], commit=True)
    assert done.committed and "re-indexed" in done.describe()
    assert repair_sharded(campaign["manifest_path"]).clean


def test_two_deleted_shards_stay_named_and_flagged(campaign):
    """Nothing to rebuild them from: nothing is written, the manifest keeps
    naming both, scrub keeps flagging both."""
    _delete(campaign, 0, 1)
    before = _files(campaign["root"])
    report = repair_sharded(campaign["manifest_path"], commit=True)
    assert not report.committed and not report.reindexed
    assert _files(campaign["root"]) == before
    missing = {os.path.basename(f.file) for f in scrub(campaign["manifest_path"]).findings}
    assert missing == set(campaign["shards"][:2])


def test_unreconstructible_segment_stays_listed_and_flagged(campaign):
    """One shard holds a reconstructible *and* an unreconstructible damaged
    segment: the commit heals the first and leaves the second where it is
    — in the shard's index, in the manifest, and in scrub's findings —
    exactly as if the shard had had nothing else to fix."""
    healed = _flip_segment(campaign, 0, 0)
    lost = {_flip_segment(campaign, 0, 1), _flip_segment(campaign, 1, 1)}
    report = repair_sharded(campaign["manifest_path"], commit=True)
    assert [d.step for d in report.reconstructed] == [healed]
    assert {d.step for d in report.unrecoverable} == lost
    with SeriesReader.open(campaign["manifest_path"]) as reader:
        assert reader.steps == tuple(range(N_STEPS))
        reader.verify_step(healed)
    flagged = {f.step for f in scrub(campaign["manifest_path"]).findings
               if f.kind == "segment"}
    assert flagged == lost


# ---------------------------------------------------------------------------
# Through the backend it was given.
# ---------------------------------------------------------------------------
def _into_memory(root) -> MemoryBackend:
    backend = MemoryBackend()
    for name, blob in _files(root).items():
        with backend.open_write(name) as handle:
            handle.write(blob)
    return backend


def test_rooted_local_backend_from_another_directory(campaign, tmp_path, monkeypatch):
    """The commit used to rename ``<shard>.repair`` with the raw name: a
    bare ``FileNotFoundError``, an orphan, and the shard still damaged."""
    _flip_segment(campaign, 0, 0)
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    monkeypatch.chdir(elsewhere)
    backend = LocalFileBackend(root=campaign["root"])
    dry = repair_sharded("camp.rphm", backend=backend)
    assert len(dry.reconstructed) == 1
    report = repair_sharded("camp.rphm", commit=True, backend=backend)
    assert report.committed
    assert scrub("camp.rphm", backend=backend).clean
    assert not list(elsewhere.iterdir())
    assert not list(campaign["root"].glob("*.repair"))
    assert _files(campaign["root"])[campaign["shards"][0]] == \
        campaign["pristine"][campaign["shards"][0]]


@pytest.mark.parametrize("case", ["segment", "index", "torn20", "deleted", "parity"])
def test_memory_backend_commits(campaign, campaign_template, case):
    MATRIX[case][0](campaign)
    backend = _into_memory(campaign["root"])
    report = repair_sharded("camp.rphm", commit=True, backend=backend)
    assert report.committed and not report.unrecoverable
    assert scrub("camp.rphm", backend=backend).clean
    assert backend._objects == _files(campaign_template["root"])


def test_recover_sharded_commits_through_memory_backend(campaign):
    _tear(campaign, 1, 0.7)
    backend = _into_memory(campaign["root"])
    report = recover_sharded("camp.rphm", commit=True, backend=backend)
    assert not report.intact
    with SeriesReader.open("camp.rphm", backend=backend) as reader:
        assert reader.steps == report.steps


# ---------------------------------------------------------------------------
# Once written, always finishable.
# ---------------------------------------------------------------------------
class _TearingBackend(StorageBackend):
    """Kills one write: the ``nth`` handle ``method`` opens on ``victim``
    writes half of its first large ``write`` and raises."""

    def __init__(self, inner: StorageBackend, victim: str, method: str, nth: int):
        self._inner, self._victim = inner, victim
        self._method, self._countdown = method, nth
        self.fired = False
        for attr in ("open_read", "exists", "size", "delete", "list"):
            setattr(self, attr, getattr(inner, attr))

    def _open(self, method: str, name: str):
        handle = getattr(self._inner, method)(name)
        if self.fired or method != self._method or os.path.basename(name) != self._victim:
            return handle
        self._countdown -= 1
        if self._countdown >= 0:
            return handle
        real_write = handle.write

        def write(blob):
            if self.fired or len(blob) < 64:
                return real_write(blob)
            self.fired = True
            real_write(blob[: len(blob) // 2])
            handle.flush()
            raise StorageError(f"injected: write to {name} killed half-way")

        return _Handle(handle, write)

    def open_write(self, name):
        return self._open("open_write", name)

    def open_append(self, name):
        return self._open("open_append", name)


class _Handle:
    def __init__(self, inner, write):
        self.write = write
        for attr in ("seek", "truncate", "flush", "close", "fileno"):
            setattr(self, attr, getattr(inner, attr))


@pytest.mark.parametrize("damage,method,nth", [
    # rot in the half of the segment the killed write does not reach
    (lambda c: _flip_segment(c, 1, 0, at=0.9), "open_append", 0),
    (lambda c: _delete(c, 1), "open_write", 0),
    # a torn shard is patched (first append) and then re-indexed (second)
    (lambda c: _tear(c, 1, 0.2), "open_append", 1),
], ids=["patch", "creation", "re-index"])
def test_killed_commit_is_finished_by_a_second_run(
    campaign, campaign_template, damage, method, nth
):
    damage(campaign)
    backend = _TearingBackend(
        LocalFileBackend(), campaign["shards"][1], method, nth
    )
    with pytest.raises(StorageError, match="killed half-way"):
        repair_sharded(campaign["manifest_path"], commit=True, backend=backend)
    assert backend.fired
    assert not scrub(campaign["manifest_path"]).clean
    again = repair_sharded(campaign["manifest_path"], commit=True, backend=backend)
    assert again.committed and not again.unrecoverable
    assert scrub(campaign["manifest_path"]).clean
    assert _files(campaign["root"]) == _files(campaign_template["root"])
