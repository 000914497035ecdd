#!/usr/bin/env python
"""Deterministic fault simulator: killed writers, broken I/O, damaged bytes.

The product's contract — every decoded value is the value that was
written, within its error bound, or a typed error says why not — is only
real if something keeps breaking the system on purpose. This tool holds
it against one seeded scenario table over one small corpus (a 4-step
series, a 3-shard campaign, and the same campaign with ``parity=1``):

==================== ======= =================================================
scenario             group   what it breaks
==================== ======= =================================================
series-kill          crash   the series, at every offset class below
campaign-kill        crash   one writer of the campaign mid-step, per shard
                             and payload fraction, plus a torn manifest
chaos-clean          chaos   nothing (the serve oracle's control arm)
flake                chaos   every GET's first attempt (retries must hide it)
outage-window        chaos   the first k GETs fail hard, then the backend
                             recovers
probability          chaos   each GET fails with seeded probability p
shard-outage         chaos   one shard's GETs all fail; non-partial queries
                             must fail typed, ``partial=True`` must serve
                             around it
deadline             chaos   injected GET latency against a short
                             ``timeout=``
decode-crash         chaos   a decode task dies with a raw ``RuntimeError``
                             (must surface as ``ServeError``, then recover)
overload             chaos   6 concurrent queries against a 1-slot
                             admission gate
breaker              chaos   a dead shard trips its circuit breaker
                             (fast-fails typed; cooldown readmits probes)
scrub-clean          scrub   nothing (zero findings, series + campaign)
bit-rot              scrub   one flipped byte inside a sealed shard segment
torn-segment         scrub   a shard truncated mid-segment (index + footer
                             lost)
deleted-shard        scrub   one data shard file removed entirely
damaged-parity       scrub   one flipped byte inside a parity shard's XOR
                             blocks
multi-loss           scrub   two shards of one parity group lost (> p): must
                             be flagged unrecoverable, never fabricated
serve-heal           scrub   a destroyed shard under a live ``QueryService``
==================== ======= =================================================

Each group holds its own oracle:

* **crash** — a killed writer loses at most the step in flight. Every
  :class:`InjectionPoint` / :class:`ShardedCrashPoint` carries the exact
  step set recovery must salvage; each salvaged step is bit-exact. The
  offset classes :func:`injection_points` derives from a series' real
  layout (``tests/insitu/test_crash_recovery.py`` asserts the same
  matrix; ``tests/insitu/test_sharded.py`` the sharded one):

  ===================== ======================================================
  offset class          what it simulates
  ===================== ======================================================
  mid-payload           killed while streaming a segment's patch bytes
  mid-segment-footer    killed while writing a segment's own RPH2 footer
  mid-seal              killed while writing the 64-byte step seal record
  step-boundary         killed exactly on a sealed step boundary (clean crash)
  append-resume         killed right after ``append_to``'s eager truncation
                        of the old index/footer (all seals intact, no index);
                        the committed recovery must then take one more step
                        through ``append_to`` and scrub clean
  mid-index             killed while writing the series timestep index
  mid-footer            killed while writing the 28-byte series footer
  post-footer-garbage   a partial rewrite appended bytes after a valid footer
  index-bitflip         bit rot inside the timestep index (crc must catch it)
  footer-bitflip        bit rot inside the series footer magic
  payload-bitflip       bit rot inside one segment (that step must be dropped,
                        every other step must survive)
  seal-bitflip          bit rot inside one seal record (the step must still be
                        recovered through its segment's own footer)
  adjacent-seal-bitflip bit rot destroying two consecutive seal records (both
                        segments must still be recovered via their own footers
                        — the resync path must not skip the one in the gap)
  ===================== ======================================================

  A sharded kill truncates every shard to its crash shape (footerless,
  all steps sealed), additionally cuts the victim inside its in-flight
  step, and reverts the manifest to its non-final form (or tears it).
  The oracle is the union of the per-shard survivor sets.
* **chaos** — every query under a seeded :class:`~repro.faults.FaultPlan`
  either returns bytes identical to a direct ``decompress_selection``,
  raises a typed ``ReproError``, or (``partial=True``) returns a
  well-formed partial: every served patch bit-exact, every absent patch
  accounted for in ``missing``. Nothing may hang or leak a raw
  exception, and once the schedule clears the next query must be exact.
* **scrub** — ``scrub()`` reports zero findings on clean files and flags
  every seeded corruption. Damage of at most ``p`` members per parity
  stripe is repaired bit-exactly, after which scrub is clean and every
  read matches the pristine copy; damage beyond parity is reported
  ``unrecoverable``. ``repro.serve`` over a campaign with a destroyed
  shard answers complete, byte-exact, non-partial queries by
  reconstructing on the fly.

Every offset, victim and fault is seeded; without ``--seed`` each group
keeps its own seed (:data:`GROUP_SEEDS`). Exit status is 1 on any oracle
violation, 2 on a selection that names nothing.

Usage::

    PYTHONPATH=src python tools/faultsim.py all              # every scenario
    PYTHONPATH=src python tools/faultsim.py chaos --quick    # CI subset
    PYTHONPATH=src python tools/faultsim.py bit-rot --seed 7 -v
"""

from __future__ import annotations

import argparse
import asyncio
import inspect
import io
import os
import random
import shutil
import sys
import tempfile
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path

# Allow running straight from a checkout without PYTHONPATH.
_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.amr.io import (  # noqa: E402
    append_step,
    write_series,
    write_sharded_series,
)
from repro.compression.amr_codec import decompress_selection  # noqa: E402
from repro.compression.base import Compressor  # noqa: E402
from repro.compression.container import FOOTER_SIZE  # noqa: E402
from repro.errors import (  # noqa: E402
    DeadlineExceeded,
    FormatError,
    Overloaded,
    ReproError,
    ServeError,
    StorageError,
)
from repro.faults import FaultPlan, FaultyPool  # noqa: E402
from repro.insitu import recover_series, recover_sharded, scan_segments  # noqa: E402
from repro.insitu.series import SEAL_SIZE, SeriesReader  # noqa: E402
from repro.insitu.sharded import (  # noqa: E402
    _SERIES_META_KEYS,
    ShardedSeriesReader,
    pack_manifest,
    parse_manifest,
)
from repro.integrity import repair_sharded, scrub  # noqa: E402
from repro.metrics.error import verify_error_bound  # noqa: E402
from repro.parallel.pool import WorkerPool  # noqa: E402
from repro.serve import InProcessClient, QueryService  # noqa: E402
from repro.sims import NyxConfig, nyx_step_stream  # noqa: E402
from repro.storage import LocalFileBackend, RangedBackend  # noqa: E402

#: Seed for the (deterministic) choice of bitflip offsets within a region.
DEFAULT_SEED = 20260729
#: Each group's seed when ``--seed`` is not given.
GROUP_SEEDS = {"crash": DEFAULT_SEED, "chaos": 20260808, "scrub": 20260808}
#: Truncation fractions inside a segment payload.
DEFAULT_FRACS = (0.15, 0.5, 0.85)
#: Appended after a valid footer by the post-footer-garbage class.
GARBAGE = b"\x89CRASHSIM-GARBAGE\x00" * 7

#: The simulation every corpus file is written from.
CORPUS_SIM = NyxConfig(coarse_n=8)
SERIES_STEPS = 4
SHARD_STEPS = 6
N_SHARDS = 3

#: Per-query watchdog: a scenario that takes this long has hung, which
#: is itself an oracle violation (typed errors must be prompt).
WATCHDOG_S = 60.0

#: Errors the chaos oracle accepts in place of bytes. Everything else —
#: including a raw RuntimeError escaping the stack — is a violation.
TYPED = (DeadlineExceeded, Overloaded, StorageError, ServeError, FormatError)


class Violation(AssertionError):
    """One broken oracle clause; carries the scenario context."""


# ---------------------------------------------------------------------------
# Crash injectors: deterministic damage derived from a file's real layout.
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class InjectionPoint:
    """One deterministic crash/corruption to inject.

    ``action`` is ``"truncate"`` (cut the file at ``offset``),
    ``"corrupt"`` (xor the byte at ``offset`` — and every byte in
    ``extra_offsets`` — with 0xFF), or ``"append"`` (add :data:`GARBAGE`
    after the intact file; ``offset`` is EOF). ``expect_steps`` is the
    oracle: the exact step numbers a recovery scan must salvage,
    bit-exactly, from the damaged variant (steps recovered through the
    footer fallback appear with their synthesized, monotone numbers).
    """

    klass: str
    action: str
    offset: int
    expect_steps: tuple[int, ...]
    label: str
    extra_offsets: tuple[int, ...] = ()


def apply(raw: bytes, point: InjectionPoint) -> bytes:
    """Produce the damaged variant of ``raw`` for one injection point."""
    if point.action == "truncate":
        return raw[: point.offset]
    if point.action == "corrupt":
        out = bytearray(raw)
        for at in (point.offset, *point.extra_offsets):
            out[at] ^= 0xFF
        return bytes(out)
    if point.action == "append":
        return raw + GARBAGE
    raise ValueError(f"unknown action {point.action!r}")


def injection_points(
    raw: bytes,
    payload_fracs: tuple[float, ...] = DEFAULT_FRACS,
    seed: int = DEFAULT_SEED,
) -> list[InjectionPoint]:
    """Enumerate every structurally interesting injection for ``raw``.

    The offsets are derived from the file's real layout (timestep index
    rows + footer), so the matrix adapts to any series; ``seed`` fixes the
    bitflip positions inside each region.
    """
    rng = random.Random(seed)
    with SeriesReader(io.BytesIO(raw)) as reader:
        entries = list(reader.step_entries)
        index_offset = reader._index_offset
    total = len(raw)
    index_length = total - FOOTER_SIZE - index_offset

    def expected(cut=None, broken_seals=(), dropped=()) -> tuple[int, ...]:
        """Model the scanner: a step whose segment survives is recovered;
        with its original number when its seal also survives, else with a
        synthesized monotone number (footer fallback)."""
        out: list[int] = []
        for e in entries:
            if e.step in dropped:
                continue
            if cut is not None and e.offset + e.length > cut:
                continue  # segment itself incomplete: unrecoverable
            sealed = e.step not in broken_seals and (
                cut is None or e.offset + e.length + SEAL_SIZE <= cut
            )
            out.append(e.step if sealed else (out[-1] + 1 if out else 0))
        return tuple(out)

    all_steps = expected()

    def seal_flip(e) -> int:
        return e.offset + e.length + rng.randrange(0, SEAL_SIZE)

    points: list[InjectionPoint] = []
    for i, e in enumerate(entries):
        seal_end = e.offset + e.length + SEAL_SIZE
        for frac in payload_fracs:
            cut = e.offset + max(1, int(e.length * frac))
            points.append(InjectionPoint(
                "mid-payload", "truncate", cut, expected(cut=cut),
                f"step {e.step} payload truncated at {frac:.0%}",
            ))
        cut = e.offset + e.length - 10
        points.append(InjectionPoint(
            "mid-segment-footer", "truncate", cut, expected(cut=cut),
            f"step {e.step} cut inside its segment footer",
        ))
        cut = seal_end - 20
        points.append(InjectionPoint(
            "mid-seal", "truncate", cut, expected(cut=cut),
            f"step {e.step} cut inside its seal record",
        ))
        points.append(InjectionPoint(
            "step-boundary", "truncate", seal_end, expected(cut=seal_end),
            f"clean crash right after step {e.step} sealed",
        ))
        flip = e.offset + rng.randrange(5, e.length - 1)
        points.append(InjectionPoint(
            "payload-bitflip", "corrupt", flip,
            expected(dropped={e.step}),
            f"bit rot inside step {e.step}'s segment",
        ))
        points.append(InjectionPoint(
            "seal-bitflip", "corrupt", seal_flip(e),
            expected(broken_seals={e.step}),
            f"bit rot inside step {e.step}'s seal record",
        ))
        if i + 1 < len(entries):
            nxt = entries[i + 1]
            points.append(InjectionPoint(
                "adjacent-seal-bitflip", "corrupt", seal_flip(e),
                expected(broken_seals={e.step, nxt.step}),
                f"bit rot destroying the seals of steps {e.step} and {nxt.step}",
                extra_offsets=(seal_flip(nxt),),
            ))
    points.append(InjectionPoint(
        "append-resume", "truncate", index_offset, all_steps,
        "killed right after append_to's eager truncation "
        "(index/footer gone, every seal intact)",
    ))
    points.append(InjectionPoint(
        "mid-index", "truncate", index_offset + max(1, index_length // 2),
        all_steps, "cut inside the series timestep index",
    ))
    points.append(InjectionPoint(
        "mid-footer", "truncate", total - 10, all_steps,
        "cut inside the 28-byte series footer",
    ))
    points.append(InjectionPoint(
        "post-footer-garbage", "append", total, all_steps,
        "garbage appended after a valid footer",
    ))
    points.append(InjectionPoint(
        "index-bitflip", "corrupt",
        index_offset + rng.randrange(0, max(1, index_length)), all_steps,
        "bit rot inside the series timestep index",
    ))
    points.append(InjectionPoint(
        "footer-bitflip", "corrupt", total - 5, all_steps,
        "bit rot inside the series footer magic",
    ))
    return points


@dataclass(frozen=True)
class ShardedCrashPoint:
    """One deterministic kill of a sharded campaign.

    ``cuts`` maps each shard basename to the offset its file is truncated
    at (a campaign killed before close wrote no shard's index/footer, so
    every shard is cut; one killed in close's manifest rewrite keeps them
    whole); the ``victim``'s cut lands inside its in-flight step.
    ``manifest`` names the manifest the kill leaves, one of
    :data:`MANIFEST_STATES`: the initial non-final one a real kill leaves
    behind, or one torn by a kill inside a write or an in-place rewrite,
    so recovery must rediscover the shards by name. ``expect_steps`` is
    the union survivor oracle across shards.
    """

    victim: str
    cuts: dict[str, int]
    expect_steps: tuple[int, ...]
    label: str
    manifest: str = "nonfinal"


#: How each :class:`ShardedCrashPoint` ``manifest`` kind is shaped from
#: the campaign's non-final and final manifest bytes. A manifest is
#: rewritten in place, so a kill inside a rewrite leaves the new prefix
#: over the old bytes, or the whole new manifest before a stale tail.
MANIFEST_STATES = {
    "nonfinal": lambda nonfinal, final: nonfinal,
    "torn": lambda nonfinal, final: nonfinal[: max(5, len(nonfinal) // 2)],
    "torn-0": lambda nonfinal, final: nonfinal[:0],
    "torn-2": lambda nonfinal, final: nonfinal[:2],
    "half-final": lambda nonfinal, final: (
        final[: len(final) // 2] + nonfinal[len(final) // 2 :]
    ),
    "stale-tail": lambda nonfinal, final: nonfinal + final[len(nonfinal) :],
}


def sharded_injection_points(
    manifest_path: Path,
    payload_fracs: tuple[float, ...] = DEFAULT_FRACS,
) -> list[ShardedCrashPoint]:
    """Enumerate kill scenarios for a *finished* sharded campaign.

    Derived from each shard's real layout: the clean-boundary kill (all
    shards sealed), one mid-payload kill per shard per fraction (that
    shard loses exactly its last step; all other shards keep everything),
    and one kill per torn manifest state of :data:`MANIFEST_STATES`
    exercising shard rediscovery.
    """
    man = parse_manifest(Path(manifest_path).read_bytes())
    base = Path(manifest_path).parent
    layout: dict[str, tuple[list, int]] = {}
    for row in man["shards"]:
        with SeriesReader.open(base / row["name"]) as reader:
            layout[row["name"]] = (list(reader.step_entries), reader._index_offset)
    all_steps = tuple(sorted(
        e.step for entries, _ in layout.values() for e in entries
    ))
    sealed_cuts = {name: idx for name, (_, idx) in layout.items()}
    whole_cuts = {name: (base / name).stat().st_size for name in layout}

    points = [ShardedCrashPoint(
        victim="", cuts=dict(sealed_cuts), expect_steps=all_steps,
        label="campaign killed between steps (every shard sealed)",
    )]
    for name, (entries, _) in layout.items():
        if not entries:
            continue
        last = entries[-1]
        survivors = tuple(s for s in all_steps if s != last.step)
        for frac in payload_fracs:
            cuts = dict(sealed_cuts)
            cuts[name] = last.offset + max(1, int(last.length * frac))
            points.append(ShardedCrashPoint(
                victim=name, cuts=cuts, expect_steps=survivors,
                label=f"{name} killed at {frac:.0%} of step {last.step}'s payload",
            ))
    points.append(ShardedCrashPoint(
        victim="", cuts=dict(sealed_cuts), expect_steps=all_steps,
        label="manifest torn mid-body (shards rediscovered by name)",
        manifest="torn",
    ))
    for n in (0, 2):
        points.append(ShardedCrashPoint(
            victim="", cuts=dict(sealed_cuts), expect_steps=all_steps,
            label=f"manifest torn to {n} bytes (shards rediscovered by name)",
            manifest=f"torn-{n}",
        ))
    points.append(ShardedCrashPoint(
        victim="", cuts=whole_cuts, expect_steps=all_steps,
        label="close killed half-way through rewriting the final manifest "
              "over the non-final one (shards rediscovered by name)",
        manifest="half-final",
    ))
    points.append(ShardedCrashPoint(
        victim="", cuts=dict(sealed_cuts), expect_steps=all_steps,
        label="non-final manifest rewritten over a longer one, killed "
              "before the stale tail was cut",
        manifest="stale-tail",
    ))
    return points


def apply_sharded(
    manifest_path: Path, point: ShardedCrashPoint, output_dir: Path
) -> Path:
    """Materialize one damaged campaign variant; returns its manifest path."""
    manifest_path = Path(manifest_path)
    man = parse_manifest(manifest_path.read_bytes())
    output_dir.mkdir(parents=True, exist_ok=True)
    meta = {k: man[k] for k in _SERIES_META_KEYS}
    rows = [
        {"name": r["name"], "durability": r["durability"], "steps": []}
        for r in man["shards"]
    ]
    blob = MANIFEST_STATES[point.manifest](
        pack_manifest(meta, rows, final=False), manifest_path.read_bytes()
    )
    out_manifest = output_dir / manifest_path.name
    out_manifest.write_bytes(blob)
    for row in man["shards"]:
        raw = (manifest_path.parent / row["name"]).read_bytes()
        (output_dir / row["name"]).write_bytes(raw[: point.cuts[row["name"]]])
    return out_manifest


# ---------------------------------------------------------------------------
# Corpus and the shared oracle: one cached truth, one exact-bytes check.
# ---------------------------------------------------------------------------
@dataclass
class Corpus:
    """The files every scenario damages or serves, written once.

    ``series`` is a 4-step series; ``campaign`` a 3-shard campaign
    without parity (a parity campaign would heal ``shard-outage``);
    ``parity`` the same campaign with ``parity=1``, which scrub scenarios
    copy before damaging. ``extents`` and ``pristine`` capture, per
    parity-campaign data shard, the sealed byte ranges parity proves and
    the bytes they must hold after repair.
    """

    root: Path
    series: Path
    campaign: Path
    parity: Path
    shards: list[str]
    parity_files: list[str]
    extents: dict[str, list[tuple[int, int, int]]]
    pristine: dict[str, bytes]
    _truth: dict = field(default_factory=dict, repr=False)

    def truth(self, path: Path, sel: dict) -> dict:
        """Direct ``decompress_selection`` of ``sel`` from ``path``, cached."""
        key = (str(path), tuple(sorted(
            (k, tuple(v) if isinstance(v, list) else v) for k, v in sel.items()
        )))
        if key not in self._truth:
            self._truth[key] = decompress_selection(str(path), **sel)
        return self._truth[key]

    def stage(self, name: str, seed: int) -> tuple[Path, random.Random]:
        """A fresh copy of the parity campaign for scenario ``name``, and
        that scenario's rng (``seed ^ crc32(name)``)."""
        work = self.root / name
        shutil.rmtree(work, ignore_errors=True)
        shutil.copytree(self.parity.parent, work)
        return work, random.Random(seed ^ zlib.crc32(name.encode()))


def build_corpus(root: Path) -> Corpus:
    """Write the series and both campaigns under ``root``."""
    root.mkdir(parents=True, exist_ok=True)
    series = root / "run.rph2s"
    write_series(series, nyx_step_stream(SERIES_STEPS, CORPUS_SIM),
                 codec="sz-lr", error_bound=1e-3, durability="step")
    manifests = {}
    for parity in (0, 1):
        directory = root / f"parity{parity}"
        directory.mkdir(exist_ok=True)
        manifests[parity] = directory / "camp.rphm"
        write_sharded_series(manifests[parity], nyx_step_stream(SHARD_STEPS, CORPUS_SIM),
                             codec="sz-lr", error_bound=1e-3, n_shards=N_SHARDS,
                             parallel="serial", durability="step", parity=parity)
    directory = manifests[1].parent
    with ShardedSeriesReader.open(manifests[1]) as reader:
        shards = [os.path.basename(s) for s in reader.shards]
        parity_files = [row["name"] for row in reader.parity]
    extents = {}
    for shard in shards:
        with SeriesReader.open(directory / shard) as sub:
            extents[shard] = [
                (e.step, e.offset, e.length + SEAL_SIZE) for e in sub.step_entries
            ]
    return Corpus(
        root=root, series=series, campaign=manifests[0], parity=manifests[1],
        shards=shards, parity_files=parity_files, extents=extents,
        pristine={n: (directory / n).read_bytes() for n in shards},
    )


def check_exact(ctx: str, served: dict, truth: dict) -> None:
    """``served`` holds exactly ``truth``'s patches, byte for byte."""
    if set(served) != set(truth):
        raise Violation(
            f"{ctx}: served keys != truth keys "
            f"(missing {sorted(set(truth) - set(served))[:4]}, "
            f"extra {sorted(set(served) - set(truth))[:4]})"
        )
    for key, arr in served.items():
        if arr.tobytes() != truth[key].tobytes():
            raise Violation(f"{ctx}: wrong bytes for patch {key}")


# ---------------------------------------------------------------------------
# crash: killed writers recover exactly their sealed steps.
# ---------------------------------------------------------------------------
def scenario_series_kill(corpus: Corpus, seed: int) -> str:
    raw = corpus.series.read_bytes()
    with SeriesReader(io.BytesIO(raw)) as reader:
        original = {e.step: e for e in reader.step_entries}
    points = injection_points(raw, seed=seed)
    for i, pt in enumerate(points):
        ctx = f"series-kill/{i} ({pt.klass}: {pt.label})"
        variant = apply(raw, pt)
        entries = scan_segments(io.BytesIO(variant)).entries
        if tuple(e.step for e in entries) != pt.expect_steps:
            raise Violation(
                f"{ctx}: scan salvaged {[e.step for e in entries]}, "
                f"oracle {list(pt.expect_steps)}"
            )
        for e in entries:
            want = original[e.step]
            if (variant[e.offset:e.offset + e.length]
                    != raw[want.offset:want.offset + want.length]):
                raise Violation(f"{ctx}: step {e.step} segment bytes differ")
        if pt.klass == "append-resume":
            _resume_series(ctx, corpus.root / "series-kill" / "resumed.rph2s",
                           variant, raw, original)
    classes = len({pt.klass for pt in points})
    return (f"{len(points)} points in {classes} offset classes salvaged exactly their "
            "sealed steps; the append-resume series took one more step")


def _resume_series(ctx: str, path: Path, variant: bytes, raw: bytes,
                   original: dict) -> None:
    """Commit the recovery of an append killed after its truncation, then
    append one more corpus step through ``append_to``: the old segments
    keep their bytes, the new step decodes within its bound and the file
    scrubs clean."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(variant)
    recover_series(path, commit=True)
    hierarchy = next(nyx_step_stream(1, CORPUS_SIM)).hierarchy
    entry = append_step(path, hierarchy)
    resumed = path.read_bytes()
    with SeriesReader(io.BytesIO(resumed)) as reader:
        entries = {e.step: e for e in reader.step_entries}
        meta = reader.meta()
    if sorted(entries) != sorted(original) + [entry.step]:
        raise Violation(f"{ctx}: resumed series holds steps {sorted(entries)}")
    for step, want in original.items():
        e = entries[step]
        if (resumed[e.offset:e.offset + e.length]
                != raw[want.offset:want.offset + want.length]):
            raise Violation(f"{ctx}: step {step} segment bytes moved on resume")
    decoded = decompress_selection(str(path), steps=entry.step)
    written = {(entry.step, lev_idx, name, p) for lev_idx, lev in enumerate(hierarchy)
               for name in hierarchy.field_names for p in range(len(lev.patches(name)))}
    if set(decoded) != written:
        raise Violation(f"{ctx}: appended step decodes {len(decoded)} of "
                        f"{len(written)} patches")
    for (_, level, name, patch), arr in decoded.items():
        data = hierarchy[level].patches(name)[patch].data
        bound = Compressor.resolve_error_bound(data, float(meta["error_bound"]),
                                               str(meta["mode"]))
        if not verify_error_bound(data, arr, bound):
            raise Violation(f"{ctx}: appended patch {(level, name, patch)} "
                            f"exceeds its bound {bound:g}")
    report = scrub(path)
    if not report.clean:
        raise Violation(f"{ctx}: resumed series scrubs dirty: {report.describe()}")


def scenario_campaign_kill(corpus: Corpus, seed: int) -> str:
    truth = corpus.truth(corpus.campaign, {})
    points = sharded_injection_points(corpus.campaign)
    for i, pt in enumerate(points):
        ctx = f"campaign-kill/{i} ({pt.label})"
        vman = apply_sharded(corpus.campaign, pt,
                             corpus.root / "campaign-kill" / f"{i:03d}")
        backend = LocalFileBackend(root=vman.parent)
        report = recover_sharded(vman.name, commit=True, backend=backend)
        if report.steps != pt.expect_steps:
            raise Violation(
                f"{ctx}: recovered {list(report.steps)}, "
                f"oracle {list(pt.expect_steps)}"
            )
        check_exact(ctx, decompress_selection(vman.name, backend=backend),
                    {k: v for k, v in truth.items() if k[0] in pt.expect_steps})
    return (f"{len(points)} kill points recovered through a rooted backend "
            f"to their union oracle, survivors bit-exact")


# ---------------------------------------------------------------------------
# chaos: the serving stack under seeded fault schedules.
# ---------------------------------------------------------------------------
def _selection_mix(n_steps: int) -> list[dict]:
    """A small deterministic selection mix touching every access shape."""
    return [
        {},
        {"steps": 0},
        {"steps": [1, n_steps - 1], "levels": 1},
        {"steps": list(range(n_steps)), "levels": 0},
        {"patches": [0]},
    ]


def check_partial(ctx: str, served: dict, missing: list, truth: dict) -> None:
    """A well-formed partial: served patches bit-exact, and the union of
    served and missing steps covers the selection exactly."""
    missing_steps = {m["step"] for m in missing}
    for m in missing:
        if not (m.get("file") and m.get("error") and m.get("detail")):
            raise Violation(f"{ctx}: malformed missing record {m}")
    if missing_steps - {k[0] for k in truth}:
        raise Violation(
            f"{ctx}: missing reports steps outside the selection: "
            f"{sorted(missing_steps - {k[0] for k in truth})}"
        )
    check_exact(f"{ctx}/partial", served,
                {k: v for k, v in truth.items() if k[0] not in missing_steps})


async def guarded(ctx: str, coro):
    """Outcome of one query under the hang watchdog.

    Returns ``("ok", result)`` or ``("err", typed-exception)``; raises
    :class:`Violation` for hangs and untyped escapes.
    """
    try:
        return "ok", await asyncio.wait_for(coro, WATCHDOG_S)
    except TYPED as exc:
        return "err", exc
    except asyncio.TimeoutError:
        raise Violation(f"{ctx}: query hung past {WATCHDOG_S}s") from None
    except BaseException as exc:
        raise Violation(
            f"{ctx}: untyped {type(exc).__name__} escaped: {exc}"
        ) from exc


def _backend(plan: FaultPlan, max_retries: int = 2) -> RangedBackend:
    return RangedBackend(
        LocalFileBackend(), readahead=1 << 12, max_retries=max_retries,
        sleep=lambda s: None, fault=plan,
    )


async def _recovery_probe(name: str, corpus: Corpus, svc: QueryService,
                          path: Path, plan: FaultPlan) -> None:
    """After the schedule clears, the very next query must be exact."""
    plan.clear()
    sel = {"steps": 0}
    tag, got = await guarded(f"{name}/recovery", svc.query(**sel))
    if tag != "ok":
        raise Violation(f"{name}: clean query after clear() failed: {got}")
    check_exact(f"{name}/recovery", got, corpus.truth(path, sel))
    if svc._inflight:
        raise Violation(f"{name}: single-flight table leaked entries")


async def _storage_mix(name: str, corpus: Corpus, svc: QueryService,
                       path: Path, n_steps: int) -> tuple[int, int]:
    """Run the selection mix twice; every query is exact or a typed
    ``StorageError``. Returns ``(exact, failed)``."""
    exact = failed = 0
    for sel in _selection_mix(n_steps) * 2:
        tag, got = await guarded(name, svc.query(**sel))
        if tag == "ok":
            check_exact(f"{name}/{sel}", got, corpus.truth(path, sel))
            exact += 1
        elif isinstance(got, StorageError):
            failed += 1
        else:
            raise Violation(f"{name}: wrong error type: {got!r}")
    return exact, failed


async def scenario_chaos_clean(corpus: Corpus, seed: int) -> str:
    hits = 0
    for path, n in ((corpus.series, SERIES_STEPS), (corpus.campaign, SHARD_STEPS)):
        svc = QueryService(path)
        try:
            for sel in _selection_mix(n):
                tag, got = await guarded(f"chaos-clean/{path.name}", svc.query(**sel))
                if tag != "ok":
                    raise Violation(f"chaos-clean/{path.name}: fault-free query raised {got}")
                check_exact(f"chaos-clean/{path.name}/{sel}", got, corpus.truth(path, sel))
                hits += 1
        finally:
            svc.close()
    return f"{hits} fault-free queries exact"


async def scenario_flake(corpus: Corpus, seed: int) -> str:
    path = corpus.series
    plan = FaultPlan(seed=seed)
    plan.flake()  # every GET's first attempt fails; one retry heals
    svc = QueryService(path, backend=_backend(plan))
    try:
        for sel in _selection_mix(SERIES_STEPS):
            tag, got = await guarded("flake", svc.query(**sel))
            if tag != "ok":
                raise Violation(f"flake: retryable fault leaked: {got}")
            check_exact(f"flake/{sel}", got, corpus.truth(path, sel))
        fired = plan.faults
        if fired == 0:
            raise Violation("flake: schedule never fired (matrix is vacuous)")
        await _recovery_probe("flake", corpus, svc, path, plan)
        return f"{fired} first-attempt faults hidden by retries"
    finally:
        svc.close()


async def scenario_outage_window(corpus: Corpus, seed: int) -> str:
    path = corpus.series
    plan = FaultPlan(seed=seed)
    svc = QueryService(path, backend=_backend(plan, max_retries=0),
                       breaker_threshold=None)  # the breaker gets its own arm
    try:
        plan.first(6, kind="storage")  # hard outage for the next 6 GETs
        exact, failed = await _storage_mix("outage-window", corpus, svc,
                                           path, SERIES_STEPS)
        if not failed:
            raise Violation("outage-window: outage never surfaced")
        if not exact:
            raise Violation("outage-window: backend never recovered "
                            "before clear() (window outlasts the mix)")
        await _recovery_probe("outage-window", corpus, svc, path, plan)
        return f"{failed} typed failures during the window, {exact} exact after"
    finally:
        svc.close()


async def scenario_probability(corpus: Corpus, seed: int) -> str:
    path = corpus.campaign
    plan = FaultPlan(seed=seed)
    plan.probability(0.2)
    svc = QueryService(path, backend=_backend(plan), breaker_threshold=None)
    try:
        exact, failed = await _storage_mix("probability", corpus, svc,
                                           path, SHARD_STEPS)
        fired = plan.faults
        if fired == 0:
            raise Violation("probability: schedule never fired (matrix is vacuous)")
        await _recovery_probe("probability", corpus, svc, path, plan)
        return (f"p=0.2 schedule fired {fired} faults: "
                f"{exact} exact, {failed} typed failures")
    finally:
        svc.close()


async def scenario_shard_outage(corpus: Corpus, seed: int) -> str:
    path = corpus.campaign
    plan = FaultPlan(seed=seed)
    svc = QueryService(path, backend=_backend(plan, max_retries=0), breaker_threshold=None)
    try:
        victim = svc._segments[0][0]  # shard file owning step 0
        victim_steps = sorted(
            s for s, (f, _, _) in svc._segments.items() if f == victim
        )
        plan.always(lambda name, off, length: name == victim, kind="storage")
        # Non-partial: the outage must surface typed, nothing else.
        tag, got = await guarded("shard-outage", svc.query(steps=0))
        if tag != "err" or not isinstance(got, StorageError):
            raise Violation(f"shard-outage: expected StorageError, got {got!r}")
        # Partial: survivors exact, the victim's steps accounted for.
        tag, got = await guarded("shard-outage",
                                 svc.query_info(partial=True))
        if tag != "ok":
            raise Violation(f"shard-outage: partial query raised {got!r}")
        served, info = got
        check_partial("shard-outage", served, info.missing, corpus.truth(path, {}))
        missing_steps = sorted({m["step"] for m in info.missing})
        if missing_steps != victim_steps:
            raise Violation(
                f"shard-outage: missing {missing_steps} != victim's "
                f"steps {victim_steps}"
            )
        await _recovery_probe("shard-outage", corpus, svc, path, plan)
        return (f"dead shard failed typed; partial served "
                f"{len(served)} patches around steps {missing_steps}")
    finally:
        svc.close()


async def scenario_deadline(corpus: Corpus, seed: int) -> str:
    path = corpus.series
    plan = FaultPlan(seed=seed)
    svc = QueryService(path, backend=_backend(plan))
    try:
        await svc.plan(steps=0)  # catalogs in; payload still cold
        plan.latency(0.5)
        tag, got = await guarded("deadline",
                                 svc.query(steps=0, levels=0, timeout=0.05))
        if tag != "err" or not isinstance(got, DeadlineExceeded):
            raise Violation(f"deadline: expected DeadlineExceeded, got {got!r}")
        await _recovery_probe("deadline", corpus, svc, path, plan)
        return "late query failed typed; immediate retry exact"
    finally:
        svc.close()


async def scenario_decode_crash(corpus: Corpus, seed: int) -> str:
    path = corpus.series
    plan = FaultPlan(seed=seed)
    pool = FaultyPool(WorkerPool("thread"), plan)
    svc = QueryService(path, pool=pool, cache_bytes=None)
    try:
        plan.nth(0, match="pool:*", kind="crash")
        tag, got = await guarded("decode-crash", svc.query(steps=0, levels=0))
        if tag != "err" or not isinstance(got, ServeError):
            raise Violation(
                f"decode-crash: raw crash must surface as ServeError, "
                f"got {got!r}"
            )
        if "decode worker pool" not in str(got):
            raise Violation(f"decode-crash: untyped message: {got}")
        await _recovery_probe("decode-crash", corpus, svc, path, plan)
        return "worker crash surfaced as ServeError; next query exact"
    finally:
        svc.close()
        pool.close()


async def scenario_overload(corpus: Corpus, seed: int) -> str:
    path = corpus.series
    plan = FaultPlan(seed=seed)
    svc = QueryService(path, backend=_backend(plan),
                       cache_bytes=None, max_inflight=1, max_queue=0)
    try:
        await svc.plan(steps=0)
        plan.latency(0.2)  # hold each admitted query long enough to shed
        outcomes = await asyncio.gather(
            *[guarded("overload", svc.query(steps=0, levels=0))
              for _ in range(6)]
        )
        shed = exact = 0
        truth = corpus.truth(path, {"steps": 0, "levels": 0})
        for tag, got in outcomes:
            if tag == "ok":
                check_exact("overload", got, truth)
                exact += 1
            else:
                if not isinstance(got, Overloaded):
                    raise Violation(f"overload: wrong error type: {got!r}")
                if got.retry_after is None or got.retry_after <= 0:
                    raise Violation("overload: shed reply carries no retry_after")
                shed += 1
        if not exact:
            raise Violation("overload: no query was admitted at all")
        if not shed:
            raise Violation("overload: 6-vs-1 load never shed (gate inert)")
        await _recovery_probe("overload", corpus, svc, path, plan)
        return f"{exact} admitted exact, {shed} shed with retry_after"
    finally:
        svc.close()


async def scenario_breaker(corpus: Corpus, seed: int) -> str:
    path = corpus.campaign
    plan = FaultPlan(seed=seed)
    svc = QueryService(path, backend=_backend(plan, max_retries=0),
                       breaker_threshold=2, breaker_cooldown=0.2)
    try:
        victim = svc._segments[0][0]
        plan.always(lambda name, off, length: name == victim, kind="storage")
        fast_fails = 0
        for _ in range(5):
            tag, got = await guarded("breaker", svc.query(steps=0))
            if tag != "err" or not isinstance(got, StorageError):
                raise Violation(f"breaker: expected StorageError, got {got!r}")
            if "circuit breaker open" in str(got):
                fast_fails += 1
        if not fast_fails:
            raise Violation("breaker: 5 consecutive failures never tripped it")
        breaker_stats = svc.stats["breakers"][victim]
        if breaker_stats["trips"] < 1:
            raise Violation(f"breaker: stats show no trip: {breaker_stats}")
        plan.clear()
        await asyncio.sleep(0.25)  # past the cooldown: probe readmitted
        tag, got = await guarded("breaker", svc.query(steps=0))
        if tag != "ok":
            raise Violation(f"breaker: post-cooldown probe failed: {got!r}")
        check_exact("breaker/recovery", got, corpus.truth(path, {"steps": 0}))
        return (f"tripped after 2 failures, {fast_fails} fast-fails, "
                f"recovered after cooldown")
    finally:
        svc.close()


# ---------------------------------------------------------------------------
# scrub: damaged bytes at rest are flagged, repaired bit-exactly, or
# reported unrecoverable.
# ---------------------------------------------------------------------------
def flip_byte(path: Path, pos: int) -> None:
    blob = bytearray(path.read_bytes())
    blob[pos] ^= 0xFF
    path.write_bytes(bytes(blob))


def check_scrub_clean(ctx: str, target: Path) -> None:
    report = scrub(str(target))
    if not report.clean:
        raise Violation(
            f"{ctx}: scrub reports {len(report.findings)} finding(s) on a "
            f"file that should be clean: "
            f"{[f.kind for f in report.findings][:6]}"
        )


def check_scrub_flags(ctx: str, target: Path, damaged_file: str) -> None:
    report = scrub(str(target))
    if report.clean:
        raise Violation(f"{ctx}: scrub missed the seeded corruption")
    named = {os.path.basename(f.file) for f in report.findings}
    if damaged_file not in named:
        raise Violation(
            f"{ctx}: no finding names the damaged file {damaged_file} "
            f"(findings: {[(f.kind, os.path.basename(f.file)) for f in report.findings][:6]})"
        )


def check_reads_pristine(ctx: str, corpus: Corpus, work: Path) -> None:
    """Every read of the working copy matches the pristine campaign."""
    check_exact(ctx, decompress_selection(str(work / corpus.parity.name)),
                corpus.truth(corpus.parity, {}))


def repair_and_verify(ctx: str, corpus: Corpus, work: Path, damaged: str) -> str:
    """Run the dry-run + commit repair cycle and hold every clause."""
    manifest = work / corpus.parity.name
    dry = repair_sharded(str(manifest))
    if not dry.reconstructed:
        raise Violation(f"{ctx}: dry run found nothing to reconstruct")
    if dry.unrecoverable:
        raise Violation(
            f"{ctx}: single-loss damage reported unrecoverable: "
            f"{[(d.shard, d.step) for d in dry.unrecoverable]}"
        )
    report = repair_sharded(str(manifest), commit=True)
    check_scrub_clean(f"{ctx}/post-repair", manifest)
    # Every sealed extent of the repaired shard is bit-identical to the
    # pristine template: the exact-bytes oracle parity promises.
    pristine = corpus.pristine[damaged]
    repaired = (work / damaged).read_bytes()
    for step, offset, length in corpus.extents[damaged]:
        if repaired[offset:offset + length] != pristine[offset:offset + length]:
            raise Violation(
                f"{ctx}: step {step} of {damaged} not bit-exact after repair"
            )
    check_reads_pristine(ctx, corpus, work)
    return (f"{len(report.reconstructed)} segment(s) restored bit-exact, "
            f"scrub clean after commit")


def scenario_scrub_clean(corpus: Corpus, seed: int) -> str:
    check_scrub_clean("scrub-clean/series", corpus.series)
    check_scrub_clean("scrub-clean/campaign", corpus.parity)
    for shard in corpus.shards:
        check_scrub_clean(f"scrub-clean/{shard}", corpus.parity.parent / shard)
    return (f"zero findings across series, campaign, and "
            f"{len(corpus.shards)} shards")


def scenario_bit_rot(corpus: Corpus, seed: int) -> str:
    work, rng = corpus.stage("bit-rot", seed)
    victim = rng.choice(corpus.shards)
    step, offset, length = rng.choice(corpus.extents[victim])
    pos = offset + rng.randrange(length - SEAL_SIZE)  # inside the segment
    flip_byte(work / victim, pos)
    check_scrub_flags("bit-rot", work / corpus.parity.name, victim)
    summary = repair_and_verify("bit-rot", corpus, work, victim)
    return f"flipped byte {pos} of {victim} step {step}: {summary}"


def scenario_torn_segment(corpus: Corpus, seed: int) -> str:
    work, rng = corpus.stage("torn-segment", seed)
    victim = rng.choice(corpus.shards)
    step, offset, length = corpus.extents[victim][-1]
    cut = offset + rng.randrange(1, length)  # mid-segment: index is gone too
    with open(work / victim, "r+b") as handle:
        handle.truncate(cut)
    check_scrub_flags("torn-segment", work / corpus.parity.name, victim)
    summary = repair_and_verify("torn-segment", corpus, work, victim)
    return f"tore {victim} at byte {cut} (step {step} half-lost): {summary}"


def scenario_deleted_shard(corpus: Corpus, seed: int) -> str:
    work, rng = corpus.stage("deleted-shard", seed)
    victim = rng.choice(corpus.shards)
    os.remove(work / victim)
    check_scrub_flags("deleted-shard", work / corpus.parity.name, victim)
    summary = repair_and_verify("deleted-shard", corpus, work, victim)
    return f"resurrected {victim} from parity: {summary}"


def scenario_damaged_parity(corpus: Corpus, seed: int) -> str:
    work, rng = corpus.stage("damaged-parity", seed)
    manifest = work / corpus.parity.name
    victim = rng.choice(corpus.parity_files)
    size = (work / victim).stat().st_size
    pos = rng.randrange(8, size)  # anywhere past the fixed header
    flip_byte(work / victim, pos)
    check_scrub_flags("damaged-parity", manifest, victim)
    # Data shards are intact, so every read stays exact even before repair.
    check_reads_pristine("damaged-parity/pre", corpus, work)
    report = repair_sharded(str(manifest), commit=True)
    if report.unrecoverable:
        raise Violation("damaged-parity: intact data reported unrecoverable")
    check_scrub_clean("damaged-parity/post", manifest)
    check_reads_pristine("damaged-parity/post", corpus, work)
    return (f"flipped byte {pos} of {victim}: parity rebuilt "
            f"({len(report.parity_rebuilt)} file(s)), scrub clean")


def scenario_multi_loss(corpus: Corpus, seed: int) -> str:
    work, rng = corpus.stage("multi-loss", seed)
    # All data shards share one group at parity=1: two deletions exceed p.
    lost = rng.sample(corpus.shards, 2)
    for victim in lost:
        os.remove(work / victim)
    report = repair_sharded(str(work / corpus.parity.name))
    if not report.unrecoverable:
        raise Violation(
            "multi-loss: 2 lost members per stripe (> p=1) must be "
            "unrecoverable, not silently repaired"
        )
    blamed = {d.shard for d in report.unrecoverable}
    if not blamed.issuperset(set(lost)):
        raise Violation(
            f"multi-loss: unrecoverable report blames {sorted(blamed)}, "
            f"not the lost shards {sorted(lost)}"
        )
    return (f"lost {lost[0]} + {lost[1]}: "
            f"{len(report.unrecoverable)} member(s) correctly unrecoverable")


def scenario_serve_heal(corpus: Corpus, seed: int) -> str:
    work, rng = corpus.stage("serve-heal", seed)
    victim = rng.choice(corpus.shards)
    os.remove(work / victim)
    with InProcessClient(str(work / corpus.parity.name)) as client:
        served, info = client.query_info()
        again, info2 = client.query_info()
        stats = client.stats()
    if info.partial or info.missing:
        raise Violation(
            f"serve-heal: query degraded (partial={info.partial}, "
            f"missing={info.missing}) despite parity coverage"
        )
    check_exact("serve-heal", served, corpus.truth(corpus.parity, {}))
    if info.repairs < 1 or stats["repairs"] < 1:
        raise Violation(
            f"serve-heal: reconstruction invisible in accounting "
            f"(info.repairs={info.repairs}, stats={stats['repairs']})"
        )
    if info2.repairs or stats["repairs"] != info.repairs or (
        any(again[key] is not arr for key, arr in served.items())
    ):
        raise Violation(
            f"serve-heal: the repeat query reconstructed again "
            f"(info.repairs={info2.repairs}, stats={stats['repairs']}) or "
            "served different arrays — a healed step must stay healed"
        )
    return (f"destroyed {victim}; query complete and byte-exact with "
            f"{info.repairs} on-the-fly repair(s), repeat served with none")


#: name -> (group, in the --quick subset, scenario function or coroutine)
SCENARIOS = {
    "series-kill": ("crash", True, scenario_series_kill),
    "campaign-kill": ("crash", True, scenario_campaign_kill),
    "chaos-clean": ("chaos", True, scenario_chaos_clean),
    "flake": ("chaos", True, scenario_flake),
    "outage-window": ("chaos", False, scenario_outage_window),
    "probability": ("chaos", False, scenario_probability),
    "shard-outage": ("chaos", True, scenario_shard_outage),
    "deadline": ("chaos", True, scenario_deadline),
    "decode-crash": ("chaos", True, scenario_decode_crash),
    "overload": ("chaos", False, scenario_overload),
    "breaker": ("chaos", False, scenario_breaker),
    "scrub-clean": ("scrub", True, scenario_scrub_clean),
    "bit-rot": ("scrub", True, scenario_bit_rot),
    "torn-segment": ("scrub", False, scenario_torn_segment),
    "deleted-shard": ("scrub", True, scenario_deleted_shard),
    "damaged-parity": ("scrub", False, scenario_damaged_parity),
    "multi-loss": ("scrub", False, scenario_multi_loss),
    "serve-heal": ("scrub", True, scenario_serve_heal),
}


def run(name: str, corpus: Corpus, seed: int | None = None) -> str:
    """Run one scenario at ``seed`` (its group's seed when ``None``).

    Returns the scenario's summary line; raises :class:`Violation` when
    an oracle clause breaks.
    """
    group, _, fn = SCENARIOS[name]
    outcome = fn(corpus, GROUP_SEEDS[group] if seed is None else seed)
    return asyncio.run(outcome) if inspect.iscoroutine(outcome) else outcome


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("selection", metavar="NAME|GROUP|all",
                        help=f"a scenario, a group ({', '.join(GROUP_SEEDS)}) "
                             "or all")
    parser.add_argument("--quick", action="store_true",
                        help="only the CI subset of the selection")
    parser.add_argument("--seed", type=int, default=None,
                        help=f"one seed for every scenario (default: each "
                             f"group's own, {GROUP_SEEDS})")
    parser.add_argument("-v", "--verbose", action="store_true")
    args = parser.parse_args(argv)

    chosen = [
        name for name, (group, quick, _) in SCENARIOS.items()
        if args.selection in (name, group, "all") and (quick or not args.quick)
    ]
    if not chosen:
        parser.error(f"no {'quick ' if args.quick else ''}scenario matches "
                     f"{args.selection!r} (have {', '.join(SCENARIOS)})")

    failures = 0
    with tempfile.TemporaryDirectory(prefix="faultsim-") as tmp:
        t0 = time.perf_counter()
        corpus = build_corpus(Path(tmp))
        if args.verbose:
            print(f"corpus built in {time.perf_counter() - t0:.1f}s "
                  f"({SERIES_STEPS}-step series; {SHARD_STEPS} steps x "
                  f"{N_SHARDS} shards, with and without parity)")
        for name in chosen:
            t0 = time.perf_counter()
            try:
                summary = run(name, corpus, args.seed)
            except Violation as exc:
                failures += 1
                print(f"FAIL {name:<14} {exc}")
            except ReproError as exc:
                failures += 1
                print(f"FAIL {name:<14} scenario errored: "
                      f"{type(exc).__name__}: {exc}")
            else:
                print(f"ok   {name:<14} {summary} "
                      f"[{time.perf_counter() - t0:.1f}s]")
    total = len(chosen)
    seeds = "default seeds" if args.seed is None else f"seed {args.seed}"
    print(f"\n{total - failures}/{total} scenarios hold the oracle "
          f"({seeds}{', quick' if args.quick else ''})")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
