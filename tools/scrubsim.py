#!/usr/bin/env python
"""Deterministic corruption matrix for the self-healing storage stack.

``crashsim.py`` kills writers and ``chaossim.py`` breaks the serving
stack's I/O underneath live queries; this tool damages the *bytes at
rest* — bit-rot, torn segments, deleted shards, damaged parity — and
holds the scrub/repair/serve triangle to one oracle:

    ``scrub()`` must report **zero findings** on clean files and must
    **flag every seeded corruption**. For any damage leaving at most
    ``p`` lost members per parity stripe, ``repair_sharded`` must
    restore the damaged segments **bit-exactly** (the parity index's
    recorded crcs are the proof), after which scrub is clean again and
    every read matches a pristine-copy ``decompress_selection``. Damage
    beyond parity coverage must be reported ``unrecoverable`` — never
    silently "repaired" with wrong bytes. And ``repro.serve`` over a
    parity-carrying campaign with a destroyed shard must answer
    complete, byte-exact, **non-partial** queries by reconstructing on
    the fly (visible in ``stats["repairs"]``).

The matrix sweeps that oracle across scenario classes:

==================== =========================================================
scenario             what it damages
==================== =========================================================
clean                nothing (zero-findings control arm, series + campaign)
bit-rot              one flipped byte inside a sealed shard segment
torn-segment         a shard truncated mid-segment (index + footer lost)
deleted-shard        one data shard file removed entirely
damaged-parity       one flipped byte inside a parity shard's XOR blocks
multi-loss           two shards of one parity group lost (> p): must be
                     flagged unrecoverable, never fabricated
serve-heal           a destroyed shard under a live ``QueryService``
==================== =========================================================

Every byte position is seeded — two runs with the same ``--seed``
corrupt the same offsets. Exit status is non-zero on any oracle
violation.

Usage::

    PYTHONPATH=src python tools/scrubsim.py              # full matrix
    PYTHONPATH=src python tools/scrubsim.py --quick      # CI subset
    PYTHONPATH=src python tools/scrubsim.py --seed 7 -v
"""

from __future__ import annotations

import argparse
import os
import random
import shutil
import sys
import tempfile
import time
import zlib
from pathlib import Path

# Allow running straight from a checkout without PYTHONPATH.
_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.amr.io import write_series, write_sharded_series  # noqa: E402
from repro.compression.amr_codec import decompress_selection  # noqa: E402
from repro.errors import ReproError  # noqa: E402
from repro.insitu.series import SEAL_SIZE, SeriesReader  # noqa: E402
from repro.insitu.sharded import ShardedSeriesReader  # noqa: E402
from repro.integrity import repair_sharded, scrub  # noqa: E402
from repro.serve import InProcessClient  # noqa: E402
from repro.sims import NyxConfig, nyx_step_stream  # noqa: E402

DEFAULT_SEED = 20260808
SERIES_STEPS = 4
SHARD_STEPS = 6
N_SHARDS = 3
PARITY = 1


class Violation(AssertionError):
    """One broken oracle clause; carries the scenario context."""


# ---------------------------------------------------------------------------
# Corpus: one pristine template, copied per scenario before damage.
# ---------------------------------------------------------------------------
def build_corpus(root: Path) -> dict:
    """Write the pristine series + parity-carrying campaign template and
    capture the byte/metadata oracle before anything is damaged."""
    cfg = NyxConfig(coarse_n=8)
    template = root / "template"
    template.mkdir()
    series = template / "scrub.rph2s"
    write_series(series, nyx_step_stream(SERIES_STEPS, cfg),
                 codec="sz-lr", error_bound=1e-3, durability="step")
    manifest = template / "scrub.rphm"
    write_sharded_series(manifest, nyx_step_stream(SHARD_STEPS, cfg),
                         codec="sz-lr", error_bound=1e-3, n_shards=N_SHARDS,
                         parallel="serial", durability="step", parity=PARITY)
    reader = ShardedSeriesReader.open(manifest)
    shards = [template / os.path.basename(s) for s in reader.shards]
    parity = [template / row["name"] for row in reader.parity]
    reader.close()
    # Per-shard sealed extents (step, offset, segment+seal length) — the
    # byte ranges parity proves, so the post-repair bit-exactness oracle.
    extents: dict[str, list[tuple[int, int, int]]] = {}
    for shard in shards:
        sub = SeriesReader.open(shard)
        extents[shard.name] = [
            (e.step, e.offset, e.length + SEAL_SIZE) for e in sub.step_entries
        ]
        sub.close()
    return {
        "template": template,
        "series": series.name,
        "manifest": manifest.name,
        "shards": [s.name for s in shards],
        "parity": [p.name for p in parity],
        "extents": extents,
        "pristine": {
            p.name: p.read_bytes() for p in (*shards, *parity, series)
        },
        "truth": decompress_selection(str(manifest)),
    }


def stage(corpus: dict, root: Path, name: str) -> Path:
    """A fresh working copy of the template for one scenario."""
    work = root / name
    shutil.copytree(corpus["template"], work)
    return work


def flip_byte(path: Path, pos: int) -> None:
    blob = bytearray(path.read_bytes())
    blob[pos] ^= 0xFF
    path.write_bytes(bytes(blob))


# ---------------------------------------------------------------------------
# Oracle clauses.
# ---------------------------------------------------------------------------
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


def check_reads_exact(ctx: str, manifest: Path, truth: dict) -> None:
    served = decompress_selection(str(manifest))
    if set(served) != set(truth):
        raise Violation(f"{ctx}: repaired campaign serves wrong key set")
    for key, arr in served.items():
        if arr.tobytes() != truth[key].tobytes():
            raise Violation(f"{ctx}: wrong bytes for patch {key}")


def check_segments_exact(ctx: str, work: Path, corpus: dict,
                         shard_name: str) -> None:
    """Every sealed extent of the repaired shard is bit-identical to the
    pristine template — the exact-bytes oracle parity promises."""
    pristine = corpus["pristine"][shard_name]
    repaired = (work / shard_name).read_bytes()
    for step, offset, length in corpus["extents"][shard_name]:
        if repaired[offset:offset + length] != pristine[offset:offset + length]:
            raise Violation(
                f"{ctx}: step {step} of {shard_name} not bit-exact after "
                f"repair"
            )


def repair_and_verify(ctx: str, work: Path, corpus: dict,
                      damaged: str) -> str:
    """Run the dry-run + commit repair cycle and hold every clause."""
    manifest = work / corpus["manifest"]
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
    check_segments_exact(ctx, work, corpus, damaged)
    check_reads_exact(ctx, manifest, corpus["truth"])
    return (f"{len(report.reconstructed)} segment(s) restored bit-exact, "
            f"scrub clean after commit")


# ---------------------------------------------------------------------------
# Scenarios. Each returns a human-readable outcome summary string.
# ---------------------------------------------------------------------------
def scenario_clean(corpus: dict, root: Path, rng: random.Random) -> str:
    work = stage(corpus, root, "clean")
    check_scrub_clean("clean/series", work / corpus["series"])
    check_scrub_clean("clean/campaign", work / corpus["manifest"])
    for shard in corpus["shards"]:
        check_scrub_clean(f"clean/{shard}", work / shard)
    return (f"zero findings across series, campaign, and "
            f"{len(corpus['shards'])} shards")


def scenario_bit_rot(corpus: dict, root: Path, rng: random.Random) -> str:
    work = stage(corpus, root, "bit-rot")
    victim = rng.choice(corpus["shards"])
    step, offset, length = rng.choice(corpus["extents"][victim])
    pos = offset + rng.randrange(length - SEAL_SIZE)  # inside the segment
    flip_byte(work / victim, pos)
    check_scrub_flags("bit-rot", work / corpus["manifest"], victim)
    summary = repair_and_verify("bit-rot", work, corpus, victim)
    return f"flipped byte {pos} of {victim} step {step}: {summary}"


def scenario_torn_segment(corpus: dict, root: Path,
                          rng: random.Random) -> str:
    work = stage(corpus, root, "torn-segment")
    victim = rng.choice(corpus["shards"])
    step, offset, length = corpus["extents"][victim][-1]
    cut = offset + rng.randrange(1, length)  # mid-segment: index is gone too
    with open(work / victim, "r+b") as handle:
        handle.truncate(cut)
    check_scrub_flags("torn-segment", work / corpus["manifest"], victim)
    summary = repair_and_verify("torn-segment", work, corpus, victim)
    return f"tore {victim} at byte {cut} (step {step} half-lost): {summary}"


def scenario_deleted_shard(corpus: dict, root: Path,
                           rng: random.Random) -> str:
    work = stage(corpus, root, "deleted-shard")
    victim = rng.choice(corpus["shards"])
    os.remove(work / victim)
    check_scrub_flags("deleted-shard", work / corpus["manifest"], victim)
    summary = repair_and_verify("deleted-shard", work, corpus, victim)
    return f"resurrected {victim} from parity: {summary}"


def scenario_damaged_parity(corpus: dict, root: Path,
                            rng: random.Random) -> str:
    work = stage(corpus, root, "damaged-parity")
    victim = rng.choice(corpus["parity"])
    size = (work / victim).stat().st_size
    pos = rng.randrange(8, size)  # anywhere past the fixed header
    flip_byte(work / victim, pos)
    check_scrub_flags("damaged-parity", work / corpus["manifest"], victim)
    # Data shards are intact, so every read stays exact even before repair.
    check_reads_exact("damaged-parity/pre", work / corpus["manifest"],
                      corpus["truth"])
    report = repair_sharded(str(work / corpus["manifest"]), commit=True)
    if report.unrecoverable:
        raise Violation("damaged-parity: intact data reported unrecoverable")
    check_scrub_clean("damaged-parity/post", work / corpus["manifest"])
    check_reads_exact("damaged-parity/post", work / corpus["manifest"],
                      corpus["truth"])
    return (f"flipped byte {pos} of {victim}: parity rebuilt "
            f"({len(report.parity_rebuilt)} file(s)), scrub clean")


def scenario_multi_loss(corpus: dict, root: Path,
                        rng: random.Random) -> str:
    work = stage(corpus, root, "multi-loss")
    # All data shards share one group at parity=1: two deletions exceed p.
    lost = rng.sample(corpus["shards"], 2)
    for victim in lost:
        os.remove(work / victim)
    report = repair_sharded(str(work / corpus["manifest"]))
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


def scenario_serve_heal(corpus: dict, root: Path,
                        rng: random.Random) -> str:
    work = stage(corpus, root, "serve-heal")
    victim = rng.choice(corpus["shards"])
    os.remove(work / victim)
    truth = corpus["truth"]
    with InProcessClient(str(work / corpus["manifest"])) as client:
        served, info = client.query_info()
        again, info2 = client.query_info()
        stats = client.stats()
    if info.partial or info.missing:
        raise Violation(
            f"serve-heal: query degraded (partial={info.partial}, "
            f"missing={info.missing}) despite parity coverage"
        )
    if set(served) != set(truth):
        raise Violation("serve-heal: healed query serves wrong key set")
    for key, arr in served.items():
        if arr.tobytes() != truth[key].tobytes():
            raise Violation(f"serve-heal: wrong bytes for patch {key}")
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


#: name -> (in quick subset, scenario function)
SCENARIOS = {
    "clean": (True, scenario_clean),
    "bit-rot": (True, scenario_bit_rot),
    "torn-segment": (False, scenario_torn_segment),
    "deleted-shard": (True, scenario_deleted_shard),
    "damaged-parity": (False, scenario_damaged_parity),
    "multi-loss": (False, scenario_multi_loss),
    "serve-heal": (True, scenario_serve_heal),
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--quick", action="store_true",
                        help="CI subset (the starred scenarios only)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="corruption-offset seed (default %(default)s)")
    parser.add_argument("--only", metavar="NAME", action="append",
                        help="run only this scenario (repeatable)")
    parser.add_argument("-v", "--verbose", action="store_true")
    args = parser.parse_args(argv)

    chosen = [
        (name, fn) for name, (quick, fn) in SCENARIOS.items()
        if (not args.quick or quick) and (not args.only or name in args.only)
    ]
    if not chosen:
        parser.error(f"no scenario matches {args.only!r} "
                     f"(have {', '.join(SCENARIOS)})")

    failures = 0
    with tempfile.TemporaryDirectory(prefix="scrubsim-") as tmp:
        root = Path(tmp)
        t0 = time.perf_counter()
        corpus = build_corpus(root)
        if args.verbose:
            print(f"corpus built in {time.perf_counter() - t0:.1f}s "
                  f"({SHARD_STEPS} steps x {N_SHARDS} shards, "
                  f"parity={PARITY})")
        for name, fn in chosen:
            t0 = time.perf_counter()
            rng = random.Random(args.seed ^ zlib.crc32(name.encode()))
            try:
                summary = fn(corpus, root, rng)
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
    print(f"\n{total - failures}/{total} scenarios hold the oracle "
          f"(seed {args.seed}{', quick' if args.quick else ''})")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
