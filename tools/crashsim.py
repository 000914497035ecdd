#!/usr/bin/env python
"""Deterministic crash injection for RPH2S series files.

The durability contract of :mod:`repro.insitu` — a killed writer loses at
most the step in flight — is only real if something keeps killing writers.
This tool deterministically simulates every structurally interesting crash
against a *finished* series file by truncating or corrupting it at offsets
derived from the file's actual layout:

==================== =========================================================
offset class         what it simulates
==================== =========================================================
mid-payload          killed while streaming a segment's patch bytes
mid-segment-footer   killed while writing a segment's own RPH2 footer
mid-seal             killed while writing the 64-byte step seal record
step-boundary        killed exactly on a sealed step boundary (clean crash)
append-resume        killed right after ``append_to``'s eager truncation
                     of the old index/footer (all seals intact, no index)
mid-index            killed while writing the series timestep index
mid-footer           killed while writing the 28-byte series footer
post-footer-garbage  a partial rewrite appended bytes after a valid footer
index-bitflip        bit rot inside the timestep index (crc must catch it)
footer-bitflip       bit rot inside the series footer magic
payload-bitflip      bit rot inside one segment (that step must be dropped,
                     every other step must survive)
seal-bitflip         bit rot inside one seal record (the step must still be
                     recovered through its segment's own footer)
adjacent-seal-bitflip  bit rot destroying two consecutive seal records (both
                     segments must still be recovered via their own footers
                     — the resync path must not skip the one in the gap)
==================== =========================================================

Each :class:`InjectionPoint` carries the exact set of step numbers that a
recovery scan MUST return for the damaged variant — the oracle the
crash-injection CI matrix asserts against
(``tests/insitu/test_crash_recovery.py``).

**Sharded mode** (:func:`sharded_injection_points` / :func:`apply_sharded`)
models killing one writer of a multi-shard RPHM campaign mid-step: every
shard is truncated to its crash shape (footerless, all steps sealed — the
real on-disk state when ``close()`` never ran), the victim shard is
additionally cut inside its in-flight step's payload, and the manifest is
reverted to its non-final form (or torn). The oracle is the union of the
per-shard survivor sets; every non-victim shard must keep *all* its steps
bit-exactly.

Usage::

    PYTHONPATH=src python tools/crashsim.py list run.rph2s
    PYTHONPATH=src python tools/crashsim.py apply run.rph2s --point 3 -o broken.rph2s
    PYTHONPATH=src python tools/crashsim.py all run.rph2s -o variants/
    PYTHONPATH=src python tools/crashsim.py sharded run.rphm -o variants/
"""

from __future__ import annotations

import argparse
import io
import random
import sys
from dataclasses import dataclass
from pathlib import Path

# Allow running straight from a checkout without PYTHONPATH.
_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.compression.container import FOOTER_SIZE  # noqa: E402
from repro.insitu.series import SEAL_SIZE, SeriesReader  # noqa: E402

#: Seed for the (deterministic) choice of bitflip offsets within a region.
DEFAULT_SEED = 20260729
#: Truncation fractions inside a segment payload.
DEFAULT_FRACS = (0.15, 0.5, 0.85)
#: Appended after a valid footer by the post-footer-garbage class.
GARBAGE = b"\x89CRASHSIM-GARBAGE\x00" * 7


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
    at (every shard is cut — a killed campaign never wrote any shard's
    index/footer); the ``victim``'s cut lands inside its in-flight step.
    ``manifest`` is ``"nonfinal"`` (the initial manifest a real kill
    leaves behind) or ``"torn"`` (the manifest itself is half-written, so
    recovery must rediscover the shards by name). ``expect_steps`` is the
    union survivor oracle across shards.
    """

    victim: str
    cuts: dict[str, int]
    expect_steps: tuple[int, ...]
    label: str
    manifest: str = "nonfinal"


def sharded_injection_points(
    manifest_path: Path,
    payload_fracs: tuple[float, ...] = DEFAULT_FRACS,
) -> list[ShardedCrashPoint]:
    """Enumerate kill scenarios for a *finished* sharded campaign.

    Derived from each shard's real layout: the clean-boundary kill (all
    shards sealed), one mid-payload kill per shard per fraction (that
    shard loses exactly its last step; all other shards keep everything),
    and a torn-manifest variant exercising shard rediscovery.
    """
    from repro.insitu.sharded import parse_manifest

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
    return points


def apply_sharded(
    manifest_path: Path, point: ShardedCrashPoint, output_dir: Path
) -> Path:
    """Materialize one damaged campaign variant; returns its manifest path."""
    from repro.insitu.sharded import (
        _SERIES_META_KEYS,
        pack_manifest,
        parse_manifest,
    )

    manifest_path = Path(manifest_path)
    man = parse_manifest(manifest_path.read_bytes())
    output_dir.mkdir(parents=True, exist_ok=True)
    meta = {k: man[k] for k in _SERIES_META_KEYS}
    rows = [
        {"name": r["name"], "durability": r["durability"], "steps": []}
        for r in man["shards"]
    ]
    blob = pack_manifest(meta, rows, final=False)
    if point.manifest == "torn":
        blob = blob[: max(5, len(blob) // 2)]
    out_manifest = output_dir / manifest_path.name
    out_manifest.write_bytes(blob)
    for row in man["shards"]:
        raw = (manifest_path.parent / row["name"]).read_bytes()
        (output_dir / row["name"]).write_bytes(raw[: point.cuts[row["name"]]])
    return out_manifest


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("list", help="enumerate injection points for a series")
    p.add_argument("input", type=Path)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)

    p = sub.add_parser("apply", help="write one damaged variant")
    p.add_argument("input", type=Path)
    p.add_argument("--point", type=int, required=True,
                   help="index into `crashsim list` output")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("-o", "--output", type=Path, required=True)

    p = sub.add_parser("all", help="write every damaged variant into a directory")
    p.add_argument("input", type=Path)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("-o", "--output", type=Path, required=True)

    p = sub.add_parser("sharded",
                       help="write killed-writer variants of an RPHM campaign")
    p.add_argument("input", type=Path, help="campaign manifest (.rphm)")
    p.add_argument("-o", "--output", type=Path, required=True)

    args = parser.parse_args(argv)

    if args.command == "sharded":
        for i, spt in enumerate(sharded_injection_points(args.input)):
            out = apply_sharded(args.input, spt,
                                args.output / f"{i:03d}_{spt.manifest}")
            print(f"{out}: survivors={list(spt.expect_steps)} — {spt.label}")
        return 0

    raw = args.input.read_bytes()
    points = injection_points(raw, seed=args.seed)

    if args.command == "list":
        for i, pt in enumerate(points):
            print(f"{i:>3} {pt.klass:<20} {pt.action:<8} @{pt.offset:<10} "
                  f"survivors={list(pt.expect_steps)} — {pt.label}")
        return 0
    if args.command == "apply":
        pt = points[args.point]
        args.output.write_bytes(apply(raw, pt))
        print(f"{args.output}: {pt.klass} ({pt.label})")
        return 0
    args.output.mkdir(parents=True, exist_ok=True)
    for i, pt in enumerate(points):
        target = args.output / f"{i:03d}_{pt.klass}.rph2s"
        target.write_bytes(apply(raw, pt))
        print(f"{target}: {pt.label}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
