"""Command-line compressor for ``.npy`` arrays and plotfiles.

Usage::

    python -m repro.compression compress field.npy -o field.rprc \\
        --codec sz-interp --eb 1e-3 --mode rel
    python -m repro.compression decompress field.rprc -o restored.npy
    python -m repro.compression info field.rprc
    python -m repro.compression compress-plotfile myplt/ -o myplt.rprh \\
        --codec sz-lr --eb 1e-3 --parallel process --workers 0
    python -m repro.compression inspect myplt.rprh
    python -m repro.compression extract myplt.rprh -o patch.npy \\
        --level 1 --field density --patch 0
    python -m repro.compression stream plt_0000/ plt_0001/ -o run.rph2s \\
        --codec sz-lr --eb 1e-3 --parallel thread
    python -m repro.compression stream --sim nyx --steps 16 -o run.rph2s
    python -m repro.compression inspect run.rph2s
    python -m repro.compression extract run.rph2s --step 7 --level 1 \\
        --field baryon_density --patch 0 -o patch.npy
    python -m repro.compression recover run.rph2s            # dry-run report
    python -m repro.compression recover run.rph2s --commit   # rewrite index

``info`` prints the self-describing header (codec, shape, parameters,
section sizes) without decompressing. ``inspect`` walks a seekable
container's patch index — or a series' timestep index — without touching
the payload; ``extract`` decodes a selection of patches via random access
(O(selection) bytes read). ``stream`` compresses timesteps *as they are
produced* (plotfile directories read one at a time, or a built-in synthetic
campaign) into an appendable RPH2S series; ``--durability step`` fsyncs
every sealed step. ``--parallel thread`` runs the codec on one background
lane, ``--parallel process --workers N`` on N processes (0 = one per core).
``recover`` salvages a series whose footer was lost to a killed writer: dry
run reports every fully-sealed step, ``--commit`` truncates trailing
garbage and appends a fresh timestep index + footer.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from repro.amr.io import read_container, read_plotfile
from repro.compression.amr_codec import compress_hierarchy, decompress_selection
from repro.compression.base import StreamReader
from repro.compression.registry import available_codecs, decompress_any, make_codec
from repro.errors import CompressionError, FormatError, ReproError
from repro.insitu.writer import DURABILITY_MODES
from repro.parallel.pool import EXECUTION_MODES, WorkerPool

__all__ = ["main"]

_WORKERS_HELP = "process count under --parallel process (0 = one per CPU core); thread is one lane"


def _cmd_compress(args) -> int:
    try:
        data = np.load(args.input, allow_pickle=False)
    except (ValueError, EOFError) as exc:
        raise FormatError(f"{args.input} is not a .npy array: {exc}") from exc
    codec = make_codec(args.codec)
    blob = codec.compress(data, args.eb, mode=args.mode)
    out = args.output if args.output else args.input.with_suffix(".rprc")
    Path(out).write_bytes(blob)
    print(
        f"{args.input} -> {out}: {data.nbytes} -> {len(blob)} bytes "
        f"(ratio {data.nbytes / len(blob):.2f}x, codec {args.codec}, "
        f"eb {args.eb:g} {args.mode})"
    )
    return 0


def _cmd_decompress(args) -> int:
    blob = Path(args.input).read_bytes()
    data = decompress_any(blob)
    out = args.output if args.output else Path(args.input).with_suffix(".npy")
    np.save(out, data, allow_pickle=False)
    print(f"{args.input} -> {out}: shape {data.shape}, dtype {data.dtype}")
    return 0


def _cmd_info(args) -> int:
    blob = Path(args.input).read_bytes()
    reader = StreamReader(blob)
    print(f"codec:  {reader.codec}")
    print(f"shape:  {reader.shape}")
    print(f"dtype:  {reader.dtype}")
    print(f"params: {reader.params}")
    meta = reader._meta  # header section table
    total = len(blob)
    for sec in meta["sections"]:
        share = 100.0 * sec["length"] / total
        print(f"  section {sec['name']:10s} {sec['length']:10d} bytes ({share:4.1f}%)")
    return 0


def _cmd_compress_plotfile(args) -> int:
    hierarchy = read_plotfile(args.input)
    fields = args.fields.split(",") if args.fields else None
    with WorkerPool(args.parallel, args.workers) as pool:
        container = compress_hierarchy(
            hierarchy, args.codec, args.eb, mode=args.mode, fields=fields,
            exclude_covered=args.exclude_covered, pool=pool,
        )
    out = args.output if args.output else Path(args.input).with_suffix(".rprh")
    Path(out).write_bytes(container.tobytes())
    print(
        f"{args.input} -> {out}: ratio {container.ratio:.2f}x over "
        f"{list(container.fields)} ({container.original_bytes} -> "
        f"{container.compressed_bytes} bytes)"
    )
    return 0


def _cmd_info_plotfile(args) -> int:
    container = read_container(args.input)
    print(f"codec:   {container.codec}")
    print(f"eb:      {container.error_bound:g} ({container.mode})")
    print(f"fields:  {list(container.fields)}")
    print(f"levels:  {container.n_levels}")
    print(f"ratio:   {container.ratio:.2f}x")
    lengths: dict[tuple[int, str], list[int]] = {}
    for e in container.entries:
        lengths.setdefault((e.level, e.field), []).append(e.length)
    for (lev_idx, field), sizes in sorted(lengths.items()):
        print(f"  level {lev_idx} {field}: {len(sizes)} patches, {sum(sizes)} bytes")
    return 0


def _cmd_inspect(args) -> int:
    from repro.door import open as open_any

    with open_any(args.input) as reader:
        if reader.kind == "campaign":
            print(f"RPHM sharded campaign ({reader.n_shards} shards)")
            for name in reader.shards:
                owned = [e.step for e in reader.step_entries
                         if reader.shard_of(e.step) == name]
                print(f"  {Path(name).name}: steps {owned}")
        elif reader.kind == "series":
            print("RPH2S time series")
        ratio = (
            reader.original_bytes / reader.compressed_bytes
            if reader.compressed_bytes
            else float("nan")
        )
        print(f"codec:    {reader.codec}")
        print(f"eb:       {reader.error_bound:g} ({reader.mode})")
        print(f"fields:   {list(reader.fields)}")
        if reader.kind == "snapshot":
            print(f"levels:   {reader.n_levels}")
            print(f"patches:  {len(reader.entries)}")
            print(f"payload:  {reader.compressed_bytes} bytes (ratio {ratio:.2f}x)")
            print(f"{'level':>5} {'field':>12} {'patch':>5} {'offset':>10} "
                  f"{'length':>10} {'codec':>10} {'crc32':>10}")
            for e in reader.entries:
                print(f"{e.level:>5} {e.field:>12} {e.patch:>5} {e.offset:>10} "
                      f"{e.length:>10} {e.codec:>10} {e.crc32:>10x}")
        else:
            print(f"steps:    {reader.n_steps}")
            print(f"payload:  {reader.compressed_bytes} bytes (ratio {ratio:.2f}x)")
            print(f"{'step':>5} {'time':>10} {'levels':>6} {'patches':>7} "
                  f"{'offset':>10} {'length':>10} {'ratio':>7}")
            for e in reader.step_entries:
                step_ratio = e.original_bytes / e.length if e.length else float("nan")
                print(f"{e.step:>5} {e.time:>10.4g} {e.n_levels:>6} {e.n_patches:>7} "
                      f"{e.offset:>10} {e.length:>10} {step_ratio:>6.2f}x")
    return 0


def _parse_int_list(spec: str | None, option: str) -> list[int] | None:
    """A comma-separated integer selector; anything else is a typed
    refusal naming ``option`` (one line and exit 2, not a traceback)."""
    if spec is None:
        return None
    try:
        return [int(s) for s in spec.split(",")]
    except ValueError:
        raise CompressionError(f"{option} takes comma-separated integers, got {spec!r}") from None


def _cmd_extract(args) -> int:
    # decompress_selection is repro.open + select: snapshot, series or campaign.
    with WorkerPool(args.parallel, args.workers) as pool:
        selected = decompress_selection(
            args.input,
            levels=_parse_int_list(args.level, "--level"),
            fields=args.field.split(",") if args.field else None,
            patches=_parse_int_list(args.patch, "--patch"),
            steps=_parse_int_list(args.step, "--step"),
            pool=pool,
        )
    if not selected:
        print("selection matched no patches", file=sys.stderr)
        return 1

    def tag(key) -> str:
        *step, l, field, p = key  # a series key leads with its step
        return "".join(f"step{s:05d}_" for s in step) + f"level{l}_{field}_patch{p:05d}"

    if len(selected) == 1 and not args.npz:
        ((key, data),) = selected.items()
        out = args.output if args.output else Path(args.input).with_suffix(".npy")
        np.save(out, data, allow_pickle=False)
        print(f"{args.input} -> {out}: {tag(key)}, shape {data.shape}")
    else:
        out = args.output if args.output else Path(args.input).with_suffix(".npz")
        arrays = {tag(key): data for key, data in selected.items()}
        np.savez(out, **arrays)
        print(f"{args.input} -> {out}: {len(arrays)} patches")
    return 0


def _cmd_recover(args) -> int:
    from repro.amr.io import recover_series

    if args.output is not None and not args.commit:
        print("recover: -o/--output has no effect without --commit",
              file=sys.stderr)
    # dry run: never modifies the file (-o on a sharded manifest is refused here)
    report = recover_series(args.input, output=args.output)
    print(report.describe())
    if report.intact:
        if args.commit and args.output is not None:
            recover_series(args.input, commit=True, output=args.output)
            print(f"copied intact series -> {args.output}")
        return 0
    if not report.steps:
        print("recover: no fully-sealed steps; refusing to commit an empty "
              "series", file=sys.stderr)
        return 1
    if args.commit:
        # All mutation goes through the library path (one code path for
        # the CLI and repro.amr.io.recover_series).
        recover_series(args.input, commit=True, output=args.output)
        target = args.output if args.output is not None else args.input
        print(f"committed: {target} now carries a fresh timestep index "
              f"({len(report.steps)} step(s))")
    else:
        print("dry run — pass --commit to truncate trailing garbage and "
              "append a fresh timestep index + footer")
    return 0


def _cmd_scrub(args) -> int:
    from repro.integrity import scrub

    report = scrub(args.input)  # read-only: never modifies the file
    print(report.describe())
    return 0 if report.clean else 1


def _cmd_repair(args) -> int:
    from repro.integrity import repair_sharded

    report = repair_sharded(args.input, commit=args.commit)
    print(report.describe())
    if report.unrecoverable:
        return 1
    if not args.commit and not report.clean:
        print("dry run — pass --commit to rewrite the damaged segments, "
              "shard indexes, and manifest from parity")
    return 0


def _cmd_serve(args) -> int:
    import asyncio

    from repro.serve import QueryServer, QueryService

    async def run() -> int:
        service = QueryService(
            args.input,
            recover=args.recover,
            cache_bytes=args.cache_bytes if args.cache_bytes > 0 else None,
        )
        try:
            server = QueryServer(
                service,
                host=args.host,
                port=args.port,
                idle_timeout=(
                    args.idle_timeout if args.idle_timeout > 0 else None
                ),
                max_connections=(
                    args.max_connections if args.max_connections > 0 else None
                ),
            )
            await server.start()
            host, port = server.address
            kind = "sharded campaign" if service.is_sharded else service.kind
            # Parsed by tests and tools to learn the bound port: keep the
            # "serving ... on host:port" shape stable.
            print(
                f"serving {args.input} ({kind}, {len(service.steps)} step(s), "
                f"fields {list(service.fields)}) on {host}:{port}",
                flush=True,
            )
            await server.serve_until_shutdown()
            print("shutdown requested; server stopped", flush=True)
            return 0
        except BaseException:
            service.close()
            raise

    try:
        return asyncio.run(run())
    except KeyboardInterrupt:
        print("interrupted; server stopped", file=sys.stderr)
        return 0


def _cmd_stream(args) -> int:
    from repro.insitu.writer import StreamingWriter

    if bool(args.inputs) == bool(args.sim):
        raise CompressionError("pass plotfile directories OR --sim, not both/neither")
    if args.shards < 1:
        raise CompressionError("--shards must be >= 1")
    fields = args.fields.split(",") if args.fields else None
    out = Path(args.output)

    def step_source():
        if args.inputs:
            # One plotfile in memory at a time: the streaming contract.
            for i, plt_dir in enumerate(args.inputs):
                yield read_plotfile(plt_dir), float(i), None
        else:
            from repro.sims.streams import nyx_step_stream, warpx_step_stream

            stream_fn = {"nyx": nyx_step_stream, "warpx": warpx_step_stream}[args.sim]
            for s in stream_fn(args.steps):
                yield s.hierarchy, s.time, s.index

    if args.shards > 1:
        from repro.insitu.sharded import ShardedSeriesWriter

        with ShardedSeriesWriter.create(
            out, args.codec, args.eb, mode=args.mode, n_shards=args.shards,
            fields=fields, exclude_covered=args.exclude_covered,
            overwrite=args.overwrite, durability=args.durability,
        ) as writer:
            for hierarchy, time, step in step_source():
                n = writer.append_step(hierarchy, time=time, step=step)
                print(f"  step {n} -> shard "
                      f"{Path(writer.shards[writer._route[n]]).name}")
            n_steps = writer.n_steps
        print(f"{out}: {n_steps} steps across {args.shards} shards")
        return 0
    with WorkerPool(args.parallel, args.workers) as pool, StreamingWriter.create(
        out, args.codec, args.eb, mode=args.mode, fields=fields,
        exclude_covered=args.exclude_covered, overwrite=args.overwrite,
        durability=args.durability, pool=pool,
    ) as writer:
        for hierarchy, time, step in step_source():
            entry = writer.append_step(hierarchy, time=time, step=step)
            print(f"  step {entry.step}: t={entry.time:g} -> {entry.length} bytes "
                  f"(ratio {entry.original_bytes / entry.length:.2f}x)")
        n_steps = writer.n_steps
    print(f"{out}: {n_steps} steps written")
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.compression",
        description="Error-bounded compression of .npy arrays and plotfiles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compress", help="compress a .npy array")
    p.add_argument("input", type=Path)
    p.add_argument("-o", "--output", type=Path, default=None)
    p.add_argument("--codec", choices=available_codecs(), default="sz-lr")
    p.add_argument("--eb", type=float, default=1e-3)
    p.add_argument("--mode", choices=("abs", "rel"), default="rel")
    p.set_defaults(fn=_cmd_compress)

    p = sub.add_parser("decompress", help="decompress a .rprc stream")
    p.add_argument("input", type=Path)
    p.add_argument("-o", "--output", type=Path, default=None)
    p.set_defaults(fn=_cmd_decompress)

    p = sub.add_parser("info", help="inspect a .rprc stream header")
    p.add_argument("input", type=Path)
    p.set_defaults(fn=_cmd_info)

    p = sub.add_parser("compress-plotfile", help="compress a plotfile directory")
    p.add_argument("input", type=Path)
    p.add_argument("-o", "--output", type=Path, default=None)
    p.add_argument("--codec", choices=available_codecs(), default="sz-lr")
    p.add_argument("--eb", type=float, default=1e-3)
    p.add_argument("--mode", choices=("abs", "rel"), default="rel")
    p.add_argument("--fields", default=None, help="comma-separated subset")
    p.add_argument("--exclude-covered", action="store_true")
    p.add_argument("--parallel", choices=EXECUTION_MODES, default="serial")
    p.add_argument("--workers", type=int, default=0, help=_WORKERS_HELP)
    p.set_defaults(fn=_cmd_compress_plotfile)

    p = sub.add_parser("info-plotfile", help="inspect a .rprh container")
    p.add_argument("input", type=Path)
    p.set_defaults(fn=_cmd_info_plotfile)

    p = sub.add_parser(
        "inspect", help="walk a .rprh container's patch index or a .rph2s timestep index"
    )
    p.add_argument("input", type=Path)
    p.set_defaults(fn=_cmd_inspect)

    p = sub.add_parser(
        "extract", help="selectively decode patches from a .rprh container or .rph2s series"
    )
    p.add_argument("input", type=Path)
    p.add_argument("-o", "--output", type=Path, default=None)
    p.add_argument("--step", default=None, help="comma-separated timesteps (series only)")
    p.add_argument("--level", default=None, help="comma-separated level indices")
    p.add_argument("--field", default=None, help="comma-separated field names")
    p.add_argument("--patch", default=None, help="comma-separated patch indices")
    p.add_argument("--npz", action="store_true", help="force .npz even for one patch")
    p.add_argument("--parallel", choices=EXECUTION_MODES, default="serial")
    p.add_argument("--workers", type=int, default=0, help=_WORKERS_HELP)
    p.set_defaults(fn=_cmd_extract)

    p = sub.add_parser(
        "stream",
        help="compress timesteps as produced (plotfile dirs or a synthetic sim) "
             "into an .rph2s series",
    )
    p.add_argument("inputs", type=Path, nargs="*", help="plotfile dirs, one per step")
    p.add_argument("-o", "--output", type=Path, required=True)
    p.add_argument("--sim", choices=("nyx", "warpx"), default=None,
                   help="stream a synthetic campaign instead of plotfiles")
    p.add_argument("--steps", type=int, default=8, help="synthetic campaign length")
    p.add_argument("--codec", choices=available_codecs(), default="sz-lr")
    p.add_argument("--eb", type=float, default=1e-3)
    p.add_argument("--mode", choices=("abs", "rel"), default="rel")
    p.add_argument("--fields", default=None, help="comma-separated subset")
    p.add_argument("--exclude-covered", action="store_true")
    p.add_argument("--overwrite", action="store_true")
    p.add_argument("--parallel", choices=EXECUTION_MODES, default="serial")
    p.add_argument("--workers", type=int, default=0, help=_WORKERS_HELP)
    p.add_argument(
        "--durability", choices=DURABILITY_MODES, default="close",
        help="fsync placement: 'step' makes every sealed step crash-durable, "
             "'close' (default) syncs the final index commit, 'none' never syncs",
    )
    p.add_argument(
        "--shards", type=int, default=1,
        help="fan the campaign across N shard files behind an RPHM manifest "
             "(steps assigned round-robin; -o names the manifest)",
    )
    p.set_defaults(fn=_cmd_stream)

    p = sub.add_parser(
        "serve",
        help="serve selective (step, level, field, patch) reads from a "
             ".rph2s series / RPHM campaign / .rprh snapshot over TCP "
             "(JSON-line protocol; see repro.serve.TCPClient)",
    )
    p.add_argument("input", type=Path)
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0,
                   help="0 (default) binds an ephemeral port; the bound "
                        "address is printed on stdout")
    p.add_argument("--cache-bytes", type=int, default=64 << 20,
                   help="LRU budget for decoded patches + catalogs "
                        "(default 64 MiB; 0 disables caching)")
    p.add_argument("--recover", action="store_true",
                   help="serve the fully-sealed steps of a crash-"
                        "interrupted series (read-only recovery scan)")
    p.add_argument("--idle-timeout", type=float, default=300.0,
                   help="drop a connection idle for this many seconds "
                        "between requests (default 300; 0 = never)")
    p.add_argument("--max-connections", type=int, default=0,
                   help="refuse connections over this cap with a typed "
                        "Overloaded reply (default 0 = unlimited)")
    p.set_defaults(fn=_cmd_serve)

    p = sub.add_parser(
        "recover",
        help="salvage an .rph2s series whose footer/index was lost to a "
             "killed writer (dry-run report; --commit rewrites the index)",
    )
    p.add_argument("input", type=Path)
    p.add_argument("--commit", action="store_true",
                   help="truncate trailing garbage and append a fresh "
                        "timestep index + footer")
    p.add_argument("-o", "--output", type=Path, default=None,
                   help="with --commit, write the repaired series here and "
                        "leave the damaged original untouched")
    p.set_defaults(fn=_cmd_recover)

    p = sub.add_parser(
        "scrub",
        help="verify every checksum an .rph2/.rph2s/.rphm/.rpxp file "
             "carries (snapshots, series, sharded campaigns, parity); "
             "exits 1 when damage is found",
    )
    p.add_argument("input", type=Path)
    p.set_defaults(fn=_cmd_scrub)

    p = sub.add_parser(
        "repair",
        help="reconstruct a parity-carrying campaign's damaged or missing "
             "shard segments from the surviving shards (dry-run report; "
             "--commit rewrites segments, indexes, and manifest)",
    )
    p.add_argument("input", type=Path)
    p.add_argument("--commit", action="store_true",
                   help="write the reconstructions back: rewrite damaged "
                        "shards in place, recommit their indexes, and "
                        "refresh the manifest and stale parity")
    p.set_defaults(fn=_cmd_repair)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ReproError, OSError) as exc:
        # The one error path: a junk, empty, missing or wrong-kind file is one
        # line and exit 2, never a traceback (OSError: the array commands' I/O).
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
