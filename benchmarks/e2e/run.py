"""End-to-end and per-layer benchmark of the repo (see README.md here).

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1

runs one workload in this process and prints, as the last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics of an untraced run (``--trace 0``) or the per-layer ledger of a
traced one (``--trace 1``). Without ``--workload`` every workload runs in
a subprocess of its own and one document with an ``env`` block is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import threading
from collections import defaultdict
from itertools import chain
from pathlib import Path
from statistics import median
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: Scratch space of the runs, inside the checkout and git-ignored.
WORK_ROOT = ROOT / ".bench_e2e_tmp"

END_TO_END = {
    "setup_s": "s",
    "op_latency_ms": "ms",
    "ops_per_s": "1/s",
    "raw_mb_per_s": "MB/s",
    "cpu_ms_per_op": "ms",
    "stored_bytes_per_raw_byte": "ratio",
    "rms_err_over_bound": "ratio",
    "peak_rss_mb": "MB",
}

#: Stages of ``SZLR.last_stage_times``, probed over a fixed patch sample.
PROBE_STAGES = ("blockify", "lorenzo", "regression", "select", "entropy", "pack")
PROBE_PATCHES = 32


#: Wall time of one ``reference_kernel()`` on the box the benchmark was
#: defined on (2 vCPUs of a Xeon @ 2.1 GHz) while its neighbours are quiet.
REFERENCE_MS = 1.3
#: The kernel runs between blocks for this share of the block's time.
REFERENCE_SHARE = 0.1

_REFERENCE_KEYS = {i: i for i in range(64)}


def reference_kernel() -> int:
    """About a millisecond of fixed, benchmark-owned interpreter work: the
    kind of work a warm query is made of. It calls nothing of ``repro``."""
    keys, total = _REFERENCE_KEYS, 0
    for i in range(40000):
        total += keys[i & 63]
    return total


def box_slowness(budget_s: float = 0.0) -> tuple[float, float]:
    """How much slower than the reference the box runs interpreter work
    right now (1.0 = reference speed), as ``(typical, mean)`` over eight
    calls of the reference kernel or as many as fit into ``budget_s``.
    Other tenants slow this box by up to 2x, in spells of 0.1 s to minutes:
    every call is slower then, and so is every query. When the process is
    descheduled, a few calls are much slower: the mean sees that, as a
    block's wall time does, and the median does not, as a block's median
    latency and its CPU time do not."""
    times, begun = [], perf_counter()
    while len(times) < 8 or perf_counter() - begun < budget_s:
        started = perf_counter()
        reference_kernel()
        times.append((perf_counter() - started) * 1e3 / REFERENCE_MS)
    return median(times), sum(times) / len(times)


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its suffix."""
    for suffix, unit in (("_ms", "ms"), ("_s", "s"), ("bytes", "B"), ("_share", "ratio"),
                         (".share", "ratio"), ("_frac", "ratio"), ("_rate", "ratio"),
                         ("coverage", "ratio"), ("_byte", "ratio"), ("ssim_min", "1")):
        if name.endswith(suffix):
            return unit
    return "count"


def percentile(samples: list[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(samples), q)) if samples else 0.0


def supported_percentile(n: int) -> float:
    """Highest of the usual percentiles with at least ten samples beyond it."""
    for q in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (100.0 - q) / 100.0 >= 10:
            return q
    return 50.0


# ----------------------------------------------------------------------
# Per-layer metrics of a traced run
# ----------------------------------------------------------------------
def probe_shares(workload) -> dict[str, float]:
    """Stage shares of the codec's encode over a fixed patch sample."""
    from repro.compression.sz_lr import SZLR
    from workloads import ERROR_BOUND, FIELD, MODE

    codec, totals = SZLR(), dict.fromkeys(PROBE_STAGES, 0.0)
    patches = workload.steps[0].hierarchy[1].patches(FIELD)[:PROBE_PATCHES]
    for patch in patches:
        codec.compress(patch.data, ERROR_BOUND, MODE)
        for stage, seconds in codec.last_stage_times.stages.items():
            totals[stage] += seconds
    total = sum(totals.values())
    return {f"compression.probe.{stage}_share": totals[stage] / total for stage in PROBE_STAGES}


def per_layer_metrics(workload, run_spans, setup_spans, traced_wall: float,
                      root_thread: int, traced_ops: int, overhead: float) -> dict[str, float]:
    import trace as e2e_trace

    ledger = e2e_trace.build_ledger(run_spans, traced_wall, root_thread)
    n = max(traced_ops, 1)
    name_of = {s.id: s.name for s in chain(run_spans, setup_spans)}

    def by_name(source):
        grouped = defaultdict(list)
        for s in source:
            grouped[s.name].append(s)
        return grouped

    run, setup = by_name(run_spans), by_name(setup_spans)

    def spans(source, *names, outermost=False):
        picked = [s for name in names for s in source.get(name, ())]
        if outermost:  # pack_ints calls compress_bytes: count the outer call only
            picked = [s for s in picked if name_of.get(s.parent) not in names]
        return picked

    def seconds(*names, source=run, per=n, outermost=False):
        return sum(s.end - s.start for s in spans(source, *names, outermost=outermost)) / per

    def calls(*names, source=run, per=n):
        return len(spans(source, *names)) / per

    def total(attr, *names):
        return sum(getattr(s, attr) for s in spans(run, *names)) / n

    extras = workload.extras
    m: dict[str, float] = {}
    for layer, row in ledger["layers"].items():
        m[f"{layer}.self_s"] = row["self_s"] / n
        m[f"{layer}.share"] = row["share"]
    m["ledger_coverage"] = ledger["coverage"]
    m["trace_overhead_frac"] = overhead

    m["sims.gen_s"] = seconds("nyx_hierarchy", source=setup, per=1)
    m["sims.steps"] = calls("nyx_hierarchy", source=setup, per=1)

    encode = ("SZLR.compress", "SZLR.compress_batch")
    m["compression.encode_s"] = seconds(*encode)
    m["compression.encode_calls"] = calls(*encode)
    m["compression.encode_raw_bytes"] = total("bytes_in", *encode)
    m["compression.encode_out_bytes"] = total("bytes_out", *encode)
    m["compression.decode_s"] = seconds("SZLR.decompress")
    m["compression.decode_calls"] = calls("SZLR.decompress")
    m["compression.decode_out_bytes"] = total("bytes_out", "SZLR.decompress")
    m["compression.load_p50_ms"] = median(workload.load_ms) if getattr(workload, "load_ms", None) else 0.0
    m.update(probe_shares(workload))

    m["entropy.encode_s"] = seconds("encode_codes", "encode_codes_batch")
    m["entropy.encode_symbols"] = total("bytes_in", "encode_codes", "encode_codes_batch")
    m["entropy.decode_s"] = seconds("decode_codes")
    m["entropy.decode_symbols"] = total("bytes_out", "decode_codes")
    m["entropy.codebook_builds"] = calls(
        "SharedCodebook.from_symbols", "SharedCodebook.from_symbols_with_inverse")

    m["lossless.deflate_s"] = seconds("compress_bytes", "pack_ints", outermost=True)
    m["lossless.deflate_bytes"] = total("bytes_in", "compress_bytes")
    m["lossless.inflate_s"] = seconds("decompress_bytes", "unpack_ints", outermost=True)
    m["lossless.inflate_bytes"] = total("bytes_out", "decompress_bytes")

    m["container.pack_s"] = seconds("pack_container", "pack_group", "build_index_bytes")
    m["container.open_s"] = seconds("ContainerReader")
    m["container.index_bytes"] = total("bytes_out", "build_index_bytes")

    m["insitu.append_block_s"] = seconds("ShardedSeriesWriter.append_step")
    m["insitu.close_s"] = seconds("ShardedSeriesWriter.close")
    m["insitu.fsync_s"] = seconds("os.fsync")
    m["insitu.fsync_calls"] = calls("os.fsync")
    m["insitu.open_s"] = seconds("SeriesReader.open", source=setup, per=1, outermost=True)
    m["insitu.retries"] = calls("StreamingWriter.rollback_step")

    m["storage.write_s"] = seconds("write")
    m["storage.write_bytes"] = total("bytes_in", "write")
    m["storage.write_calls"] = calls("write")
    m["storage.read_s"] = seconds("read")
    m["storage.read_bytes"] = total("bytes_out", "read")
    m["storage.read_calls"] = calls("read")

    m["integrity.parity_s"] = seconds("build_parity")
    m["integrity.parity_bytes"] = total("bytes_out", "build_parity")
    m["integrity.scrub_s"] = seconds("scrub")
    m["integrity.scrub_bytes"] = total("bytes_out", "scrub")
    m["integrity.findings"] = extras.get("findings", 0.0)

    m["parallel.tasks"] = calls("WorkerPool.task")
    m["parallel.busy_s"] = seconds("WorkerPool.task")
    m["parallel.queue_wait_s"] = ledger["wait_s"].get("WorkerPool.queue", 0.0) / n
    m["parallel.result_wait_s"] = ledger["wait_s"].get("Future.result", 0.0) / n

    lookups = extras.get("cache_hits", 0.0) + extras.get("cache_misses", 0.0)
    query_ms = [(s.end - s.start) * 1e3 for s in spans(run, "QueryService.query_info")]
    m["serve.plan_s"] = seconds("plan_step", "coalesce_extents", outermost=True)
    m["serve.cache_hit_rate"] = extras.get("cache_hits", 0.0) / lookups if lookups else 0.0
    m["serve.cache_evictions"] = extras.get("cache_evictions", 0.0) / n
    m["serve.fetched_bytes_per_extent_byte"] = (
        extras["payload_bytes"] / extras["extent_bytes"] if extras.get("extent_bytes") else 0.0)
    m["serve.ranged_reads"] = extras.get("ranged_reads", 0.0) / n
    m["serve.meta_bytes"] = extras.get("meta_bytes", 0.0) / n
    m["serve.shed"] = extras.get("shed", 0.0)
    m["serve.first_query_ms"] = getattr(workload, "first_query_ms", 0.0)
    m["serve.query_p95_ms"] = percentile(query_ms, 95)
    m["serve.query_p99_ms"] = percentile(query_ms, 99)

    isosurface = ("resampling_isosurface", "dual_cell_isosurface")
    m["viz.isosurface_s"] = seconds(*isosurface)
    m["viz.render_s"] = seconds("render_mesh")
    m["viz.faces"] = total("bytes_out", *isosurface)
    m["metrics.ssim_s"] = seconds("ssim")
    m["metrics.bound_check_s"] = seconds("verify_error_bound")
    m["metrics.image_ssim_min"] = extras.get("image_ssim_min", 0.0)
    return m


def isolation_checks(name: str, m: dict[str, float]) -> list[bool]:
    """Each workload bypasses the layers it claims to bypass (a layer that
    recorded no span has no self time)."""
    checks = []
    if name != "posthoc_viz":
        checks.append(m["viz.self_s"] == 0)
    if name in ("campaign_write", "posthoc_viz"):
        checks.append(m["serve.self_s"] == 0)
    if name == "serve_hot":
        checks += [m["compression.decode_calls"] == 0, m["storage.read_bytes"] == 0,
                   m["serve.cache_hit_rate"] == 1.0]
    if name == "serve_cold":
        checks.append(m["serve.cache_hit_rate"] < 0.2)
    return checks


# ----------------------------------------------------------------------
# One workload, in this process
# ----------------------------------------------------------------------
def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 scale: str = "full", spans_path: str | None = None) -> dict:
    """Set up, warm, measure for ``seconds``, verify; returns the result
    object of the contract plus an ``info`` block (sample counts)."""
    import trace as e2e_trace
    from workloads import SCALES, WORKLOADS

    sizes = SCALES[scale]
    tracer = e2e_trace.Tracer() if trace else None
    backend = e2e_trace.TracingBackend(tracer)
    WORK_ROOT.mkdir(exist_ok=True)
    # The same path on every run where possible: file names are part of the
    # service's cache keys, and their hashes decide its dicts' layout.
    workdir = WORK_ROOT / name
    try:
        workdir.mkdir()
    except FileExistsError:  # another run of this workload is in flight
        workdir = Path(tempfile.mkdtemp(prefix=f"{name}_", dir=WORK_ROOT))
    workload = None
    try:
        # Set-up, repeated so that setup_s is a median; the last one is kept
        # (and, in a traced run, is the traced one).
        reps = 1 if trace else sizes.setup_reps
        setup_times, setup_spans = [], []
        for rep in range(reps):
            if workload is not None:
                workload.close()
                shutil.rmtree(workload.workdir)
            rep_dir = workdir / f"setup_{rep}"
            rep_dir.mkdir()
            workload = WORKLOADS[name](seed, sizes, rep_dir, backend)
            t0 = perf_counter()
            if tracer is not None:
                with tracer:
                    workload.setup()
                setup_spans = tracer.drain()
            else:
                workload.setup()
            setup_times.append(perf_counter() - t0)

        warmup = workload.warmup_blocks
        for index in range(warmup):
            workload.block(index, False)

        # Measure. An untraced run reads the box's slowness between blocks;
        # a traced run follows every untraced block with its traced twin
        # (same inputs), so the cost of tracing is read off one process.
        plain, slowness, traced, run_spans = [], [], [], []
        reading = box_slowness()
        started = perf_counter()
        while perf_counter() - started < seconds or not plain:
            index = warmup + len(plain)
            plain.append(workload.block(index, False))
            if tracer is None:
                before, reading = reading, box_slowness(REFERENCE_SHARE * plain[-1].wall_s)
                slowness.append(tuple((a + b) / 2 for a, b in zip(before, reading)))
            else:
                with tracer:
                    traced.append(workload.block(index, True))
                run_spans += tracer.drain()
        workload.verify()

        attempted, failed = workload.attempted, workload.failed
        blocks = traced if trace else plain
        n_ops = sum(b.ops for b in blocks)
        if trace:
            traced_wall = sum(b.wall_s for b in traced)
            # twins are neighbours in time, so their ratio survives a slow spell
            overhead = median(t.wall_s / p.wall_s for p, t in zip(plain, traced)) - 1.0
            metrics = per_layer_metrics(workload, run_spans, setup_spans, traced_wall,
                                        threading.get_ident(), n_ops, overhead)
            checks = isolation_checks(name, metrics) + [tracer.restored()]
            attempted += len(checks)
            failed += checks.count(False)
            if spans_path:
                e2e_trace.write_spans(spans_path, setup_spans + run_spans)
            units = {key: unit_of(key) for key in metrics}
        else:
            # Every block's times are divided by the box's slowness around
            # it; the run reports the median over its blocks.
            scaled = [(b, typical, mean) for b, (typical, mean) in zip(blocks, slowness)]
            metrics = {
                "setup_s": median(setup_times),
                "op_latency_ms": median(b.latency_ms / typical for b, typical, _ in scaled),
                "ops_per_s": median(b.ops / b.wall_s * mean for b, _, mean in scaled),
                "raw_mb_per_s": median(b.raw_bytes / b.wall_s * mean for b, _, mean in scaled) / 1e6,
                "cpu_ms_per_op": median(b.cpu_s / b.ops / typical for b, typical, _ in scaled) * 1e3,
                "stored_bytes_per_raw_byte": workload.stored_bytes / workload.raw_bytes,
                "rms_err_over_bound": workload.rms_err_over_bound,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            }
            units = END_TO_END
    finally:
        if workload is not None:
            workload.close()
        shutil.rmtree(workdir, ignore_errors=True)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
        "info": {"workload": name, "seed": seed, "scale": scale, "trace": int(trace),
                 "blocks": len(blocks), "operations": n_ops,
                 "supported_percentile": supported_percentile(n_ops),
                 # per block, in time order: latency as timed, and how slow the box
                 # was around it (typical; empty in a traced run)
                 "block_latency_ms": [b.latency_ms for b in blocks],
                 "block_slowness": [typical for typical, _ in slowness]},
    }


# ----------------------------------------------------------------------
# Command line
# ----------------------------------------------------------------------
#: The environment of a benchmark process.
PINNED_ENV = {
    # One worker thread per BLAS call: the benchmark owns the parallelism.
    "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
    # str hashes differ from process to process, and with them the probe
    # sequences of the service's dicts: serve_hot's median moved between
    # 45 and 75 us on that alone.
    "PYTHONHASHSEED": "0",
    # glibc keeps freed memory instead of returning it to the kernel. Left
    # alone, every large NumPy temporary is mapped, faulted in and unmapped
    # again (30 000 page faults per posthoc_viz frame pair), and on this
    # box the faults of one frame in five cost 1.4 s of system time.
    "MALLOC_MMAP_THRESHOLD_": str(32 << 20), "MALLOC_TRIM_THRESHOLD_": str(16 << 30),
    "MALLOC_TOP_PAD_": str(256 << 20),
}


def environment() -> dict:
    import numpy

    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": model or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_1m": os.getloadavg()[0],
    }


def parse_args(from_spec: dict, argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in from_spec["workloads"]],
                        help="run this workload here; default: all, one subprocess each")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(from_spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--out", help="also write the JSON document to this file")
    parser.add_argument("--spans", help="traced run: dump the spans here as JSON lines")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = parse_args(spec, argv)
    env = dict(environment(), seed=args.seed, scale=args.scale)
    if args.workload:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                              args.scale, args.spans)
        info = result.pop("info")
        runs = [dict(info, **result)]
        print(json.dumps({"env": env, "info": info}))
        print(json.dumps(result))
    else:
        runs = []
        for workload in spec["workloads"]:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload["name"],
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace), "--scale", args.scale],
                stdout=subprocess.PIPE, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            if len(lines) < 2:
                print(f"{workload['name']}: no result (exit {proc.returncode})", file=sys.stderr)
                return 1
            runs.append(dict(json.loads(lines[-2])["info"], **json.loads(lines[-1])))
        print(json.dumps({"env": env, "runs": runs}, indent=1))
    if args.out:
        Path(args.out).write_text(json.dumps({"env": env, "runs": runs}, indent=1))
    return 1 if any(run["failed"] for run in runs) else 0


if __name__ == "__main__":
    # Read at start-up, hence the re-exec; a value already set is kept.
    missing = {key: value for key, value in PINNED_ENV.items() if key not in os.environ}
    if missing:
        os.environ.update(missing)
        os.execv(sys.executable, [sys.executable, *sys.argv])
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main())
