"""The four workloads of the end-to-end benchmark.

Every workload has the same shape: ``setup`` builds its fixtures from the
seed, ``block`` runs one fixed batch of closed-loop operations and times
each, ``verify`` checks outputs outside the timed region. ``run.py``
repeats ``block`` until the run's seconds are used and reduces the samples
to medians.

Library calls go through module attributes (``viz.render_mesh``, not a
``from`` import), so the tracer's rebinding of ``repro.*`` globals is what
these calls see.
"""

from __future__ import annotations

import asyncio
import random
import shutil
from dataclasses import dataclass
from pathlib import Path
from statistics import mean, median
from time import perf_counter, process_time

import numpy as np

from repro import integrity, metrics, viz
from repro.amr import AMRHierarchy, AMRLevel, Patch
from repro.amr import io as amr_io
from repro.compression import amr_codec
from repro.compression.base import Compressor
from repro.compression.container import ContainerReader
from repro.errors import ReproError
from repro.serve import QueryService
from repro.sims import NyxConfig, nyx_step_stream
from repro.sims.nyx import NYX_FIELDS

import trace as e2e_trace

CODEC = "sz-lr"
ERROR_BOUND = 1e-3
MODE = "rel"
#: The field the viewer looks at, and the repo's Nyx iso value.
FIELD = "baryon_density"
ISO = 2.0
VIEW_AXIS = 2
#: Every CHECK_EVERY-th reply of the serve workloads is compared byte for
#: byte with a direct ``decompress_selection``.
CHECK_EVERY = 25


@dataclass(frozen=True)
class Scale:
    """Sizes of one benchmark scale."""

    coarse_n: int      # NyxConfig.coarse_n; the fine level is (2 * coarse_n)^3
    steps: int         # timesteps per campaign
    snapshots: int     # snapshots the viewer steps through
    image: int         # rendered image is image x image pixels
    hot_queries: int   # queries per serve_hot block; 0.1 s at full scale, because the box's
    #                    slowness is read at a block's two ends and changes within 0.1 s
    hot_patches: int   # a serve_hot query asks for patches 0..hot_patches-1 of both levels
    cold_cache: int    # serve_cold cache budget, bytes
    setup_reps: int    # set-up repetitions behind setup_s


SCALES = {
    # 64^3 fine level, 6.9 MB raw per step over the six Nyx fields.
    "full": Scale(coarse_n=32, steps=2, snapshots=1, image=256,
                  hot_queries=2500, hot_patches=32, cold_cache=1 << 20, setup_reps=3),
    "smoke": Scale(coarse_n=8, steps=2, snapshots=2, image=48,
                   hot_queries=100, hot_patches=4, cold_cache=16 << 10, setup_reps=1),
}


@dataclass
class Block:
    """Samples of one batch of operations."""

    ops: int           # operations completed
    latency_ms: float  # of one operation: the median over the block's operations
    #                    when they are alike, the mean when the block is a fixed
    #                    set of unlike ones (a viewer's cycle, a query mix)
    raw_bytes: int     # uncompressed bytes taken from or handed to the user
    wall_s: float
    cpu_s: float


def error_over_bound(original: np.ndarray, decoded: np.ndarray) -> np.ndarray:
    """Point-wise error of ``decoded`` as a share of the patch's bound."""
    bound = Compressor.resolve_error_bound(original, ERROR_BOUND, MODE)
    return np.abs(original - decoded.reshape(original.shape)).ravel() / bound


def _tree_bytes(directory: Path) -> int:
    return sum(p.stat().st_size for p in directory.iterdir() if p.is_file())


class Workload:
    """Base: counters, the seeded step stream, and the bound check."""

    name = ""
    why = ""
    #: Untimed blocks run before measuring starts.
    warmup_blocks = 1

    def __init__(self, seed: int, scale: Scale, workdir: Path,
                 backend: e2e_trace.TracingBackend):
        self.seed = seed
        self.scale = scale
        self.workdir = workdir
        self.backend = backend
        self.attempted = 0
        self.failed = 0
        self.raw_bytes = 0       # raw size of the workload's dataset
        self.stored_bytes = 0    # what it occupies on storage
        self.rms_err_over_bound = 0.0
        self.ops = 0
        #: Counters of the traced blocks that spans cannot supply.
        self.extras: dict[str, float] = {}
        self.steps: list = []

    # -- fixtures -------------------------------------------------------
    def generate_steps(self, n_steps: int) -> None:
        """The campaign's steps: the library's default Nyx realisation, taken
        at two growth factors the seed picks (late in the run, where
        structure has formed). Data and box layout differ from seed to seed;
        a new realisation per seed would also swing the patch count, and
        with it every timing, by +-15 %."""
        rng = random.Random(f"{self.seed}/steps")
        growth_range = tuple(sorted(rng.uniform(0.9, 1.0) for _ in range(2)))
        cfg = NyxConfig(coarse_n=self.scale.coarse_n)
        self.steps = list(nyx_step_stream(n_steps, cfg, growth_range=growth_range))
        self.raw_bytes = sum(s.hierarchy.nbytes() for s in self.steps)

    def write_campaign(self, directory: Path, parallel: str, durability: str) -> Path:
        """The benchmark's campaign: 2 shards + 1 parity shard."""
        directory.mkdir()
        manifest = directory / "campaign.rphm"
        amr_io.write_sharded_series(
            manifest, self.steps, codec=CODEC, error_bound=ERROR_BOUND, mode=MODE,
            n_shards=2, parity=1, durability=durability, parallel=parallel,
            backend=self.backend,
        )
        return manifest

    def begin_op(self, traced: bool) -> None:
        self.ops += 1
        if traced:
            e2e_trace.OP.set(self.ops)

    def add(self, key: str, value: float) -> None:
        self.extras[key] = self.extras.get(key, 0.0) + value

    # -- checks ---------------------------------------------------------
    def check(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok

    def check_bounds(self, step_index: int, decoded: dict, fields=NYX_FIELDS) -> None:
        """One check: every decoded patch of the step is within its bound.
        ``decoded`` is keyed ``(level, field, patch)``."""
        errors = np.concatenate([
            error_over_bound(patch.data, decoded[(lev_idx, name, p_idx)])
            for lev_idx, level in enumerate(self.steps[step_index].hierarchy)
            for name in fields
            for p_idx, patch in enumerate(level.patches(name))
        ])
        # the worst step checked is the one reported
        self.rms_err_over_bound = max(self.rms_err_over_bound,
                                      float(np.sqrt(np.mean(errors ** 2))))
        self.check(errors.max() <= 1.0 + 1e-9)

    # -- protocol -------------------------------------------------------
    def setup(self) -> None:
        raise NotImplementedError

    def block(self, index: int, traced: bool) -> Block:
        """Run block number ``index``. Its inputs depend on the seed and
        the index only, so a traced block and its untraced twin (same
        index) do the same work."""
        raise NotImplementedError

    def verify(self) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Release what set-up opened; the runner removes the files."""


class CampaignWrite(Workload):
    name = "campaign_write"
    why = ("in-situ write path: codec encode, entropy, framing, seal+fsync, parity and "
           "storage writes do all the work; serve and viz do none")
    # the threaded writer settles into its steady (slower) state only after
    # about two seconds of work
    warmup_blocks = 2

    def setup(self) -> None:
        self.generate_steps(self.scale.steps)
        self.kept: Path | None = None

    def block(self, index: int, traced: bool) -> Block:
        self.begin_op(traced)
        directory = self.workdir / f"campaign_{self.ops}"
        cpu0, t0 = process_time(), perf_counter()
        try:
            manifest = self.write_campaign(directory, parallel="thread", durability="step")
            report = integrity.scrub(manifest, backend=self.backend)
            ok = report.clean
        except ReproError:
            ok, report = False, None
        wall, cpu = perf_counter() - t0, process_time() - cpu0
        self.check(ok)
        if traced and report is not None:
            self.add("findings", len(report.findings))
        self.stored_bytes = _tree_bytes(directory)
        if self.kept is not None:
            shutil.rmtree(self.kept)
        self.kept = directory
        return Block(1, wall * 1e3, self.raw_bytes, wall, cpu)

    def verify(self) -> None:
        last = len(self.steps) - 1
        decoded = amr_codec.decompress_selection(
            self.kept / "campaign.rphm", steps=self.steps[last].index)
        self.check_bounds(last, {key[1:]: arr for key, arr in decoded.items()})


def _domain_bounds(hierarchy: AMRHierarchy):
    dx0 = np.asarray(hierarchy[0].dx)
    lo = np.asarray(hierarchy.domain.lo, dtype=np.float64) * dx0
    hi = (np.asarray(hierarchy.domain.hi, dtype=np.float64) + 1.0) * dx0
    return lo, hi


class PosthocViz(Workload):
    name = "posthoc_viz"
    why = ("the paper's experiment: selective decode of level-batched snapshots, iso-surface, "
           "render, SSIM; viz and metrics dominate, serve, insitu and integrity do nothing")
    METHODS = ("resampling", "dual+redundant")

    def setup(self) -> None:
        self.generate_steps(self.scale.snapshots)
        directory = self.workdir / "snapshots"
        directory.mkdir()
        self.paths, self.references, self.bounds = [], [], []
        for step in self.steps:
            hierarchy = step.hierarchy
            container = amr_codec.compress_hierarchy(
                hierarchy, CODEC, ERROR_BOUND, mode=MODE, batch="level")
            self.paths.append(
                amr_io.write_container(directory / f"step_{step.index}.rph2", container))
            self.references.append({m: self._image(hierarchy, m) for m in self.METHODS})
            self.bounds.append([
                [Compressor.resolve_error_bound(p.data, ERROR_BOUND, MODE)
                 for p in level.patches(FIELD)]
                for level in hierarchy
            ])
        self.stored_bytes = _tree_bytes(directory)
        self.field_bytes = [s.hierarchy.nbytes(FIELD) for s in self.steps]
        self.load_ms: list[float] = []  # time to data of the traced frames

    def _image(self, hierarchy: AMRHierarchy, method: str) -> np.ndarray:
        if method == "resampling":
            surface = viz.resampling_isosurface(hierarchy, FIELD, ISO)
        else:
            surface = viz.dual_cell_isosurface(hierarchy, FIELD, ISO, gap_fix="redundant")
        size = (self.scale.image, self.scale.image)
        return viz.render_mesh(surface.merged, axis=VIEW_AXIS, size=size,
                               bounds=_domain_bounds(hierarchy))

    def _load(self, step_index: int) -> tuple[dict, AMRHierarchy]:
        """Time to data: open the snapshot, decode the viewer's field, and
        put it back on the step's box structure."""
        with ContainerReader.open(self.paths[step_index], backend=self.backend) as reader:
            decoded = amr_codec.decompress_selection(reader, fields=[FIELD])
        template = self.steps[step_index].hierarchy
        levels = []
        for lev_idx, level in enumerate(template):
            restored = AMRLevel(level.index, level.boxes, level.dx)
            restored.add_field(FIELD, [
                Patch(box, decoded[(lev_idx, FIELD, p_idx)].reshape(box.shape))
                for p_idx, box in enumerate(level.boxes)
            ])
            levels.append(restored)
        return decoded, AMRHierarchy(template.domain, levels, template.ref_ratios)

    def _frame(self, step_index: int, method: str, traced: bool) -> float:
        self.begin_op(traced)
        t0 = perf_counter()
        try:
            decoded, hierarchy = self._load(step_index)
            t_loaded = perf_counter()
            image = self._image(hierarchy, method)
            score = metrics.ssim(self.references[step_index][method], image, data_range=1.0)
            ok = all(
                metrics.verify_error_bound(patch.data, decoded[(lev_idx, FIELD, p_idx)], bound)
                for lev_idx, level in enumerate(self.steps[step_index].hierarchy)
                for p_idx, (patch, bound) in enumerate(
                    zip(level.patches(FIELD), self.bounds[step_index][lev_idx]))
            )
        except ReproError:
            ok, score, t_loaded = False, 0.0, perf_counter()
        wall = perf_counter() - t0
        self.check(ok)
        if traced:
            self.load_ms.append((t_loaded - t0) * 1e3)
            self.extras["image_ssim_min"] = min(self.extras.get("image_ssim_min", 1.0), score)
        return wall * 1e3

    def block(self, index: int, traced: bool) -> Block:
        """One cycle: every snapshot with both methods. Frames of different
        snapshots and methods cost different amounts, so the block's latency
        is the cycle's mean frame."""
        cpu0, t0 = process_time(), perf_counter()
        frame_ms = [self._frame(i, m, traced)
                    for i in range(len(self.steps)) for m in self.METHODS]
        wall, cpu = perf_counter() - t0, process_time() - cpu0
        raw = len(self.METHODS) * sum(self.field_bytes)
        return Block(len(frame_ms), mean(frame_ms), raw, wall, cpu)

    def verify(self) -> None:
        for i in range(len(self.steps)):
            decoded, _ = self._load(i)
            self.check_bounds(i, decoded, fields=(FIELD,))


class _Serve(Workload):
    """Shared by the two serve workloads: the campaign fixture, the
    in-process service on a private event loop, and the reply check."""

    cache_bytes: int | None = None

    def setup(self) -> None:
        self.generate_steps(self.scale.steps)
        directory = self.workdir / "fixture"
        self.manifest = self.write_campaign(directory, parallel="serial", durability="close")
        self.stored_bytes = _tree_bytes(directory)
        self.loop = asyncio.new_event_loop()
        self.service = QueryService(self.manifest, backend=self.backend, workers=2,
                                    cache_bytes=self.cache_bytes)
        t0 = perf_counter()
        self.loop.run_until_complete(
            self.service.query_info(steps=self.steps[0].index, levels=0, fields=FIELD))
        self.first_query_ms = (perf_counter() - t0) * 1e3
        self.replies: list[tuple[dict, dict]] = []  # (selectors, arrays) to check

    def close(self) -> None:
        if hasattr(self, "service"):
            self.service.close()
            self.loop.close()

    def run_clients(self, traced: bool, *clients) -> tuple[float, float]:
        """Run the client coroutines to completion; ``(wall, cpu)``. In a
        traced block the service's own counters are added to the extras."""
        before = self.service.stats
        cpu0, t0 = process_time(), perf_counter()

        async def run_all():
            await asyncio.gather(*clients)

        self.loop.run_until_complete(run_all())
        wall, cpu = perf_counter() - t0, process_time() - cpu0
        if traced:
            after = self.service.stats
            for key in ("cache_hits", "cache_misses", "extent_bytes", "payload_bytes",
                        "meta_bytes", "ranged_reads", "shed"):
                self.add(key, after[key] - before[key])
            self.add("cache_evictions",
                     after["cache"]["evictions"] - before["cache"]["evictions"])
        return wall, cpu

    def verify(self) -> None:
        """Byte identity of the kept replies with a direct decode, and the
        bound of the viewer's field on every step (the same steps whatever
        replies were kept, so the error metric is exact for a seed)."""
        direct: dict[tuple, dict] = {}

        def decode(step: int, name: str) -> dict:
            if (step, name) not in direct:
                direct[(step, name)] = amr_codec.decompress_selection(
                    self.manifest, steps=step, fields=name)
            return direct[(step, name)]

        seen: dict[int, np.ndarray] = {}  # arrays already compared (the cache shares them)
        for sel, arrays in self.replies:
            reference = decode(sel["steps"], sel["fields"])
            region = sel.get("region")
            cut = tuple(slice(lo, hi) for lo, hi in region) if region else ...
            ok = True
            for key, arr in arrays.items():
                if id(arr) not in seen:
                    seen[id(arr)] = arr
                    ok = ok and arr.tobytes() == reference[key][cut].tobytes()
            self.check(ok)
        for position, step in enumerate(self.steps):
            decoded = decode(step.index, FIELD)
            self.check_bounds(position, {key[1:]: arr for key, arr in decoded.items()},
                              fields=(FIELD,))


class ServeCold(_Serve):
    name = "serve_cold"
    why = ("working set far larger than the cache: planner, ranged fetch and per-patch decode "
           "dominate; the read-side use of storage, container and compression")
    CLIENTS = 2

    def setup(self) -> None:
        self.cache_bytes = self.scale.cold_cache
        super().setup()

    def _mix(self, rng: random.Random) -> list[dict]:
        """One block's queries, 75 % level-1 regions and 25 % whole level-0
        patches, in seeded order. Every (step, field) is asked for once at
        level 1, so blocks do the same amount of work and differ only in
        regions, order and the level-0 picks — a purely random mix made the
        blocks themselves differ by more than the bound."""
        pairs = [(s.index, name) for s in self.steps for name in NYX_FIELDS]
        queries = [
            {"steps": step, "fields": name, "levels": 1, "region": tuple(
                (lo, lo + rng.randint(16, 32)) for lo in (rng.randint(0, 3) for _ in range(3)))}
            for step, name in pairs
        ]
        for step, name in rng.sample(pairs, len(pairs) // 3):
            queries.append({"steps": step, "fields": name, "levels": 0})
        rng.shuffle(queries)
        return queries

    def block(self, index: int, traced: bool) -> Block:
        rng = random.Random(f"{self.seed}/{index}")
        op_ms: list[float] = []
        raw = 0

        async def client(queries: list[dict]) -> None:
            nonlocal raw
            for sel in queries:
                self.begin_op(traced)
                n = self.ops  # the other client moves self.ops during the await
                t0 = perf_counter()
                try:
                    arrays, _ = await self.service.query_info(**sel)
                except ReproError:
                    self.check(False)
                    continue
                op_ms.append((perf_counter() - t0) * 1e3)
                self.check(True)
                raw += sum(arr.nbytes for arr in arrays.values())
                if n % CHECK_EVERY == 0:
                    self.replies.append((sel, arrays))

        queries = self._mix(rng)
        wall, cpu = self.run_clients(
            traced, *(client(queries[c::self.CLIENTS]) for c in range(self.CLIENTS)))
        return Block(len(op_ms), mean(op_ms), raw, wall, cpu)


class ServeHot(_Serve):
    name = "serve_hot"
    why = ("working set fits the cache: zero backend bytes and zero decodes, so only the "
           "service's own bookkeeping is on the path; decode or storage work must not move it")
    cache_bytes = 64 << 20  # the service default
    ZIPF = 1.1

    def setup(self) -> None:
        super().setup()
        self.population = [(s.index, name) for s in self.steps for name in NYX_FIELDS[:3]]
        ranks = np.arange(1, len(self.population) + 1, dtype=np.float64)
        self.weights = ranks ** -self.ZIPF / np.sum(ranks ** -self.ZIPF)
        # The same number of patches whatever the seed's box layout is, so
        # that every query, and every seed, has the same shape.
        self.patches = tuple(range(self.scale.hot_patches))
        # pre-warm: after this no query leaves the cache
        self.reply_bytes = []
        for index, name in self.population:
            arrays, _ = self.loop.run_until_complete(
                self.service.query_info(steps=index, fields=name, patches=self.patches))
            self.reply_bytes.append(sum(arr.nbytes for arr in arrays.values()))

    def block(self, index: int, traced: bool) -> Block:
        rng = np.random.default_rng([self.seed, index])
        picks = rng.choice(len(self.population), size=self.scale.hot_queries, p=self.weights)
        op_s: list[float] = []

        async def client() -> None:
            # the loop's own work is kept small against a query of tens of us
            query_info, population, set_op = self.service.query_info, self.population, e2e_trace.OP.set
            patches, n = self.patches, self.ops
            for pick in picks.tolist():
                n += 1
                if traced:
                    set_op(n)
                step, name = population[pick]
                t0 = perf_counter()
                try:
                    arrays, _ = await query_info(steps=step, fields=name, patches=patches)
                except ReproError:
                    self.failed += 1
                    continue
                op_s.append(perf_counter() - t0)
                if n % CHECK_EVERY == 0:
                    self.replies.append(({"steps": step, "fields": name}, arrays))  # direct decode: all patches
            self.ops = n

        wall, cpu = self.run_clients(traced, client())
        self.attempted += len(picks)
        raw = int(np.bincount(picks, minlength=len(self.population)) @ self.reply_bytes)
        return Block(len(op_s), median(op_s) * 1e3, raw, wall, cpu)


WORKLOADS = {cls.name: cls for cls in (CampaignWrite, PosthocViz, ServeCold, ServeHot)}
