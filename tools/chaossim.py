#!/usr/bin/env python
"""Deterministic chaos matrix for the serving stack.

``crashsim.py`` proves the *write* path's durability contract by killing
writers; this tool proves the *serve* path's resilience contract by
breaking the storage and decode layers underneath a live
:class:`~repro.serve.QueryService` with seeded
:class:`~repro.faults.FaultPlan` schedules, and holding every outcome to
a single oracle:

    Every query either returns bytes **identical** to a direct
    ``decompress_selection`` of the same selection, raises a **typed**
    ``ReproError`` (``DeadlineExceeded`` / ``Overloaded`` /
    ``StorageError`` / ``ServeError`` / ``FormatError``), or — with
    ``partial=True`` — returns a **well-formed partial**: every served
    patch bit-exact, every absent patch accounted for in ``missing``.
    Nothing may hang, leak a raw exception, or return wrong bytes. And
    once the fault schedule clears, the very next query must be exact —
    no fault may poison the cache, the single-flight table, or the
    admission gate.

The matrix sweeps that oracle across scenario classes:

==================== =========================================================
scenario             what it breaks
==================== =========================================================
clean                nothing (the oracle's control arm)
flake                every GET's first attempt (retries must hide it)
outage-window        the first k GETs fail hard, then the backend recovers
probability          each GET fails with seeded probability p
shard-outage         one shard's GETs all fail; non-partial queries must
                     fail typed, ``partial=True`` must serve around it
deadline             injected GET latency against a short ``timeout=``
decode-crash         a decode task dies with a raw ``RuntimeError``
                     (must surface as ``ServeError``, then recover)
overload             6 concurrent queries against a 1-slot admission gate
breaker              a dead shard trips its circuit breaker (fast-fails
                     must be typed; cooldown must readmit probes)
==================== =========================================================

Every schedule is seeded — two runs with the same ``--seed`` inject the
same faults at the same calls. Exit status is non-zero on any oracle
violation.

Usage::

    PYTHONPATH=src python tools/chaossim.py              # full matrix
    PYTHONPATH=src python tools/chaossim.py --quick      # CI subset
    PYTHONPATH=src python tools/chaossim.py --seed 7 -v
"""

from __future__ import annotations

import argparse
import asyncio
import sys
import tempfile
import time
from pathlib import Path

# Allow running straight from a checkout without PYTHONPATH.
_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.amr.io import write_series, write_sharded_series  # noqa: E402
from repro.compression.amr_codec import decompress_selection  # noqa: E402
from repro.errors import (  # noqa: E402
    DeadlineExceeded,
    FormatError,
    Overloaded,
    ReproError,
    ServeError,
    StorageError,
)
from repro.faults import FaultPlan, FaultyPool  # noqa: E402
from repro.parallel.pool import WorkerPool  # noqa: E402
from repro.serve import QueryService  # noqa: E402
from repro.sims import NyxConfig, nyx_step_stream  # noqa: E402
from repro.storage import LocalFileBackend, RangedBackend  # noqa: E402

DEFAULT_SEED = 20260808
SERIES_STEPS = 4
SHARD_STEPS = 6
N_SHARDS = 3

#: Per-query watchdog: a scenario that takes this long has hung, which
#: is itself an oracle violation (typed errors must be prompt).
WATCHDOG_S = 60.0

#: Errors the oracle accepts in place of bytes. Everything else —
#: including a raw RuntimeError escaping the stack — is a violation.
TYPED = (DeadlineExceeded, Overloaded, StorageError, ServeError, FormatError)


class Violation(AssertionError):
    """One broken oracle clause; carries the scenario context."""


def _selection_mix(n_steps: int) -> list[dict]:
    """A small deterministic selection mix touching every access shape."""
    return [
        {},
        {"steps": 0},
        {"steps": [1, n_steps - 1], "levels": 1},
        {"steps": list(range(n_steps)), "levels": 0},
        {"patches": [0]},
    ]


def build_corpus(root: Path) -> dict[str, Path]:
    """Write the (tiny) series + sharded campaign the matrix serves."""
    cfg = NyxConfig(coarse_n=8)
    series = root / "chaos.rph2s"
    write_series(series, nyx_step_stream(SERIES_STEPS, cfg),
                 codec="sz-lr", error_bound=1e-3, durability="step")
    sharded = root / "chaos.rphm"
    write_sharded_series(sharded, nyx_step_stream(SHARD_STEPS, cfg),
                         codec="sz-lr", error_bound=1e-3, n_shards=N_SHARDS,
                         parallel="serial", durability="step")
    return {"series": series, "sharded": sharded}


class Oracle:
    """Byte truth (direct reads, cached) plus the outcome checks."""

    def __init__(self):
        self._truth: dict[tuple, dict] = {}

    def truth(self, path: Path, sel: dict) -> dict:
        key = (str(path), tuple(sorted(
            (k, tuple(v) if isinstance(v, list) else v) for k, v in sel.items()
        )))
        if key not in self._truth:
            self._truth[key] = decompress_selection(str(path), **sel)
        return self._truth[key]

    @staticmethod
    def check_exact(ctx: str, served: dict, truth: dict) -> None:
        if set(served) != set(truth):
            raise Violation(
                f"{ctx}: served keys != truth keys "
                f"(missing {sorted(set(truth) - set(served))[:4]}, "
                f"extra {sorted(set(served) - set(truth))[:4]})"
            )
        for key, arr in served.items():
            if arr.tobytes() != truth[key].tobytes():
                raise Violation(f"{ctx}: wrong bytes for patch {key}")

    @staticmethod
    def check_partial(ctx: str, served: dict, missing: list, truth: dict) -> None:
        """A well-formed partial: served patches bit-exact, and the union
        of served and missing steps covers the selection exactly."""
        missing_steps = {m["step"] for m in missing}
        for m in missing:
            if not (m.get("file") and m.get("error") and m.get("detail")):
                raise Violation(f"{ctx}: malformed missing record {m}")
        want = {k for k in truth if k[0] not in missing_steps}
        if set(served) != want:
            raise Violation(
                f"{ctx}: partial served keys don't match "
                f"truth-minus-missing (missing steps {sorted(missing_steps)})"
            )
        if missing_steps - {k[0] for k in truth}:
            raise Violation(
                f"{ctx}: missing reports steps outside the selection: "
                f"{sorted(missing_steps - {k[0] for k in truth})}"
            )
        for key, arr in served.items():
            if arr.tobytes() != truth[key].tobytes():
                raise Violation(f"{ctx}: wrong bytes for partial patch {key}")


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


async def _recovery_probe(name: str, oracle: Oracle, svc: QueryService,
                          path: Path, plan: FaultPlan) -> None:
    """After the schedule clears, the very next query must be exact."""
    plan.clear()
    sel = {"steps": 0}
    tag, got = await guarded(f"{name}/recovery", svc.query(**sel))
    if tag != "ok":
        raise Violation(f"{name}: clean query after clear() failed: {got}")
    oracle.check_exact(f"{name}/recovery", got, oracle.truth(path, sel))
    if svc._inflight:
        raise Violation(f"{name}: single-flight table leaked entries")


# ---------------------------------------------------------------------------
# Scenarios. Each returns a human-readable outcome summary string.
# ---------------------------------------------------------------------------
async def scenario_clean(oracle: Oracle, corpus: dict, seed: int) -> str:
    hits = 0
    for label, n in (("series", SERIES_STEPS), ("sharded", SHARD_STEPS)):
        path = corpus[label]
        svc = QueryService(path)
        try:
            for sel in _selection_mix(n):
                tag, got = await guarded(f"clean/{label}", svc.query(**sel))
                if tag != "ok":
                    raise Violation(f"clean/{label}: fault-free query raised {got}")
                oracle.check_exact(f"clean/{label}/{sel}", got,
                                   oracle.truth(path, sel))
                hits += 1
        finally:
            svc.close()
    return f"{hits} fault-free queries exact"


async def scenario_flake(oracle: Oracle, corpus: dict, seed: int) -> str:
    path = corpus["series"]
    plan = FaultPlan(seed=seed)
    plan.flake()  # every GET's first attempt fails; one retry heals
    svc = QueryService(path, backend=_backend(plan))
    try:
        for sel in _selection_mix(SERIES_STEPS):
            tag, got = await guarded("flake", svc.query(**sel))
            if tag != "ok":
                raise Violation(f"flake: retryable fault leaked: {got}")
            oracle.check_exact(f"flake/{sel}", got, oracle.truth(path, sel))
        fired = plan.faults
        if fired == 0:
            raise Violation("flake: schedule never fired (matrix is vacuous)")
        await _recovery_probe("flake", oracle, svc, path, plan)
        return f"{fired} first-attempt faults hidden by retries"
    finally:
        svc.close()


async def scenario_outage_window(oracle: Oracle, corpus: dict, seed: int) -> str:
    path = corpus["series"]
    plan = FaultPlan(seed=seed)
    svc = QueryService(path, backend=_backend(plan, max_retries=0),
                       breaker_threshold=None)  # the breaker gets its own arm
    failed = exact = 0
    try:
        plan.first(6, kind="storage")  # hard outage for the next 6 GETs
        for sel in _selection_mix(SERIES_STEPS):
            tag, got = await guarded("outage-window", svc.query(**sel))
            if tag == "ok":
                oracle.check_exact(f"outage-window/{sel}", got,
                                   oracle.truth(path, sel))
                exact += 1
            else:
                if not isinstance(got, StorageError):
                    raise Violation(f"outage-window: wrong error type: {got!r}")
                failed += 1
        if not failed:
            raise Violation("outage-window: outage never surfaced")
        await _recovery_probe("outage-window", oracle, svc, path, plan)
        return f"{failed} typed failures during the window, {exact} exact after"
    finally:
        svc.close()


async def scenario_probability(oracle: Oracle, corpus: dict, seed: int) -> str:
    path = corpus["sharded"]
    plan = FaultPlan(seed=seed)
    plan.probability(0.2)
    svc = QueryService(path, backend=_backend(plan), breaker_threshold=None)
    exact = failed = 0
    try:
        for sel in _selection_mix(SHARD_STEPS) * 2:
            tag, got = await guarded("probability", svc.query(**sel))
            if tag == "ok":
                oracle.check_exact(f"probability/{sel}", got,
                                   oracle.truth(path, sel))
                exact += 1
            else:
                if not isinstance(got, StorageError):
                    raise Violation(f"probability: wrong error type: {got!r}")
                failed += 1
        fired = plan.faults
        await _recovery_probe("probability", oracle, svc, path, plan)
        return (f"p=0.2 schedule fired {fired} faults: "
                f"{exact} exact, {failed} typed failures")
    finally:
        svc.close()


async def scenario_shard_outage(oracle: Oracle, corpus: dict, seed: int) -> str:
    path = corpus["sharded"]
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
        truth = oracle.truth(path, {})
        oracle.check_partial("shard-outage", served, info.missing, truth)
        missing_steps = sorted({m["step"] for m in info.missing})
        if missing_steps != victim_steps:
            raise Violation(
                f"shard-outage: missing {missing_steps} != victim's "
                f"steps {victim_steps}"
            )
        await _recovery_probe("shard-outage", oracle, svc, path, plan)
        return (f"dead shard failed typed; partial served "
                f"{len(served)} patches around steps {missing_steps}")
    finally:
        svc.close()


async def scenario_deadline(oracle: Oracle, corpus: dict, seed: int) -> str:
    path = corpus["series"]
    plan = FaultPlan(seed=seed)
    svc = QueryService(path, backend=_backend(plan))
    try:
        await svc.plan(steps=0)  # catalogs in; payload still cold
        plan.latency(0.5)
        tag, got = await guarded("deadline",
                                 svc.query(steps=0, levels=0, timeout=0.05))
        if tag != "err" or not isinstance(got, DeadlineExceeded):
            raise Violation(f"deadline: expected DeadlineExceeded, got {got!r}")
        await _recovery_probe("deadline", oracle, svc, path, plan)
        return "late query failed typed; immediate retry exact"
    finally:
        svc.close()


async def scenario_decode_crash(oracle: Oracle, corpus: dict, seed: int) -> str:
    path = corpus["series"]
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
        await _recovery_probe("decode-crash", oracle, svc, path, plan)
        return "worker crash surfaced as ServeError; next query exact"
    finally:
        svc.close()
        pool.close()


async def scenario_overload(oracle: Oracle, corpus: dict, seed: int) -> str:
    path = corpus["series"]
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
        truth = oracle.truth(path, {"steps": 0, "levels": 0})
        for tag, got in outcomes:
            if tag == "ok":
                oracle.check_exact("overload", got, truth)
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
        await _recovery_probe("overload", oracle, svc, path, plan)
        return f"{exact} admitted exact, {shed} shed with retry_after"
    finally:
        svc.close()


async def scenario_breaker(oracle: Oracle, corpus: dict, seed: int) -> str:
    path = corpus["sharded"]
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
        oracle.check_exact("breaker/recovery", got,
                           oracle.truth(path, {"steps": 0}))
        return (f"tripped after 2 failures, {fast_fails} fast-fails, "
                f"recovered after cooldown")
    finally:
        svc.close()


#: name -> (in quick subset, scenario coroutine)
SCENARIOS = {
    "clean": (True, scenario_clean),
    "flake": (True, scenario_flake),
    "outage-window": (False, scenario_outage_window),
    "probability": (False, scenario_probability),
    "shard-outage": (True, scenario_shard_outage),
    "deadline": (True, scenario_deadline),
    "decode-crash": (True, scenario_decode_crash),
    "overload": (False, scenario_overload),
    "breaker": (False, scenario_breaker),
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--quick", action="store_true",
                        help="CI subset (the starred scenarios only)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="fault-schedule seed (default %(default)s)")
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
    with tempfile.TemporaryDirectory(prefix="chaossim-") as tmp:
        root = Path(tmp)
        t0 = time.perf_counter()
        corpus = build_corpus(root)
        if args.verbose:
            print(f"corpus built in {time.perf_counter() - t0:.1f}s "
                  f"({', '.join(p.name for p in corpus.values())})")
        oracle = Oracle()
        for name, fn in chosen:
            t0 = time.perf_counter()
            try:
                summary = asyncio.run(fn(oracle, corpus, args.seed))
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
