"""Resilient serving: deadlines, admission control, circuit breakers,
and degraded (partial) sharded reads.

Unit tests drive the :mod:`repro.serve.resilience` state machines with
injected clocks; the integration tests put a real :class:`QueryService`
under injected faults (:mod:`repro.faults`) and assert the typed-error
and byte-identity contracts the fault simulator's chaos group
(``tools/faultsim.py chaos``) sweeps at scale.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.errors import (
    CircuitOpenError,
    DeadlineExceeded,
    Overloaded,
    StorageError,
)
from repro.faults import FaultPlan
from repro.serve import QueryService
from repro.serve.resilience import AdmissionGate, CircuitBreaker, Deadline
from repro.storage import LocalFileBackend, RangedBackend

from tests.serve.conftest import assert_byte_identical, direct_truth


class Clock:
    """Manually-advanced monotonic clock."""

    def __init__(self, now: float = 0.0):
        self.now = now

    def __call__(self) -> float:
        return self.now


def _service(path, plan=None, **kwargs):
    backend = RangedBackend(
        LocalFileBackend(), readahead=1 << 12, max_retries=0,
        sleep=lambda s: None, fault=plan,
    )
    return QueryService(path, backend=backend, workers=2, **kwargs), backend


# ----------------------------------------------------------------------
# Deadline
# ----------------------------------------------------------------------
class TestDeadline:
    def test_of_none_means_no_deadline(self):
        assert Deadline.of(None, None) is None

    def test_timeout_is_relative_deadline_absolute(self):
        clock = Clock(100.0)
        dl = Deadline.of(5.0, None, clock)
        assert dl.remaining() == pytest.approx(5.0)
        clock.now = 103.0
        assert dl.remaining() == pytest.approx(2.0)
        assert not dl.expired()
        clock.now = 105.0
        assert dl.expired() and dl.remaining() == 0.0
        absolute = Deadline.of(None, 107.0, clock)
        assert absolute.remaining() == pytest.approx(2.0)

    def test_both_given_earlier_wins(self):
        clock = Clock(0.0)
        dl = Deadline.of(10.0, 3.0, clock)
        assert dl.at == 3.0
        dl = Deadline.of(1.0, 3.0, clock)
        assert dl.at == 1.0

    def test_negative_timeout_rejected(self):
        with pytest.raises(DeadlineExceeded):
            Deadline.of(-1.0, None)


# ----------------------------------------------------------------------
# CircuitBreaker
# ----------------------------------------------------------------------
class TestCircuitBreaker:
    def test_trips_after_threshold_consecutive_failures(self):
        clock = Clock()
        b = CircuitBreaker(threshold=3, cooldown=10.0, clock=clock)
        for _ in range(2):
            b.record_failure()
        assert b.state == "closed" and b.allow()
        b.record_failure()
        assert b.state == "open"
        assert not b.allow()
        with pytest.raises(CircuitOpenError, match="circuit breaker open"):
            b.check("shard-0")

    def test_success_resets_the_consecutive_count(self):
        b = CircuitBreaker(threshold=2, cooldown=10.0, clock=Clock())
        b.record_failure()
        b.record_success()
        b.record_failure()
        assert b.state == "closed"

    def test_half_open_probe_success_closes(self):
        clock = Clock()
        b = CircuitBreaker(threshold=1, cooldown=10.0, clock=clock)
        b.record_failure()
        assert b.state == "open" and b.remaining() == pytest.approx(10.0)
        clock.now = 10.5
        assert b.allow()  # the single half-open probe
        assert b.state == "half_open"
        assert not b.allow()  # second caller is still fast-failed
        b.record_success()
        assert b.state == "closed" and b.allow()

    def test_half_open_probe_failure_reopens(self):
        clock = Clock()
        b = CircuitBreaker(threshold=1, cooldown=5.0, clock=clock)
        b.record_failure()
        clock.now = 6.0
        assert b.allow()
        b.record_failure()
        assert b.state == "open"
        assert b.remaining() == pytest.approx(5.0)
        assert b.trips == 2
        stats = b.stats
        assert stats["state"] == "open" and stats["probes"] == 1


# ----------------------------------------------------------------------
# AdmissionGate
# ----------------------------------------------------------------------
class TestAdmissionGate:
    def test_sheds_when_budget_and_queue_full(self):
        async def scenario():
            gate = AdmissionGate(max_inflight=1, max_queue=0)
            await gate.acquire_slot()
            with pytest.raises(Overloaded) as exc_info:
                await gate.acquire_slot()
            assert exc_info.value.retry_after > 0
            gate.release_slot()
            await gate.acquire_slot()  # capacity is back
            gate.release_slot()
            assert gate.stats["shed"] == 1

        asyncio.run(scenario())

    def test_waiters_wake_fifo(self):
        async def scenario():
            gate = AdmissionGate(max_inflight=1, max_queue=4)
            await gate.acquire_slot()
            order: list[int] = []

            async def waiter(i: int):
                await gate.acquire_slot()
                order.append(i)
                await asyncio.sleep(0)
                gate.release_slot()

            tasks = []
            for i in range(3):
                tasks.append(asyncio.create_task(waiter(i)))
                await asyncio.sleep(0)  # park them in arrival order
            gate.release_slot()
            await asyncio.gather(*tasks)
            assert order == [0, 1, 2]

        asyncio.run(scenario())

    def test_deadline_bounds_the_admission_wait(self):
        async def scenario():
            gate = AdmissionGate(max_inflight=1, max_queue=4)
            await gate.acquire_slot()
            with pytest.raises(DeadlineExceeded, match="admission wait"):
                await gate.acquire_slot(Deadline.of(0.01, None))
            # The expired waiter left the queue; the slot still hands on.
            gate.release_slot()
            await gate.acquire_slot()
            gate.release_slot()

        asyncio.run(scenario())

    def test_byte_budget_serializes_and_admits_oversize_alone(self):
        async def scenario():
            gate = AdmissionGate(max_inflight=None, max_queue=4, max_bytes=100)
            r1 = await gate.reserve_bytes(60)
            parked = asyncio.create_task(gate.reserve_bytes(60))
            await asyncio.sleep(0)
            assert not parked.done() and gate.stats["queued"] == 1
            gate.release_bytes(r1)
            assert (await parked) == 60
            gate.release_bytes(60)
            # Larger than the whole budget: admitted only when idle.
            r3 = await gate.reserve_bytes(1000)
            assert r3 == 1000 and gate.bytes_held == 1000
            gate.release_bytes(r3)
            assert gate.bytes_held == 0

        asyncio.run(scenario())


# ----------------------------------------------------------------------
# Integration: deadlines on real queries
# ----------------------------------------------------------------------
def test_query_timeout_raises_deadline_exceeded_then_retry_succeeds(series_path):
    plan = FaultPlan()

    async def scenario():
        svc, _ = _service(series_path, plan)
        try:
            await svc.plan(steps=1)  # catalog in, payload cold
            plan.latency(0.5)  # every payload GET stalls half a second
            with pytest.raises(DeadlineExceeded, match="timeout"):
                await svc.query(steps=1, levels=0, timeout=0.05)
            # Expiry must not poison the single-flight table or cache.
            assert not svc._inflight
            assert svc.stats["deadline_exceeded"] == 1
            plan.clear()
            return await svc.query(steps=1, levels=0)
        finally:
            svc.close()

    served = asyncio.run(scenario())
    assert_byte_identical(served, direct_truth(series_path, steps=1, levels=0))


def test_warm_query_beats_any_reasonable_deadline(series_path):
    async def scenario():
        svc, _ = _service(series_path)
        try:
            await svc.query(steps=0)  # warm up
            return await svc.query(steps=0, timeout=30.0)
        finally:
            svc.close()

    served = asyncio.run(scenario())
    assert_byte_identical(served, direct_truth(series_path, steps=0))


# ----------------------------------------------------------------------
# Integration: admission control
# ----------------------------------------------------------------------
def test_overload_sheds_with_retry_after(series_path):
    plan = FaultPlan()

    async def scenario():
        svc, _ = _service(series_path, plan, max_inflight=1, max_queue=0)
        try:
            await svc.plan(steps=0)
            plan.latency(0.3)
            slow = asyncio.create_task(svc.query(steps=0, levels=0))
            await asyncio.sleep(0.05)  # let it get admitted and stall
            with pytest.raises(Overloaded, match="overloaded") as exc_info:
                await svc.query(steps=1)
            assert exc_info.value.retry_after is not None
            assert svc.stats["shed"] == 1
            await slow  # the admitted query still completes cleanly
            plan.clear()
            return await svc.query(steps=1)
        finally:
            svc.close()

    served = asyncio.run(scenario())
    assert_byte_identical(served, direct_truth(series_path, steps=1))


# ----------------------------------------------------------------------
# Integration: circuit breakers
# ----------------------------------------------------------------------
def test_breaker_trips_fast_fails_and_recovers_after_cooldown(sharded_path):
    plan = FaultPlan()
    clock = Clock()

    async def scenario():
        svc, backend = _service(
            sharded_path, plan,
            breaker_threshold=2, breaker_cooldown=30.0, clock=clock,
        )
        try:
            victim = svc._segments[0][0]
            victim_steps = sorted(
                s for s, (f, _, _) in svc._segments.items() if f == victim
            )
            plan.always(lambda name, off, length: name == victim)
            for _ in range(2):
                with pytest.raises(StorageError):
                    await svc.query(steps=0)
            assert svc.stats["breakers"][victim]["state"] == "open"
            # Tripped: fast-fail without touching the backend at all.
            before = backend.stats["requests"]
            with pytest.raises(CircuitOpenError, match="circuit breaker open"):
                await svc.query(steps=0)
            assert backend.stats["requests"] == before
            # Other shards are unaffected by the open breaker.
            healthy = min(
                s for s in svc._segments if s not in victim_steps
            )
            served = await svc.query(steps=healthy, levels=1)
            # Cooldown passes and the backend heals: the half-open probe
            # succeeds and the breaker closes again.
            clock.now += 31.0
            plan.clear()
            recovered = await svc.query(steps=0, levels=0)
            assert svc.stats["breakers"][victim]["state"] == "closed"
            return healthy, served, recovered
        finally:
            svc.close()

    healthy, served, recovered = asyncio.run(scenario())
    assert_byte_identical(
        served, direct_truth(sharded_path, steps=healthy, levels=1)
    )
    assert_byte_identical(
        recovered, direct_truth(sharded_path, steps=0, levels=0)
    )


def test_breakers_can_be_disabled(series_path):
    plan = FaultPlan()

    async def scenario():
        svc, _ = _service(series_path, plan, breaker_threshold=None)
        try:
            plan.always(lambda name, off, length: True)
            for _ in range(8):
                with pytest.raises(StorageError, match="injected"):
                    await svc.query(steps=0)
            assert svc.stats["breakers"] == {}
            plan.clear()
            return await svc.query(steps=0, levels=0)
        finally:
            svc.close()

    served = asyncio.run(scenario())
    assert_byte_identical(served, direct_truth(series_path, steps=0, levels=0))


# ----------------------------------------------------------------------
# Integration: degraded (partial) sharded serving
# ----------------------------------------------------------------------
def test_partial_serves_around_a_dead_shard(sharded_path):
    plan = FaultPlan()

    async def scenario():
        svc, _ = _service(sharded_path, plan, breaker_threshold=None)
        try:
            victim = svc._segments[0][0]
            victim_steps = sorted(
                s for s, (f, _, _) in svc._segments.items() if f == victim
            )
            survivor_steps = sorted(
                s for s in svc._segments if s not in victim_steps
            )
            plan.always(lambda name, off, length: name == victim)
            # Non-partial: the dead shard fails the whole query.
            with pytest.raises(StorageError, match="injected"):
                await svc.query(levels=1)
            # Partial: surviving shards answer, the dead one is reported.
            results, info = await svc.query_info(levels=1, partial=True)
            assert info.partial
            assert sorted({m["step"] for m in info.missing}) == victim_steps
            assert all(m["file"] == victim for m in info.missing)
            assert all(m["error"] and m["detail"] for m in info.missing)
            result_steps = sorted({k[0] for k in results})
            assert result_steps == survivor_steps
            assert svc.stats["partial_queries"] == 1
            # The shard comes back: the same partial query is complete.
            plan.clear()
            full, info2 = await svc.query_info(levels=1, partial=True)
            assert info2.missing == []
            return results, survivor_steps, full
        finally:
            svc.close()

    results, survivor_steps, full = asyncio.run(scenario())
    assert_byte_identical(
        results, direct_truth(sharded_path, steps=survivor_steps, levels=1)
    )
    assert_byte_identical(full, direct_truth(sharded_path, levels=1))


def test_partial_with_healthy_shards_reports_nothing_missing(sharded_path):
    async def scenario():
        svc, _ = _service(sharded_path)
        try:
            return await svc.query_info(steps=[0, 1], partial=True)
        finally:
            svc.close()

    results, info = asyncio.run(scenario())
    assert info.missing == []
    assert_byte_identical(results, direct_truth(sharded_path, steps=[0, 1]))
