"""Concurrent selective-read serving over series/snapshot containers.

The serving layer of the pipeline: :class:`QueryService` answers
``(step, level, field, patch[, region])`` queries concurrently over one
RPH2S series, RPHM sharded campaign, or RPH2 snapshot, planning each
query into minimal coalesced ranged reads (:mod:`repro.serve.planner`),
batching same-group members into one shared-codebook decode on a
:class:`~repro.parallel.WorkerPool`, keeping each touched step's catalog
and group headers/codebooks for the service's life, and decoded patches
in a byte-budgeted LRU (:mod:`repro.serve.cache`). :class:`InProcessClient`
is the synchronous in-process facade; :class:`QueryServer`/:class:`TCPClient`
(:mod:`repro.serve.net`) put the same service on a socket — also exposed
as ``python -m repro.compression serve``.

Resilience (:mod:`repro.serve.resilience`) is built in: queries take
``timeout=``/``deadline=`` (expiry raises
:class:`~repro.errors.DeadlineExceeded`), admission control sheds load
with :class:`~repro.errors.Overloaded` when the in-flight budget and
queue fill, per-backend-file circuit breakers fast-fail a dead
shard/backend with :class:`~repro.errors.CircuitOpenError`, and
``partial=True`` serves around dead shards, reporting what is missing in
:class:`QueryInfo`. Deterministic fault injection for all of it lives in
:mod:`repro.faults`.
"""

from repro.serve.cache import ServeCache
from repro.serve.resilience import AdmissionGate, CircuitBreaker, Deadline
from repro.serve.planner import (
    DEFAULT_GAP_CAP,
    DEFAULT_SLACK,
    DecodeBatch,
    Extent,
    QueryPlan,
    RangedRead,
    StepPlan,
    coalesce_extents,
    plan_step,
)
from repro.serve.service import (
    DEFAULT_CACHE_BYTES,
    InProcessClient,
    QueryInfo,
    QueryService,
)
from repro.serve.net import QueryServer, TCPClient

__all__ = [
    "QueryService",
    "QueryInfo",
    "InProcessClient",
    "QueryServer",
    "TCPClient",
    "ServeCache",
    "Extent",
    "RangedRead",
    "DecodeBatch",
    "StepPlan",
    "QueryPlan",
    "coalesce_extents",
    "plan_step",
    "DEFAULT_GAP_CAP",
    "DEFAULT_SLACK",
    "DEFAULT_CACHE_BYTES",
    "Deadline",
    "AdmissionGate",
    "CircuitBreaker",
]
