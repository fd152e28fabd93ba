"""Fault tolerance for the serving stack: supervision, retries, chaos.

The serving machinery of PRs 4–7 (thread-pool :class:`~repro.serving.Server`,
sharded :class:`~repro.sharding.Router` over ``/dev/shm``) assumed every
worker lives forever.  This package drops that assumption:

* :class:`Supervisor` — heartbeats shard worker **processes** and Server
  worker **threads** (``REPRO_HEARTBEAT_MS`` / ``REPRO_HEARTBEAT_MISSES``)
  and repairs the dead ones: shard workers are respawned and rebound to
  the live :class:`~repro.sharding.ShardStore` stripes, server threads
  restarted on their Engine replica.  In-flight sweeps recover faster
  still — worker death surfaces as pipe EOF inside the sweep, which
  respawns and retries inline, keeping results bitwise identical;
* :class:`RetryPolicy` / :func:`call_with_retry` — bounded,
  seeded-jitter backoff for *retryable* failures
  (:class:`~repro.exceptions.WorkerFailure`,
  :class:`~repro.exceptions.ServerOverloaded`; a
  :class:`~repro.exceptions.DeadlineExceeded` is final by design);
* :mod:`repro.resilience.faults` — the deterministic fault-injection
  harness (``REPRO_FAULTS``) behind the chaos test suite: seeded kills
  before/mid/after a sweep, delayed pipe replies, dropped remap acks,
  poisoned batches, hung shutdowns;
* :func:`reap_orphan_segments` — crash-safe ``/dev/shm`` cleanup keyed
  on the owner pid every ``repro-shm-<pid>-…`` segment name encodes.

Counters (``failures`` / ``retries`` / ``respawns`` /
``deadlines_exceeded``) surface in
:meth:`~repro.serving.LatencyStats.snapshot`, hence in
``Server.stats()`` / ``Router.stats()`` and on ``/metrics``.
"""

from repro.resilience.faults import (
    FAULTS_ENV_VAR,
    FaultClause,
    FaultPlan,
    active_plan,
    fire,
    fire_delay,
    fire_kill,
    reset_fault_plan,
    set_fault_plan,
    set_scope,
)
from repro.resilience.reaper import (
    SEGMENT_PREFIX,
    owned_segment_name,
    owner_pid,
    pid_alive,
    reap_orphan_segments,
)
from repro.resilience.retry import RetryPolicy, call_with_retry, is_retryable
from repro.resilience.supervisor import (
    DEFAULT_HEARTBEAT_MS,
    DEFAULT_MISSED_BEATS,
    HEARTBEAT_ENV_VAR,
    MISSES_ENV_VAR,
    Supervisor,
    heartbeat_interval_ms,
    missed_beat_threshold,
)

__all__ = [
    "FAULTS_ENV_VAR",
    "FaultClause",
    "FaultPlan",
    "active_plan",
    "fire",
    "fire_delay",
    "fire_kill",
    "reset_fault_plan",
    "set_fault_plan",
    "set_scope",
    "SEGMENT_PREFIX",
    "owned_segment_name",
    "owner_pid",
    "pid_alive",
    "reap_orphan_segments",
    "RetryPolicy",
    "call_with_retry",
    "is_retryable",
    "DEFAULT_HEARTBEAT_MS",
    "DEFAULT_MISSED_BEATS",
    "HEARTBEAT_ENV_VAR",
    "MISSES_ENV_VAR",
    "Supervisor",
    "heartbeat_interval_ms",
    "missed_beat_threshold",
]
