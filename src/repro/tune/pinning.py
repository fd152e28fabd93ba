"""Core / NUMA placement for shard workers and server threads.

The kernels' row stripes and the shared-memory shard stripes are
bandwidth-bound; when the OS migrates a worker between cores (or across
NUMA nodes) mid-run, its cache- and node-local working set goes with it.
This module computes a *pinning plan* — disjoint CPU sets, one per
worker, round-robined across NUMA nodes — and applies it with
``os.sched_setaffinity``.

Everything degrades to unpinned, loudly but harmlessly:

* no ``sched_setaffinity`` on the platform (macOS, Windows) — plan is
  ``None``, a :class:`PinningWarning` is emitted;
* affinity mask / cgroup cpuset smaller than the requested worker count
  — same;
* a pin call rejected by the kernel at apply time — that worker keeps
  running unpinned.

Pinning never changes results (the kernels' per-row accumulation order
is schedule-independent), so the plan is pure placement: correctness
tests run it on fake topologies, perf claims come from CI's multi-core
``tune-smoke`` leg.
"""

from __future__ import annotations

import os
import warnings
from collections.abc import Iterable, Sequence

import numpy as np

from repro.exceptions import ParameterError
from repro.tune.fingerprint import affinity_cpus, numa_nodes

__all__ = [
    "PinningWarning",
    "cpu_topology",
    "plan_pinning",
    "pin_current",
    "first_touch",
]


class PinningWarning(RuntimeWarning):
    """A pinning request degraded to unpinned execution."""


def cpu_topology(
    sysfs: str = "/sys/devices/system/node",
    affinity: Iterable[int] | None = None,
) -> list[tuple[int, ...]]:
    """CPU pools grouped by NUMA node, restricted to the affinity mask.

    Returns one tuple of cpu ids per NUMA node that still owns at least
    one allowed cpu; with no sysfs topology (non-Linux, containers that
    hide ``/sys``) the whole affinity mask becomes a single pseudo-node.
    """
    allowed = set(affinity_cpus() if affinity is None else affinity)
    pools: list[tuple[int, ...]] = []
    for node_id, cpus in sorted(numa_nodes(sysfs).items()):
        in_mask = tuple(c for c in cpus if c in allowed)
        if in_mask:
            pools.append(in_mask)
    if not pools:
        pools = [tuple(sorted(allowed)) if allowed else (0,)]
    return pools


def plan_pinning(
    workers: int,
    cpus_per_worker: int | None = None,
    topology: Sequence[Sequence[int]] | None = None,
) -> list[tuple[int, ...]] | None:
    """Disjoint CPU sets for ``workers`` workers, or ``None`` if pinning
    cannot help on this machine.

    Workers are placed on the node with the most unassigned cpus first,
    so they spread across NUMA nodes and each worker's set stays within
    one node.  Each worker receives ``total // workers`` cpus (capped by
    ``cpus_per_worker`` when given, never below 1).  Degrades to ``None``
    with a :class:`PinningWarning` when the platform has no
    ``sched_setaffinity`` or the allowed cpus (affinity mask ∩ cgroup
    cpuset) cannot give every worker its own core — oversubscribed
    pinning is worse than the OS scheduler.
    """
    if workers < 1:
        raise ParameterError(f"need at least one worker to pin, got {workers}")
    if not hasattr(os, "sched_setaffinity"):
        warnings.warn(
            "this platform has no sched_setaffinity; running unpinned",
            PinningWarning,
            stacklevel=2,
        )
        return None
    if topology is None:
        topology = cpu_topology()
    pools = [list(dict.fromkeys(int(c) for c in node)) for node in topology]
    pools = [pool for pool in pools if pool]
    total = sum(len(pool) for pool in pools)
    if total < workers:
        warnings.warn(
            f"cannot pin {workers} workers to {total} allowed cpu(s) "
            "(affinity mask or cgroup cpuset too small); running unpinned",
            PinningWarning,
            stacklevel=2,
        )
        return None
    share = total // workers
    if cpus_per_worker is not None:
        share = min(share, max(1, int(cpus_per_worker)))
    share = max(1, share)
    plan: list[tuple[int, ...]] = []
    for _ in range(workers):
        index = max(range(len(pools)), key=lambda i: len(pools[i]))
        pool = pools[index]
        take = min(share, len(pool))
        plan.append(tuple(pool[:take]))
        del pool[:take]
    return plan


def pin_current(cpus: Iterable[int]) -> bool:
    """Pin the calling thread/process to ``cpus``; ``True`` on success.

    Failures (platform without affinity syscalls, cpus outside the
    cgroup cpuset, empty set) warn and return ``False`` — the caller
    keeps running unpinned.
    """
    setter = getattr(os, "sched_setaffinity", None)
    requested = {int(c) for c in cpus}
    if setter is None:
        warnings.warn(
            "this platform has no sched_setaffinity; running unpinned",
            PinningWarning,
            stacklevel=2,
        )
        return False
    try:
        setter(0, requested)
    except (OSError, ValueError) as exc:
        warnings.warn(
            f"could not pin to cpus {sorted(requested)}: {exc}; "
            "running unpinned",
            PinningWarning,
            stacklevel=2,
        )
        return False
    return True


def first_touch(*arrays: np.ndarray, page_bytes: int = 4096) -> int:
    """Touch one element per page of each array from the calling thread.

    Faults the arrays' pages into the caller's locality domain — for
    freshly mapped shared-memory stripes this warms the worker's page
    tables and, on a pinned worker, pulls the pages toward its NUMA node
    before the serving loop starts.  (True first-touch *placement* only
    applies to pages never written before; stripes copied parent-side
    are already placed, so for them this is a best-effort warm.)  Returns
    the number of elements touched; purely a read, never mutates.
    """
    touched = 0
    for array in arrays:
        arr = np.asarray(array)
        if arr.size == 0:
            continue
        flat = arr.reshape(-1) if arr.flags.c_contiguous else arr.ravel()
        stride = max(1, page_bytes // max(1, flat.itemsize))
        sample = flat[::stride]
        # The reduction forces the reads; the value is discarded.
        np.add.reduce(sample, axis=None)
        touched += int(sample.size)
    return touched
