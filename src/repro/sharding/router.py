"""The cross-shard router: the serving front end of a sharded deployment.

:class:`Router` is to :class:`~repro.sharding.ShardedEngine` what
:class:`~repro.serving.Server` is to Engine replicas — and it presents
the **identical client surface**: ``submit(QueryRequest) -> Future``,
blocking ``query``/``batch``, ``stats``, context-managed shutdown, the
same micro-batching :class:`~repro.serving.Scheduler` in front and the
same admission control (:class:`~repro.exceptions.ServerOverloaded`).
A scheduler front end written against ``Server`` drives a ``Router``
unchanged.

Behind the scheduler, the two diverge: where ``Server`` fans requests
*across* Engine replicas (thread concurrency, whole queries in
parallel), the Router runs one dispatcher thread whose sharded engine
fans every iterate sweep *within* a query batch across shard worker
processes — scattering seed blocks into the shared iterate panel,
gathering each shard's partial score stripes, and reducing them into
results **bitwise identical** to a serial ``Engine.batch`` over the
same requests.  Threads scale the paper's workload when queries are
plentiful and small; shards scale it when the graph (or the GIL) is the
bottleneck.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future
from typing import Iterable

import numpy as np

from repro.engine import Engine, QueryRequest, QueryResult
from repro.exceptions import ParameterError
from repro.graph.partition import partition_graph, partition_order
from repro.kernels.reorder import LocalityReordering
from repro.method import PPRMethod, validate_k
from repro.obs import metrics as obs_metrics
from repro.obs import profile as obs_profile
from repro.obs.exporter import ObsExporter, start_exporter
from repro.resilience.retry import RetryPolicy
from repro.serving.cache import ScoreCache
from repro.serving.metrics import LatencyStats, front_stats
from repro.serving.scheduler import Scheduler
from repro.serving.server import dispatch_batch
from repro.sharding.plan import ShardPlan

__all__ = ["Router", "partition_reordering"]


def partition_reordering(
    graph,
    num_partitions: int,
    seed: int | np.random.Generator | None = 0,
    iterations: int = 8,
) -> LocalityReordering:
    """A community-aligned node ordering for partition-cut shards.

    Runs :func:`~repro.graph.partition.partition_graph` (explicitly
    seeded — every process derives the same labels), relabels the graph
    so each community is one contiguous row block, and wraps the result
    in a :class:`~repro.kernels.LocalityReordering` whose
    ``block_starts`` are the community frontiers — exactly what
    :meth:`ShardPlan.from_slashburn` packs shard cuts from, and what the
    Engine's ``reorder=`` parameter accepts.
    """
    labels = partition_graph(
        graph, num_partitions, iterations=iterations, seed=seed
    )
    permutation, starts = partition_order(labels)
    inverse = np.empty_like(permutation)
    inverse[permutation] = np.arange(permutation.size)
    return LocalityReordering(
        graph=graph.permute(permutation),
        to_reordered=inverse,
        to_original=permutation,
        num_hubs=0,
        block_starts=starts[starts > 0],
    )


class Router:
    """Micro-batching front end over one sharded Engine.

    Parameters
    ----------
    method:
        The RWR method to serve.  Preprocessed once (in the constructor,
        via the primary Engine), then shared read-only with the sharded
        replica — preprocessing is **not** redone for sharding.
    graph:
        Graph to preprocess for (optional when ``method`` already is).
    num_shards:
        Shard worker-process count.
    plan:
        Explicit :class:`ShardPlan`; the default cuts on the active
        reordering's frontiers (hub band to shard 0 under
        ``reorder="slashburn"``, community boundaries under
        ``reorder="partition"``) or into equal stripes.
    reorder:
        ``None``, ``"slashburn"`` (hub/spoke relabeling, as on the
        Engine), ``"partition"`` (community relabeling via
        :func:`partition_reordering`, cut-aligned with the default
        plan), or a ready :class:`~repro.kernels.LocalityReordering`.
    partition_seed:
        Seed of the ``"partition"`` reordering's label pass (explicit so
        every process agrees on the boundaries).
    max_batch / max_wait_ms / max_pending / cache_size:
        Exactly as on :class:`~repro.serving.Server`.
    stream_block / memory_budget_bytes:
        Forwarded to the primary :class:`~repro.engine.Engine`.
    panel_cols / start_method / step_timeout:
        Forwarded to :meth:`Engine.shard`.
    warm:
        Run one throwaway probe through the sharded engine before
        accepting traffic (default).
    tune:
        A :class:`repro.tune.TuneProfile`.  Supplies defaults for every
        knob the caller leaves at ``None`` — ``num_shards``,
        ``max_batch``, ``max_wait_ms`` — and flows into the primary
        Engine (block width, global kernel-thread knob).  Explicit
        arguments always win over the profile.
    pin:
        Pin each shard worker process to its own core set
        (:func:`repro.tune.plan_pinning`, NUMA-aware).  Default: pin
        exactly when a tuned profile was given; pass ``False`` to
        override.  Degrades to unpinned with a warning where the
        platform cannot pin; results are identical either way.
    supervise:
        Heartbeat the shard worker processes and respawn dead or hung
        ones between sweeps (default; period from ``REPRO_HEARTBEAT_MS``
        unless ``heartbeat_ms`` overrides it).  Respawns count in
        :meth:`stats` whether triggered by the supervisor or by in-sweep
        recovery.
    retry:
        A :class:`~repro.resilience.RetryPolicy` re-running a micro-batch
        whose dispatch failed retryably (worker death the sweep could
        not absorb).  Default: a stock policy — a sharded deployment
        should survive worker loss without clients noticing.  Pass
        ``None`` to fail batches on first error.
    obs_port:
        Attach a live :class:`~repro.obs.ObsExporter` (``/metrics``,
        ``/health``, ``/snapshot``, ``/traces``, ``/profile``) on this
        port (``0`` = ephemeral; read :attr:`exporter`).  Owned by the
        router and shut down by :meth:`close`.  Default ``None``
        consults ``REPRO_OBS_PORT`` and, when set, joins the shared
        per-process listener instead.  ``/health`` answers 503 while
        any shard worker is down or the scheduler is saturated.

    Examples
    --------
    >>> from repro import QueryRequest, community_graph, create_method
    >>> from repro.sharding import Router
    >>> graph = community_graph(2000, avg_degree=10, seed=7)
    >>> with Router(create_method("tpa"), graph, num_shards=2) as router:
    ...     result = router.query(0, k=10)
    """

    def __init__(
        self,
        method: PPRMethod,
        graph=None,
        *,
        num_shards: int | None = None,
        plan: ShardPlan | None = None,
        reorder=None,
        partition_seed: int = 0,
        max_batch: int | None = None,
        max_wait_ms: float | None = None,
        max_pending: int = 1024,
        cache_size: int = 0,
        stream_block: int | str | None = None,
        memory_budget_bytes: int | None = None,
        panel_cols: int | None = None,
        start_method: str | None = None,
        step_timeout: float | None = None,
        warm: bool = True,
        tune=None,
        pin: bool | None = None,
        supervise: bool = True,
        heartbeat_ms: float | None = None,
        retry: RetryPolicy | None = RetryPolicy(),
        obs_port: int | None = None,
    ):
        # Precedence: explicit argument > tuned profile > static default.
        if num_shards is None:
            if plan is not None:
                num_shards = plan.num_shards
            elif tune is not None:
                num_shards = int(tune.shards)
            else:
                num_shards = 2
        if max_batch is None:
            max_batch = int(tune.max_batch) if tune is not None else 32
        if max_wait_ms is None:
            max_wait_ms = float(tune.max_wait_ms) if tune is not None else 2.0
        if pin is None:
            pin = tune is not None
        if cache_size < 0:
            raise ParameterError("cache_size must be non-negative")
        # Cheap argument validation first, before any preprocessing.
        self._scheduler = Scheduler(
            max_batch=max_batch,
            max_wait_ms=max_wait_ms,
            max_pending=max_pending,
        )
        if reorder == "partition":
            if graph is None:
                raise ParameterError(
                    "reorder='partition' requires the graph"
                )
            reorder = partition_reordering(
                graph, max(num_shards, 2), seed=partition_seed
            )
        self._cache = ScoreCache(cache_size) if cache_size else None
        self._primary = Engine(
            method,
            graph,
            reorder=reorder,
            stream_block=stream_block,
            memory_budget_bytes=memory_budget_bytes,
            cache=self._cache,
            tune=tune,
        )
        self._engine = self._primary.shard(
            num_shards=num_shards,
            plan=plan,
            panel_cols=panel_cols,
            start_method=start_method,
            step_timeout=step_timeout,
            warm=False,  # the operator probe runs inside shard()
            pin=pin,
            supervise=supervise,
            heartbeat_ms=heartbeat_ms,
        )
        if warm:
            # One serial probe through the full sharded online phase:
            # sizes the replica's retained workspace and JIT state before
            # traffic, without polluting stats or cache (serving space,
            # direct method call — same rationale as Server's warm pass).
            probe = np.zeros(1, dtype=np.int64)
            self._engine.method.query_many(probe)
        self._metrics = LatencyStats()
        self._retry = retry
        # Every respawn — supervisor- or sweep-triggered — lands in the
        # router's counters, so the serving report shows them.
        self._engine.shards.on_respawn = (
            lambda: self._metrics.count("respawns")
        )
        self._closed = False
        self._thread = threading.Thread(
            target=self._dispatch_loop, name="repro-shard-router", daemon=True
        )
        self._thread.start()
        # Operational surface: sampler (REPRO_PROFILE-gated no-op when
        # off) and HTTP exporter (obs_port= / REPRO_OBS_PORT).
        obs_profile.arm()
        self._obs_name = f"router-{id(self):x}"
        self._exporter, self._owns_exporter = start_exporter(obs_port)
        if self._exporter is not None:
            self._exporter.add_check(self._obs_name, self._health_check)
            self._exporter.add_collector(
                self._obs_name, self._refresh_shard_metrics
            )

    # -- introspection ---------------------------------------------------------

    @property
    def engine(self) -> Engine:
        """The sharded engine answering every batch."""
        return self._engine

    @property
    def num_shards(self) -> int:
        return self._engine.shards.num_shards

    @property
    def plan(self) -> ShardPlan:
        return self._engine.shards.plan

    @property
    def cache(self) -> ScoreCache | None:
        """The shared score cache, when ``cache_size > 0``."""
        return self._cache

    @property
    def metrics(self) -> LatencyStats:
        return self._metrics

    @property
    def exporter(self) -> ObsExporter | None:
        """The attached observability endpoint, if any."""
        return self._exporter

    def _health_check(self) -> dict:
        """Readiness for ``/health``: every shard worker alive and the
        scheduler not saturated.  Runs on exporter scrape threads, so it
        only reads cheap state — no locks, no pipes."""
        if self._closed:
            return {"ready": False, "reason": "closed"}
        shards = self._engine.shards
        workers_alive = sum(1 for w in shards.workers() if w.alive)
        pending = self._scheduler.pending
        max_pending = self._scheduler.max_pending
        saturated = bool(max_pending) and pending >= max_pending
        return {
            "ready": workers_alive == shards.num_shards and not saturated,
            "workers_alive": workers_alive,
            "num_shards": shards.num_shards,
            "pending": pending,
            "max_pending": max_pending,
            "backpressure": saturated,
        }

    def _refresh_shard_metrics(self) -> None:
        """Pre-scrape collector: per-shard respawn generations and the
        alive-worker count as gauges, fresh at render time."""
        if self._closed:
            return
        registry = obs_metrics.get_registry()
        stats = self._engine.shards.shard_stats()
        generation = registry.gauge(
            "repro_shard_generation",
            "Respawn generation of each shard's worker (0 = original).",
            labelnames=("shard",),
        )
        for shard, value in enumerate(stats.get("generations") or ()):
            generation.labels(shard=shard).set(float(value))
        registry.gauge(
            "repro_shard_workers_alive",
            "Shard worker processes currently alive.",
        ).set(float(stats.get("workers_alive", 0)))

    @property
    def pending(self) -> int:
        """Requests currently queued for dispatch."""
        return self._scheduler.pending

    @property
    def closed(self) -> bool:
        return self._closed

    def stats(self) -> dict:
        """One merged view: latency snapshot, queue depth, engine
        counters, shard deployment shape, and cache counters.  Shaped
        by :func:`~repro.serving.metrics.front_stats` — the same keys
        :meth:`repro.serving.Server.stats` reports, so consumers never
        branch on which front end answered (``workers`` here is the
        single dispatcher thread; per-process placement lives under
        ``shards["pinning"]``)."""
        snap = self._engine.stats()
        shards = snap["shards"]
        return front_stats(
            self._metrics.snapshot(),
            workers=1,
            pending=self.pending,
            max_batch=self._scheduler.max_batch,
            max_wait_ms=self._scheduler.max_wait_ms,
            overloads=self._scheduler.overloads,
            pinning=shards.get("pinning"),
            queries_served=snap["queries_served"],
            online_seconds=snap["online_seconds"],
            cache_stats=(
                self._cache.stats() if self._cache is not None else None
            ),
            shard_stats=shards,
        )

    # -- the client surface (identical to Server's) ----------------------------

    def submit(self, request: QueryRequest) -> "Future[QueryResult]":
        """Queue one request; returns the future its result lands on.

        Same contract as :meth:`repro.serving.Server.submit`: validation
        happens here on the submitting thread,
        :class:`~repro.exceptions.ServerOverloaded` signals backpressure,
        :class:`RuntimeError` follows :meth:`close`.
        """
        if self._closed:
            raise RuntimeError("router is closed")
        if request.k is not None:
            validate_k(request.k)
        self._engine.method.validate_seed(request.seed)
        return self._scheduler.submit(request)

    def query(
        self,
        seed: int,
        k: int | None = None,
        exclude_seed: bool = True,
        exclude_neighbors: bool = False,
        timeout: float | None = None,
    ) -> QueryResult:
        """Blocking convenience wrapper: submit one request, wait."""
        future = self.submit(
            QueryRequest(
                seed=seed, k=k, exclude_seed=exclude_seed,
                exclude_neighbors=exclude_neighbors,
            )
        )
        return future.result(timeout)

    def batch(
        self,
        requests: Iterable[QueryRequest],
        timeout: float | None = None,
    ) -> list[QueryResult]:
        """Submit a request sequence and wait for every result, in
        request order — semantics identical to
        :meth:`repro.serving.Server.batch` (and results bitwise
        identical to a serial ``Engine.batch``)."""
        futures = []
        try:
            for request in requests:
                futures.append(self.submit(request))
        except BaseException:
            for future in futures:
                future.cancel()
            raise
        return [future.result(timeout) for future in futures]

    # -- lifecycle -------------------------------------------------------------

    def close(self, drain: bool = True, timeout: float | None = None) -> None:
        """Shut down: stop admitting, drain (or cancel) the queue, join
        the dispatcher, stop shard workers, unlink shared memory.

        Idempotent.  After this returns, no worker processes remain and
        no ``/dev/shm`` segment of this deployment exists.
        """
        if self._closed:
            return
        self._closed = True
        if not drain:
            self._scheduler.cancel_pending()
        self._scheduler.close()
        self._thread.join(timeout)
        self._engine.close()
        exporter, self._exporter = self._exporter, None
        if exporter is not None:
            exporter.remove_check(self._obs_name)
            exporter.remove_collector(self._obs_name)
            if self._owns_exporter:
                exporter.close()

    def __enter__(self) -> "Router":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- the dispatcher --------------------------------------------------------

    def _dispatch_loop(self) -> None:
        """One thread drains the scheduler into the sharded engine.

        A single dispatcher is the right shape here: the sharded engine
        already parallelizes *inside* each batch (every sweep fans out
        across the worker processes), so a second in-flight batch would
        only contend for the same shard pipes.
        """
        while True:
            batch = self._scheduler.next_batch()
            if batch is None:
                return  # closed and drained
            dispatch_batch(
                self._engine, self._metrics, batch, retry=self._retry
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Router(method={self._engine.method.name}, "
            f"shards={self.num_shards}, pending={self.pending}, "
            f"closed={self._closed})"
        )
