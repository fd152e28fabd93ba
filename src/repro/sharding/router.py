"""The cross-shard router: the serving front end of a sharded deployment.

A :class:`Router` **is** a :class:`~repro.serving.Server` — the same
client surface (``submit(QueryRequest) -> Future``, blocking
``query``/``batch``, ``stats``, ``/health``, context-managed shutdown),
the same micro-batching :class:`~repro.serving.Scheduler` and admission
control, the same supervised worker thread — with one worker, whose
serving engine is :meth:`Engine.shard` instead of a replica.

Where ``Server`` fans requests *across* Engine replicas (thread
concurrency, whole queries in parallel), the Router's sharded engine
fans every iterate sweep *within* a query batch across shard worker
processes — scattering seed blocks into the shared iterate panel,
gathering each shard's partial score stripes, and reducing them into
results **bitwise identical** to a serial ``Engine.batch`` over the
same requests.  Threads scale the paper's workload when queries are
plentiful and small; shards scale it when the graph (or the GIL) is the
bottleneck.  A single worker is the right shape here: a second
in-flight batch would only contend for the same shard pipes.
"""

from __future__ import annotations

from repro.engine import Engine
from repro.method import PPRMethod
from repro.obs import metrics as obs_metrics
from repro.resilience.retry import RetryPolicy
from repro.serving.server import Server
from repro.sharding.plan import ShardPlan

__all__ = ["Router"]


class Router(Server):
    """Micro-batching front end over one sharded Engine: a
    :class:`~repro.serving.Server` whose single worker thread serves on
    :meth:`Engine.shard`.

    Parameters
    ----------
    method / graph:
        As on :class:`~repro.serving.Server`.  Preprocessed once, then
        shared read-only with the sharded replica — preprocessing is
        **not** redone for sharding.
    num_shards:
        Shard worker-process count (default: ``plan``'s, else the tuned
        profile's, else 2).
    plan:
        Explicit :class:`ShardPlan`; the default cuts equal stripes
        (:meth:`ShardPlan.uniform`).
    max_batch / max_wait_ms / max_pending / cache_size:
        As on :class:`~repro.serving.Server`.
    stream_block / memory_budget_bytes / warm:
        As on :class:`~repro.serving.Server`.
    panel_cols / start_method / step_timeout:
        Forwarded to :meth:`Engine.shard`.
    tune:
        As on :class:`~repro.serving.Server`; it also supplies
        ``num_shards``.
    pin:
        Pin each shard worker *process* to its own core set
        (:func:`repro.tune.plan_pinning`, NUMA-aware); otherwise as on
        :class:`~repro.serving.Server`.
    supervise / heartbeat_ms:
        As on :class:`~repro.serving.Server` (the worker thread), and
        also heartbeat the shard worker processes, respawning dead or
        hung ones between sweeps.  Every respawn counts in :meth:`stats`.
    retry:
        As on :class:`~repro.serving.Server`, but defaults to a stock
        policy — a sharded deployment should survive worker loss without
        clients noticing.  Pass ``None`` to fail batches on first error.
    obs_port:
        As on :class:`~repro.serving.Server`; ``/health`` reports shard
        workers alive, and ``/metrics`` adds per-shard respawn gauges.

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
        if num_shards is None:
            if plan is not None:
                num_shards = plan.num_shards
            elif tune is not None:
                num_shards = int(tune.shards)
            else:
                num_shards = 2
        self._shard_options = dict(
            num_shards=num_shards,
            plan=plan,
            panel_cols=panel_cols,
            start_method=start_method,
            step_timeout=step_timeout,
            warm=False,  # the operator probe runs inside shard()
            pin=pin,  # None: Engine.shard pins exactly when tuned
            supervise=supervise,
            heartbeat_ms=heartbeat_ms,
        )
        super().__init__(
            method,
            graph,
            workers=1,
            max_batch=max_batch,
            max_wait_ms=max_wait_ms,
            max_pending=max_pending,
            cache_size=cache_size,
            stream_block=stream_block,
            memory_budget_bytes=memory_budget_bytes,
            warm=warm,
            tune=tune,
            pin=False,  # the shard processes are pinned, not the thread
            supervise=supervise,
            heartbeat_ms=heartbeat_ms,
            retry=retry,
            obs_port=obs_port,
        )
        if self._exporter is not None:
            self._exporter.add_collector(
                self._obs_name, self._refresh_shard_metrics
            )

    def _serving_engines(self, workers: int) -> list[Engine]:
        engine = self._primary.shard(**self._shard_options)
        # Every respawn — supervisor- or sweep-triggered — lands in the
        # router's counters, so the serving report shows them.
        engine.shards.on_respawn = lambda: self._metrics.count("respawns")
        return [engine]

    @property
    def engine(self) -> Engine:
        """The sharded engine answering every batch."""
        return self._engines[0]

    @property
    def num_shards(self) -> int:
        return self.engine.shards.num_shards

    @property
    def plan(self) -> ShardPlan:
        return self.engine.shards.plan

    def _liveness(self) -> tuple[bool, dict]:
        """Shard worker processes alive (no locks, no pipes)."""
        shards = self.engine.shards
        alive = sum(1 for worker in shards.workers() if worker.alive)
        return alive == shards.num_shards, {
            "workers_alive": alive,
            "num_shards": shards.num_shards,
        }

    def _refresh_shard_metrics(self) -> None:
        """Pre-scrape collector: per-shard respawn generations and the
        alive-worker count as gauges, fresh at render time."""
        if self._closed:
            return
        registry = obs_metrics.get_registry()
        stats = self.engine.shards.shard_stats()
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
