"""The concurrent serving front end: worker pool over Engine replicas.

:class:`Server` is what turns the batched :class:`~repro.engine.Engine`
into a *service*.  Clients on any thread call :meth:`Server.submit`
(or the blocking :meth:`Server.query` / :meth:`Server.batch`) and the
pieces below cooperate:

* a :class:`~repro.serving.scheduler.Scheduler` coalesces the incoming
  single requests into micro-batches (``max_batch`` / ``max_wait_ms``),
  so concurrent single-seed traffic gets the measured batched-SpMM
  speedup without any client-side batching;
* ``workers`` threads each own one **Engine replica**
  (:meth:`repro.engine.Engine.replicate`): the preprocessed arrays, the
  graph, and the score cache are shared read-only, while every mutable
  piece — the method's :class:`~repro.kernels.Workspace` scratch, the
  engine's ranking buffers, its lock and counters — is per worker.
  Replicas therefore run concurrently without aliasing scratch.  On the
  NumPy backend SciPy's CSR products and NumPy's copy/partition loops
  release the interpreter lock, so workers overlap inside those kernel
  calls on multi-core hosts; the Python between them (scheduling,
  ranking bookkeeping, building results) still takes turns;
* one shared :class:`~repro.serving.cache.ScoreCache` (``cache_size >
  0``) pools hits across all replicas;
* admission control bounds the queue (``max_pending`` →
  :class:`~repro.exceptions.ServerOverloaded`) and
  :class:`~repro.serving.metrics.LatencyStats` records every request's
  queue-time/compute-time split and p50/p95/p99.

Results are plain :class:`~repro.engine.QueryResult` records, identical
(up to the ``seconds``/``cached`` accounting fields) to what a serial
``Engine.batch`` over the same requests returns — concurrency never
changes scores or rankings.

:class:`repro.sharding.Router` is this class with one worker thread
serving on :meth:`Engine.shard` instead of on replicas.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, InvalidStateError
from typing import Iterable, Sequence

import numpy as np

from repro.engine import Engine, QueryRequest, QueryResult
from repro.exceptions import DeadlineExceeded, ParameterError
from repro.graph.graph import Graph
from repro.method import PPRMethod, validate_k
from repro.obs import profile as obs_profile
from repro.obs import trace as obs_trace
from repro.obs.exporter import ObsExporter, start_exporter
from repro.obs.logs import get_logger
from repro.resilience import faults
from repro.resilience.retry import RetryPolicy, call_with_retry
from repro.resilience.supervisor import Supervisor
from repro.serving.cache import ScoreCache
from repro.serving.metrics import LatencyStats
from repro.serving.scheduler import PendingRequest, Scheduler

__all__ = ["Server", "dispatch_batch", "resolve_future"]

_log = get_logger("serving")


def resolve_future(future: "Future", result=None, error=None) -> None:
    """Fulfil one client future, tolerating a concurrent ``cancel()`` —
    a client that timed out and cancelled between our cancelled() check
    and the set would otherwise raise ``InvalidStateError`` here and
    silently kill the worker thread."""
    try:
        if error is not None:
            future.set_exception(error)
        else:
            future.set_result(result)
    except InvalidStateError:
        pass  # the client cancelled; nobody is waiting for this one


def dispatch_batch(
    engine: Engine,
    metrics: LatencyStats,
    batch: Sequence[PendingRequest],
    retry: RetryPolicy | None = None,
) -> None:
    """Run one micro-batch on ``engine`` and fulfil its futures.

    Requests whose queue deadline (``QueryRequest.deadline_ms``) already
    passed fail fast with :class:`~repro.exceptions.DeadlineExceeded`
    before any compute — a batch that *starts* in time always completes.
    With a :class:`~repro.resilience.RetryPolicy`, retryable batch
    failures (worker death on a sharded engine) re-run the whole batch —
    ``Engine.batch`` is pure over its score cache, so a retried batch
    returns results bitwise identical to an undisturbed one.  A finally
    failing batch fails every member's future — clients see the
    exception, the dispatching worker survives.
    """
    dispatched_at = time.perf_counter()
    live: list[PendingRequest] = []
    for pending in batch:
        if (
            pending.deadline_at is not None
            and dispatched_at >= pending.deadline_at
        ):
            waited_ms = (dispatched_at - pending.submitted_at) * 1e3
            deadline_ms = getattr(
                pending.request, "deadline_ms", None
            )
            metrics.count("deadlines_exceeded")
            if pending.root_span is not None:
                pending.root_span.finish(
                    end=dispatched_at, outcome="deadline_exceeded"
                )
            resolve_future(
                pending.future,
                error=DeadlineExceeded(
                    waited_ms if deadline_ms is None else deadline_ms,
                    waited_ms,
                ),
            )
        else:
            live.append(pending)
    if not live:
        return

    # Tracing: every traced member gets a "scheduler" (queue-wait) span;
    # the batch's single "dispatch" span parents under the *first*
    # traced request — a batch is one unit of work, and one connected
    # tree beats per-member duplicates of identical compute spans.
    traced = [pending for pending in live if pending.trace_id is not None]
    for pending in traced:
        queue_span = obs_trace.start_span(
            "scheduler",
            pending.trace_id,
            parent_id=pending.root_span.span_id
            if pending.root_span is not None
            else None,
            begin=pending.submitted_at,
        )
        if queue_span is not None:
            queue_span.finish(end=dispatched_at)
    primary = traced[0] if traced else None
    dispatch_span = (
        obs_trace.start_span(
            "dispatch",
            primary.trace_id,
            parent_id=primary.root_span.span_id
            if primary.root_span is not None
            else None,
            begin=dispatched_at,
            batch=len(live),
        )
        if primary is not None
        else None
    )

    def run_batch():
        return engine.batch([pending.request for pending in live])

    phases: dict[str, float] = {}
    context = (
        obs_trace.use_context(primary.trace_id, dispatch_span.span_id)
        if dispatch_span is not None
        else obs_trace.use_context(None, None)
    )
    try:
        with obs_trace.collect_phases(phases), context:
            if retry is None:
                results = run_batch()
            else:
                results = call_with_retry(
                    run_batch,
                    retry,
                    on_retry=lambda error, delay_ms: metrics.count(
                        "retries"
                    ),
                )
    except BaseException as error:  # noqa: BLE001 - forwarded to clients
        metrics.count("failures", len(live))
        _log.warning(
            "batch of %d failed: %s", len(live), error, exc_info=True
        )
        if dispatch_span is not None:
            dispatch_span.finish(outcome="error")
        for pending in live:
            if pending.root_span is not None:
                pending.root_span.finish(
                    outcome="error", error=type(error).__name__
                )
            resolve_future(pending.future, error=error)
        return
    finished_at = time.perf_counter()
    if dispatch_span is not None:
        dispatch_span.finish(end=finished_at, outcome="ok")
    compute_share = (finished_at - dispatched_at) / len(live)
    phases["dispatch"] = finished_at - dispatched_at
    metrics.record_phases(phases)
    for pending, result in zip(live, results):
        queue_seconds = dispatched_at - pending.submitted_at
        total_seconds = finished_at - pending.submitted_at
        metrics.record(
            queue_seconds=queue_seconds,
            compute_seconds=compute_share,
            total_seconds=total_seconds,
        )
        # Server-side split stamped on the future *before* it resolves,
        # so a client unblocked by result() always sees it — the
        # ladder's load generator reads this to attribute its wall-clock
        # to queue vs compute.
        pending.future.repro_timing = {
            "queue_ms": queue_seconds * 1e3,
            "compute_ms": compute_share * 1e3,
            "total_ms": total_seconds * 1e3,
        }
        if pending.root_span is not None:
            pending.root_span.finish(end=finished_at, outcome="ok")
        resolve_future(pending.future, result=result)


class Server:
    """Concurrent micro-batching server over per-worker Engine replicas.

    Parameters
    ----------
    method:
        The RWR method to serve.  Preprocessed once (in the constructor,
        via the primary Engine) and then shared read-only by every
        worker replica.
    graph:
        Graph to preprocess for (optional when ``method`` already is).
    workers:
        Worker-thread count — one Engine replica each.
    max_batch / max_wait_ms:
        Micro-batching knobs (see :class:`~repro.serving.Scheduler`).
    max_pending:
        Admission bound; ``0`` disables backpressure.
    cache_size:
        Capacity of the *shared* :class:`ScoreCache`; ``0`` disables
        caching.
    stream_block / memory_budget_bytes:
        Forwarded to :class:`~repro.engine.Engine`.
    warm:
        Run one throwaway query per replica before accepting traffic
        (default).  This populates lazily-built shared state (decayed
        operators) serially, so worker threads never race to create it.
    tune:
        A :class:`repro.tune.TuneProfile`.  Supplies defaults for every
        knob the caller leaves at ``None`` — ``workers``, ``max_batch``,
        ``max_wait_ms`` — and flows into the primary Engine (block
        width, global kernel-thread knob).  Explicit arguments always
        win over the profile.
    pin:
        Pin each worker thread to its own core set
        (:func:`repro.tune.plan_pinning`).  Default: pin exactly when a
        tuned profile was given; pass ``False`` to override.  Degrades
        to unpinned with a :class:`~repro.tune.PinningWarning` where
        the platform cannot pin; results are identical either way.
    supervise:
        Heartbeat the worker threads and restart any that die on their
        own Engine replica (default; period from ``REPRO_HEARTBEAT_MS``
        unless ``heartbeat_ms`` overrides it).  Restarts count as
        ``respawns`` in :meth:`stats`.
    retry:
        A :class:`~repro.resilience.RetryPolicy` re-running a failed
        micro-batch when its error is retryable (worker death on a
        sharded engine).  Default ``None``: batch failures propagate to
        clients on the first occurrence, matching pre-resilience
        behaviour.
    obs_port:
        Attach a live :class:`~repro.obs.ObsExporter` (``/metrics``,
        ``/health``, ``/snapshot``, ``/traces``, ``/profile``) on this
        port (``0`` = ephemeral; read :attr:`exporter`).  Owned by the
        server and shut down by :meth:`close`.  Default ``None``
        consults ``REPRO_OBS_PORT`` and, when set, joins the shared
        per-process listener.  ``/health`` answers 503 while any worker
        thread is down or the scheduler is saturated.

    Examples
    --------
    >>> from repro import Server, community_graph, create_method
    >>> graph = community_graph(1000, avg_degree=10, seed=7)
    >>> with Server(create_method("tpa"), graph, workers=2) as server:
    ...     future = server.submit(QueryRequest(seed=0, k=10))
    ...     result = future.result()
    """

    def __init__(
        self,
        method: PPRMethod,
        graph: Graph | None = None,
        *,
        workers: int | None = None,
        max_batch: int | None = None,
        max_wait_ms: float | None = None,
        max_pending: int = 1024,
        cache_size: int = 0,
        stream_block: int | str | None = None,
        memory_budget_bytes: int | None = None,
        warm: bool = True,
        tune=None,
        pin: bool | None = None,
        supervise: bool = True,
        heartbeat_ms: float | None = None,
        retry: RetryPolicy | None = None,
        obs_port: int | None = None,
    ):
        # Precedence: explicit argument > tuned profile > static default.
        if workers is None:
            workers = int(tune.workers) if tune is not None else 2
        if max_batch is None:
            max_batch = int(tune.max_batch) if tune is not None else 32
        if max_wait_ms is None:
            max_wait_ms = float(tune.max_wait_ms) if tune is not None else 2.0
        if pin is None:
            pin = tune is not None
        if workers < 1:
            raise ParameterError("workers must be at least 1")
        if cache_size < 0:
            raise ParameterError("cache_size must be non-negative")
        # Cheap argument validation first: a max_batch typo must not
        # surface only after minutes of preprocessing.
        self._scheduler = Scheduler(
            max_batch=max_batch,
            max_wait_ms=max_wait_ms,
            max_pending=max_pending,
        )
        # Counters exist before any serving engine does: a shard respawn
        # during the warm probe already lands in ``respawns``.
        self._metrics = LatencyStats()
        self._retry = retry
        self._closed = False
        self._engines: list[Engine] = []
        self._threads: list[threading.Thread] = []
        self._pinning: list[tuple[int, ...]] | None = None
        self._supervisor: Supervisor | None = None
        # Guards thread revival: the supervisor's repair and close() must
        # not race to replace the same slot.
        self._revive_lock = threading.Lock()
        self._obs_name = f"{type(self).__name__.lower()}-{id(self):x}"
        # The port binds before anything starts, so a busy one fails with
        # nothing to release; any later failure closes what did start.
        self._exporter, self._owns_exporter = start_exporter(obs_port)
        try:
            self._cache = ScoreCache(cache_size) if cache_size else None
            self._primary = Engine(
                method,
                graph,
                stream_block=stream_block,
                memory_budget_bytes=memory_budget_bytes,
                cache=self._cache,
                tune=tune,
            )
            self._engines = self._serving_engines(workers)
            if warm:
                # One serial pass per serving engine: builds the shared
                # decayed operator before any concurrency, and
                # sizes each engine's retained workspace.  Bypasses the
                # engines (no stats/cache pollution) and runs in the
                # *serving* id space, so any valid node works.
                probe = np.zeros(1, dtype=np.int64)
                for engine in self._engines:
                    engine.method.query_many(probe)
            if pin:
                from repro.tune.pinning import plan_pinning

                self._pinning = plan_pinning(workers)
            for index in range(workers):
                thread = self._make_thread(index)
                thread.start()
                self._threads.append(thread)
            if supervise:
                self._supervisor = Supervisor(
                    self._probe_threads,
                    self._revive_thread,
                    name="repro-serve-supervisor",
                    interval_ms=heartbeat_ms,
                )
        except BaseException:
            self.close(drain=False)
            raise
        # Sampler (REPRO_PROFILE-gated no-op when off); readiness is
        # reported only once everything behind it runs.
        obs_profile.arm()
        if self._exporter is not None:
            self._exporter.add_check(self._obs_name, self._health_check)

    def _serving_engines(self, workers: int) -> list[Engine]:
        """One Engine per worker thread.  Every worker serves on a
        replica — never on the primary, whose method is the caller's
        live object (they may keep querying it outside the server;
        sharing its workspace scratch with a worker thread would corrupt
        scores)."""
        return [self._primary.replicate() for _ in range(workers)]

    def _make_thread(self, index: int) -> threading.Thread:
        return threading.Thread(
            target=self._worker_loop,
            args=(
                self._engines[index],
                (
                    self._pinning[index]
                    if self._pinning is not None
                    else None
                ),
            ),
            name=f"repro-serve-{index}",
            daemon=True,
        )

    def _probe_threads(self):
        """Indices of worker threads that died (crash, injected fault)."""
        if self._closed:
            return ()
        return [
            index for index, thread in enumerate(self._threads)
            if not thread.is_alive()
        ]

    def _revive_thread(self, index: int) -> None:
        """Restart a dead worker on its own serving engine.

        The engine itself is safe to reuse: a thread only dies *between*
        batches (dispatch_batch contains every per-batch failure), so its
        workspace is never left mid-computation.
        """
        with self._revive_lock:
            if self._closed or self._threads[index].is_alive():
                return
            thread = self._make_thread(index)
            self._threads[index] = thread
            thread.start()
            self._metrics.count("respawns")

    # -- introspection ---------------------------------------------------------

    @property
    def workers(self) -> int:
        """Worker-thread (= serving-engine) count."""
        return len(self._engines)

    @property
    def engine(self) -> Engine:
        """The primary Engine (whose constructor preprocessed).  It
        never serves a worker thread — that is what the replicas are
        for — so it is safe to use directly alongside the server."""
        return self._primary

    @property
    def cache(self) -> ScoreCache | None:
        """The shared score cache, when ``cache_size > 0``."""
        return self._cache

    @property
    def metrics(self) -> LatencyStats:
        """The server's latency recorder."""
        return self._metrics

    @property
    def pending(self) -> int:
        """Requests currently queued for dispatch."""
        return self._scheduler.pending

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def exporter(self) -> ObsExporter | None:
        """The attached observability endpoint, if any."""
        return self._exporter

    def _liveness(self) -> tuple[bool, dict]:
        """``(all alive, detail)`` of the workers behind ``/health``."""
        alive = sum(1 for thread in self._threads if thread.is_alive())
        return alive == len(self._threads), {
            "workers_alive": alive,
            "workers": len(self._threads),
        }

    def _health_check(self) -> dict:
        """Readiness for ``/health``: every worker alive and the
        scheduler not saturated.  Runs on exporter scrape threads; reads
        only cheap state."""
        if self._closed:
            return {"ready": False, "reason": "closed"}
        alive, detail = self._liveness()
        pending = self._scheduler.pending
        max_pending = self._scheduler.max_pending
        saturated = bool(max_pending) and pending >= max_pending
        return {
            "ready": alive and not saturated,
            **detail,
            "pending": pending,
            "max_pending": max_pending,
            "backpressure": saturated,
        }

    def stats(self) -> dict:
        """One merged view: latency snapshot, queue depth, worker count,
        serving-engine counters summed, shared-cache counters, and the
        shard deployment's counters under ``shards`` (``None`` on a
        threads-only server).  A :class:`repro.sharding.Router` reports
        the same keys, with ``workers`` 1 and the shard processes'
        placement as ``pinning``."""
        snapshots = [engine.stats() for engine in self._engines]
        shards = snapshots[0].get("shards")
        merged = self._metrics.snapshot()
        merged.update(
            workers=self.workers,
            pending=self.pending,
            max_batch=self._scheduler.max_batch,
            max_wait_ms=self._scheduler.max_wait_ms,
            overloads=self._scheduler.overloads,
            pinning=(
                [list(cpus) for cpus in self._pinning]
                if self._pinning is not None
                else (shards or {}).get("pinning")
            ),
            queries_served=sum(snap["queries_served"] for snap in snapshots),
            online_seconds=sum(snap["online_seconds"] for snap in snapshots),
            cache=self._cache.stats() if self._cache is not None else None,
            shards=shards,
        )
        return merged

    # -- the client surface ----------------------------------------------------

    def submit(self, request: QueryRequest) -> "Future[QueryResult]":
        """Queue one request; returns the future its
        :class:`~repro.engine.QueryResult` lands on.

        Validation happens *here*, on the submitting thread — a
        malformed request raises immediately instead of poisoning the
        micro-batch it would have joined.  Raises
        :class:`~repro.exceptions.ServerOverloaded` under backpressure
        and :class:`RuntimeError` after :meth:`close`.
        """
        if self._closed:
            raise RuntimeError("server is closed")
        if request.k is not None:
            validate_k(request.k)
        self.engine.method.validate_seed(request.seed)
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
        """Submit a request sequence and wait for every result.

        Results come back in request order, exactly as
        :meth:`Engine.batch` orders them.  The requests flow through the
        same scheduler as everyone else's, so they may coalesce with
        concurrent traffic.  If admission control rejects a request
        mid-sequence, the already-submitted ones are cancelled where
        still possible before the
        :class:`~repro.exceptions.ServerOverloaded` propagates — a
        retry must not double-compute the prefix.
        """
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
        """Shut the server down.

        ``drain=True`` (default) lets workers finish every queued
        request before exiting; ``drain=False`` cancels queued requests
        (their futures report cancelled).  Then every serving engine is
        closed — a no-op for replicas; a sharded engine stops its worker
        processes and unlinks its ``/dev/shm`` segments.  Idempotent.
        """
        if self._closed:
            return
        self._closed = True
        # Supervisor down first (joined): after this no revival can race
        # the drain below.
        if self._supervisor is not None:
            self._supervisor.close()
        if not drain:
            self._scheduler.cancel_pending()
        self._scheduler.close()
        for thread in self._threads:
            thread.join(timeout)
        for engine in self._engines:
            engine.close()
        exporter, self._exporter = self._exporter, None
        if exporter is not None:
            exporter.remove_check(self._obs_name)
            exporter.remove_collector(self._obs_name)
            if self._owns_exporter:
                exporter.close()

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- the worker loop -------------------------------------------------------

    def _worker_loop(
        self, engine: Engine, pin_cpus: tuple[int, ...] | None = None
    ) -> None:
        if pin_cpus:
            # sched_setaffinity(0, ...) binds the calling *thread* on
            # Linux, so each worker lands on its own core set.  A failed
            # pin warns and the worker serves unpinned.
            from repro.tune.pinning import pin_current

            pin_current(pin_cpus)
        scheduler = self._scheduler
        metrics = self._metrics
        while True:
            # Chaos hook: simulate this worker thread dying.  Placed
            # *before* next_batch so a killed worker never takes queued
            # futures down with it — the batch stays in the scheduler for
            # a surviving (or revived) worker.
            if faults.fire("server_worker_crash") is not None:
                return
            batch = scheduler.next_batch()
            if batch is None:
                return  # closed and drained
            dispatch_batch(engine, metrics, batch, retry=self._retry)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(method={self.engine.method.name}, "
            f"workers={self.workers}, "
            f"max_batch={self._scheduler.max_batch}, "
            f"pending={self.pending})"
        )
