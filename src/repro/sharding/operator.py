"""The sharded propagation operator: a graph-protocol facade over worker
processes.

:class:`ShardedOperator` implements exactly the substrate surface the
iterate loops consume — ``num_nodes``, ``propagate``,
``propagate_decayed`` — but executes every product as a **distributed
row-stripe sweep**: the operand is scattered into the shared ``X``
panel, every :class:`~repro.sharding.ShardWorker` computes its own row
stripe of the result with a block-local :func:`repro.kernels.spmm`, and
the stripes are gathered back from ``Y`` and reduced (concatenated in
row order; the dangling-mass correction is applied router-side exactly
as the underlying substrate applies it).

Because each output row is produced by the same kernel arithmetic in the
same accumulation order as the single-process product, a sweep through
the sharded operator is **bitwise identical** to one through the source
graph — which is what lets an unmodified
:class:`~repro.method.PPRMethod` online phase (TPA's family sweep, CPI,
any power-iteration baseline) run against it and reproduce its serial
scores exactly.

Structural attributes the online phases consult (``transition``,
``adjacency``, ``out_neighbors``, ...) delegate to the source graph, so
sparse-iterate shortcuts keep working; only the propagation itself is
distributed.  Operands wider than the shared panels are processed in
column chunks — columns propagate independently, so chunking is bitwise
neutral.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
from typing import Sequence

import numpy as np

from repro import kernels
from repro.exceptions import ParameterError, WorkerFailure
from repro.obs import metrics as obs_metrics
from repro.obs import profile as obs_profile
from repro.obs import trace as obs_trace
from repro.resilience.reaper import reap_orphan_segments
from repro.resilience.supervisor import (
    Supervisor,
    heartbeat_interval_ms,
    missed_beat_threshold,
)
from repro.sharding.plan import ShardPlan
from repro.sharding.store import DEFAULT_PANEL_COLS, ShardStore
from repro.sharding.worker import DEFAULT_STEP_TIMEOUT, ShardWorker

__all__ = ["ShardedOperator"]

#: Attempts one sweep chunk gets before its failure propagates: the
#: original pass plus recoveries.  Each recovery respawns every dead or
#: wedged worker, so repeated failures mean something systemic (a
#: poisoned stripe, a fault plan that kills every generation) and must
#: surface instead of looping.
_SWEEP_ATTEMPTS = 3


class _SweepFailed(Exception):
    """Internal: one step fan-out failed; carries every worker failure
    so recovery can treat died/timeout (respawn) and error (plain
    retry) members differently."""

    def __init__(self, failures: list[WorkerFailure]):
        self.failures = failures
        super().__init__(f"{len(failures)} worker(s) failed")


def _fold_worker_counters(deltas: dict, shard: int) -> None:
    """Fold counter increments a worker shipped on a step reply into
    the router-side registry, adding a ``shard`` label.

    Exporter and CLI then show shard-worker truth — counters earned in
    a child process are invisible otherwise (each process has its own
    registry).  Best-effort: a family name that already exists here
    with different labels must degrade to a dropped delta, never a
    failed sweep.
    """
    registry = obs_metrics.get_registry()
    for name, rows in deltas.items():
        for row in rows:
            try:
                labelnames, labelvalues, delta, help_text = row
                labels = dict(zip(labelnames, labelvalues))
                labels.setdefault("shard", str(shard))
                family = registry.counter(
                    name, help_text, tuple(labels)
                )
                family.labels(**labels).inc(float(delta))
            except Exception:  # noqa: BLE001 - observability, not serving
                continue


def _default_start_method() -> str:
    """``fork`` where available, else ``spawn``.

    Forking is fast and inherits nothing stateful: the kernel stripe
    pool restarts empty in the child.
    """
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


class ShardedOperator:
    """Distribute a substrate's propagation across shard worker processes.

    Parameters
    ----------
    graph:
        Source substrate: an in-memory :class:`~repro.graph.graph.Graph`
        or any duck-typed operator exposing ``transition_transpose`` or
        DiskGraph-style stripes.  Its rows are published into shared
        memory once, at construction.
    plan:
        The :class:`ShardPlan` assigning row stripes to workers.
    panel_cols:
        Column capacity of the shared iterate panels (wider operands are
        chunked).
    start_method:
        ``multiprocessing`` start method; default ``fork`` where
        available, else ``spawn``.
    step_timeout:
        Seconds to wait for any worker's step reply before declaring the
        deployment wedged.
    warm:
        Run one throwaway sweep at construction so workers fault in
        their stripe mappings before traffic.
    pin:
        Pin each worker process to its own disjoint core set
        (:func:`repro.tune.plan_pinning`, NUMA-aware).  Degrades to
        unpinned with a :class:`~repro.tune.PinningWarning` when the
        platform or the allowed cpu set cannot support it; results are
        identical either way.
    supervise:
        Run a :class:`~repro.resilience.Supervisor` that heartbeats the
        workers between sweeps and respawns dead or unresponsive ones
        (default).  Sweeps recover from worker death regardless — the
        supervisor only shortens detection for failures that happen
        while the deployment is idle.
    heartbeat_ms:
        Supervisor heartbeat period; default ``REPRO_HEARTBEAT_MS``
        (1000 ms).
    """

    def __init__(
        self,
        graph,
        plan: ShardPlan,
        panel_cols: int = DEFAULT_PANEL_COLS,
        start_method: str | None = None,
        step_timeout: float = DEFAULT_STEP_TIMEOUT,
        warm: bool = True,
        pin: bool = False,
        supervise: bool = True,
        heartbeat_ms: float | None = None,
    ):
        if plan.num_rows != graph.num_nodes:
            raise ParameterError(
                f"plan covers {plan.num_rows} rows but the graph has "
                f"{graph.num_nodes}"
            )
        self._source = graph
        self._plan = plan
        self._n = int(graph.num_nodes)
        self._step_timeout = float(step_timeout)
        self._steps = 0
        self._republishes = 0
        self._respawns = 0
        self._sweep_retries = 0
        self._closed = False
        #: Called (no args) after every worker respawn — the Router
        #: hooks its metrics counter here.
        self.on_respawn = None
        # Serializes pipe traffic: the protocol is strict request-reply
        # per worker, so supervisor pings must never interleave with a
        # sweep's steps or a republish's remaps.
        self._comm_lock = threading.Lock()
        # Dangling data is copied out of the source so the correction
        # never touches it mid-sweep (and DiskGraph sources stay cold).
        # Mutable substrates are the exception: their dangling set moves
        # with the overlay, so it is re-read live each sweep.
        dangling = getattr(graph, "dangling_nodes", None)
        self._dangling = (
            np.array(dangling, dtype=np.int64)
            if dangling is not None and len(dangling)
            else np.empty(0, dtype=np.int64)
        )
        self._dangling_policy = getattr(graph, "dangling_policy", "error")
        # A mutable substrate (repro.dynamic.DynamicGraph) publishes its
        # immutable *base* into shared memory; the overlay delta is
        # folded in router-side each sweep, and a compaction triggers a
        # partial stripe republish (see _sweep).
        self._dynamic = callable(getattr(graph, "base_snapshot", None))
        if self._dynamic:
            self._published_epoch, publish_source = graph.base_snapshot()
        else:
            self._published_epoch, publish_source = 0, graph
        self._store = ShardStore.build(
            publish_source, plan, panel_cols=panel_cols
        )
        method = (
            start_method if start_method is not None
            else _default_start_method()
        )
        # Retained for respawns: a replacement worker must come up under
        # the same start method and pinning as the one it replaces.
        self._context = multiprocessing.get_context(method)
        self._pinning: list[tuple[int, ...]] | None = None
        if pin:
            from repro.tune.pinning import plan_pinning

            self._pinning = plan_pinning(plan.num_shards)
        self._generations = [0] * plan.num_shards
        self._heartbeat_ms = (
            heartbeat_interval_ms() if heartbeat_ms is None
            else float(heartbeat_ms)
        )
        # A worker that misses this many beats' worth of ping time is
        # declared hung; the sweep path uses the (generous) step timeout
        # instead, since a step legitimately takes compute time.
        self._ping_timeout = (
            self._heartbeat_ms * missed_beat_threshold() / 1e3
        )
        self._supervisor: Supervisor | None = None
        self._workers: list[ShardWorker] = []
        try:
            for index, spec in enumerate(self._store.specs):
                self._workers.append(self._spawn_worker(index, spec))
            for worker in self._workers:
                worker.wait_ready(self._step_timeout)
            if warm:
                # Undecayed probe: warms the stripe mappings without
                # leaving a needless decay-scaled data copy in every
                # worker's stripe cache (decay=None shares the base
                # arrays zero-copy).
                self.propagate(np.zeros((self._n, 1)))
            if supervise:
                self._supervisor = Supervisor(
                    self._probe_workers,
                    self._repair_worker,
                    name="repro-shard-supervisor",
                    interval_ms=self._heartbeat_ms,
                )
        except BaseException:
            self.close()
            raise

    # -- graph protocol --------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return self._n

    @property
    def dangling_nodes(self) -> np.ndarray:
        return self._dangling

    @property
    def dangling_policy(self) -> str:
        return self._dangling_policy

    @property
    def plan(self) -> ShardPlan:
        return self._plan

    @property
    def source(self):
        """The substrate whose operator the shards serve."""
        return self._source

    @property
    def num_shards(self) -> int:
        return self._plan.num_shards

    @property
    def closed(self) -> bool:
        return self._closed

    def __getattr__(self, name: str):
        # Structural delegation (adjacency, transition, out_neighbors,
        # num_edges, ...): anything not about propagation belongs to the
        # source substrate.  Underscored names never delegate — a missing
        # internal is a bug here, not there.
        if name.startswith("_"):
            raise AttributeError(name)
        return getattr(self._source, name)

    def propagate(self, x: np.ndarray) -> np.ndarray:
        """``Ã^T x`` via one distributed row-stripe sweep."""
        return self._sweep(x, decay=None, out=None)

    def propagate_decayed(
        self, x: np.ndarray, decay: float, out: np.ndarray | None = None
    ) -> np.ndarray:
        """``decay · Ã^T x`` via one distributed row-stripe sweep.

        Workers fold ``decay`` into their stripe's value array exactly
        as the in-memory graph pre-scales its operator, so the result is
        bitwise identical to ``graph.propagate_decayed(x, decay)``.
        """
        return self._sweep(x, decay=float(decay), out=out)

    # -- the distributed sweep -------------------------------------------------

    def _sweep(
        self,
        x: np.ndarray,
        decay: float | None,
        out: np.ndarray | None,
    ) -> np.ndarray:
        if self._closed:
            raise RuntimeError("sharded operator is closed")
        x = np.asarray(x)
        if x.shape[0] != self._n or x.ndim not in (1, 2):
            raise ParameterError(
                f"operand shape {x.shape} does not match n={self._n}"
            )
        dtype = np.dtype(np.float32 if x.dtype == np.float32 else np.float64)
        if x.dtype != dtype:
            x = x.astype(dtype)
        if out is not None and (
            out.shape != x.shape
            or out.dtype != dtype
            or not out.flags.c_contiguous
            or np.shares_memory(out, x)
        ):
            out = None
        if out is None:
            out = np.empty(x.shape, dtype=dtype)

        # Dynamic sources may be compacted concurrently: each attempt
        # pins one published base epoch, computes against it, and retries
        # if a compaction republished the stripes mid-sweep — so a sweep
        # never mixes two bases' stripes in one result.
        for _attempt in range(4):
            published = self._published_epoch
            if self._dynamic:
                self._maybe_republish()
                published = self._published_epoch
            if x.ndim == 1:
                self._dispatch_chunk(x, out, 0, dtype, decay)
            else:
                width = self._store.panel_cols
                for start in range(0, x.shape[1], width):
                    stop = min(start + width, x.shape[1])
                    # Column slices go to the panel copy as-is: np.copyto
                    # handles the strided source, so no staging copy here.
                    self._dispatch_chunk(
                        x[:, start:stop], out[:, start:stop],
                        stop - start, dtype, decay,
                    )
            if self._dynamic and getattr(self._source, "dirty", False):
                # Fold the overlay delta router-side: workers only ever
                # see the immutable published base, so pending edits are
                # one dense-x-sparse product away, never a republish.
                self._source.apply_delta(x, decay, out)
            dangling, policy = self._live_dangling()
            if dangling.size and policy == "uniform":
                leaked = x[dangling].sum(axis=0)
                if np.any(leaked != 0.0):
                    if decay is None:
                        out += leaked / self._n
                    else:
                        out += (decay / self._n) * leaked
            if not self._dynamic or self._source.base_epoch == published:
                break
        return out

    def _live_dangling(self) -> tuple[np.ndarray, str]:
        """The dangling set the correction must use *now* — re-read from
        a mutable source (edits move it), the construction-time copy
        otherwise."""
        if not self._dynamic:
            return self._dangling, self._dangling_policy
        dangling = self._source.dangling_nodes
        if len(dangling):
            return (
                np.asarray(dangling, dtype=np.int64), self._dangling_policy
            )
        return np.empty(0, dtype=np.int64), self._dangling_policy

    # -- dynamic-source republish ------------------------------------------------

    def republish(self) -> bool:
        """Re-publish stripes if the source was compacted since the last
        publish; returns whether a republish happened.  Sweeps call this
        automatically — it is public for tests and eager callers."""
        if self._closed:
            raise RuntimeError("sharded operator is closed")
        if not self._dynamic:
            return False
        return self._maybe_republish()

    def _maybe_republish(self) -> bool:
        epoch, base = self._source.base_snapshot()
        if epoch == self._published_epoch:
            return False
        # Only stripes holding compaction-dirty rows are re-extracted;
        # clean stripes are copied segment-to-segment inside build().
        rows = self._source.dirty_rows_since(self._published_epoch)
        if rows is None:
            # Compaction history no longer reaches the published epoch —
            # rebuild everything.
            new_store = ShardStore.build(
                base, self._plan, panel_cols=self._store.panel_cols
            )
        else:
            begins = np.array(
                [
                    self._plan.shard_rows(shard)[0]
                    for shard in range(self._plan.num_shards)
                ],
                dtype=np.int64,
            )
            dirty_shards = np.unique(
                np.searchsorted(begins, rows, side="right") - 1
            )
            new_store = ShardStore.build(
                base,
                self._plan,
                panel_cols=self._store.panel_cols,
                previous=self._store,
                dirty_shards=dirty_shards.tolist(),
            )
        try:
            # Every worker rebinds (the panels moved with the store); the
            # old segments are only unlinked once all replies are in, so
            # no worker ever computes against a vanished mapping.  A
            # worker that dies mid-remap — or rebinds but drops its ack —
            # is respawned directly against the *new* store, so the swap
            # completes regardless.
            with self._comm_lock:
                for index, (worker, spec) in enumerate(
                    zip(self._workers, new_store.specs)
                ):
                    try:
                        worker.send_remap(
                            spec, new_store.segment_names, self._step_timeout
                        )
                    except WorkerFailure:
                        self._respawn_worker(
                            index, spec=spec,
                            segments=new_store.segment_names,
                        )
        except BaseException:
            new_store.close()
            raise
        old_store = self._store
        self._store = new_store
        self._published_epoch = epoch
        self._republishes += 1
        obs_metrics.get_registry().counter(
            "repro_republishes_total",
            "Stripe republishes after dynamic-graph compactions.",
        ).inc()
        old_store.close()
        return True

    def _dispatch_chunk(
        self,
        x: np.ndarray,
        out: np.ndarray,
        ncols: int,
        dtype: np.dtype,
        decay: float | None,
    ) -> None:
        """Scatter one operand chunk, step every worker, gather stripes.

        Worker failures recover *inline*: dead or wedged workers are
        respawned against the live store and the whole chunk re-runs —
        every stripe is recomputed from the intact ``X`` panel, so a
        recovered chunk is bitwise identical to an undisturbed one.
        Column chunks are independent, so recovery never touches chunks
        already gathered.
        """
        context = obs_trace.current_context()
        with self._comm_lock:
            for attempt in range(_SWEEP_ATTEMPTS):
                panel_x = self._store.panel("x", ncols, dtype)
                panel_y = self._store.panel("y", ncols, dtype)
                np.copyto(panel_x, x)
                # Each attempt is its own "sweep" span: a retried chunk
                # shows up as attempt=2 under the same trace id, with the
                # respawned worker's child span hanging beneath it.
                sweep_span = (
                    obs_trace.Span(
                        "sweep",
                        context[0],
                        parent_id=context[1],
                        attempt=attempt + 1,
                        ncols=ncols,
                    )
                    if context is not None
                    else None
                )
                sweep_begin = time.perf_counter()
                try:
                    self._step_all(
                        ncols,
                        dtype,
                        decay,
                        trace=(
                            (context[0], sweep_span.span_id, attempt + 1)
                            if sweep_span is not None
                            else None
                        ),
                    )
                except _SweepFailed as wreck:
                    obs_trace.add_phase(
                        "sweep", time.perf_counter() - sweep_begin
                    )
                    if sweep_span is not None:
                        sweep_span.finish(outcome="retried")
                    if attempt + 1 >= _SWEEP_ATTEMPTS:
                        raise wreck.failures[0]
                    self._sweep_retries += 1
                    obs_metrics.get_registry().counter(
                        "repro_sweep_retries_total",
                        "Sweep chunks re-run after worker failures.",
                    ).inc()
                    self._recover(wreck.failures)
                    continue
                obs_trace.add_phase(
                    "sweep", time.perf_counter() - sweep_begin
                )
                if sweep_span is not None:
                    sweep_span.finish(outcome="ok")
                with obs_trace.phase("gather"):
                    np.copyto(out, panel_y)
                self._steps += 1
                return

    def _step_all(
        self,
        ncols: int,
        dtype: np.dtype,
        decay: float | None,
        trace: tuple[str, str, int] | None = None,
    ) -> None:
        """One step fan-out; raises :class:`_SweepFailed` with every
        member failure (the fan-in drains all live workers even after
        one fails, so survivors are never left with un-awaited
        replies the sequence numbers would have to discard later).
        Step replies carry each worker's measured sweep seconds (fed to
        the ``repro_sweep_seconds`` histogram) and, for traced requests,
        the worker-side child spans to adopt."""
        failures: list[WorkerFailure] = []
        stepped: list[ShardWorker] = []
        for worker in self._workers:
            try:
                worker.send_step(ncols, dtype, decay, trace=trace)
            except WorkerFailure as failure:
                failures.append(failure)
            else:
                stepped.append(worker)
        sweep_seconds = obs_metrics.get_registry().histogram(
            "repro_sweep_seconds",
            "Worker-measured per-shard sweep step time.",
            labelnames=("shard", "backend"),
        )
        for worker in stepped:
            try:
                detail = worker.wait_ok(self._step_timeout)
            except WorkerFailure as failure:
                failures.append(failure)
            else:
                if isinstance(detail, dict):
                    arrived_at = time.perf_counter()
                    sweep_seconds.labels(
                        shard=worker.shard, backend=kernels.get_backend()
                    ).observe(float(detail.get("seconds", 0.0)))
                    if detail.get("spans"):
                        obs_trace.ingest_spans(
                            detail["spans"], rebase_end=arrived_at
                        )
                    if detail.get("profile"):
                        obs_profile.ingest(detail["profile"])
                    if detail.get("counters"):
                        _fold_worker_counters(
                            detail["counters"], worker.shard
                        )
        if failures:
            raise _SweepFailed(failures)

    def _recover(self, failures: list[WorkerFailure]) -> None:
        """Respawn every worker whose failure was process-level.

        ``error`` failures (the worker forwarded an exception) leave the
        process alone — it is healthy and mid-protocol — while ``died``
        and ``timeout`` (hung) workers are killed and replaced.  Called
        with the comm lock held.
        """
        for failure in failures:
            if failure.kind in ("died", "timeout", "init"):
                self._respawn_worker(failure.shard)

    def _respawn_worker(
        self,
        index: int,
        spec=None,
        segments: tuple[str, str, str] | None = None,
    ) -> None:
        """Replace worker ``index`` with a fresh process bound to the
        live store (or the explicit ``spec``/``segments`` of a store
        being swapped in).  Called with the comm lock held."""
        old = self._workers[index]
        old.kill(timeout=self._ping_timeout)
        self._generations[index] += 1
        worker = self._spawn_worker(
            index,
            self._store.specs[index] if spec is None else spec,
            segments=segments,
        )
        worker.wait_ready(self._step_timeout)
        self._workers[index] = worker
        self._respawns += 1
        obs_metrics.get_registry().counter(
            "repro_shard_respawns_total",
            "Shard worker processes replaced after death or hang.",
            labelnames=("shard",),
        ).labels(shard=index).inc()
        hook = self.on_respawn
        if hook is not None:
            hook()

    def _spawn_worker(
        self, index: int, spec, segments: tuple[str, str, str] | None = None
    ) -> ShardWorker:
        return ShardWorker(
            self._context,
            spec,
            self._store.segment_names if segments is None else segments,
            self._plan.num_shards,
            pin_cpus=(
                self._pinning[index] if self._pinning is not None else None
            ),
            generation=self._generations[index],
        )

    # -- supervision -------------------------------------------------------------

    def _probe_workers(self):
        """Unhealthy worker indices, probed without disturbing traffic.

        Process liveness is always checked (lock-free and cheap); the
        deeper pipe ``ping`` only runs when no sweep holds the comm lock
        — a busy deployment is its own liveness proof, and the sweep
        path detects failures faster than any heartbeat."""
        if self._closed:
            return ()
        dead = [
            index for index, worker in enumerate(self._workers)
            if not worker.alive
        ]
        if dead:
            return dead
        if not self._comm_lock.acquire(blocking=False):
            return ()
        try:
            if self._closed:
                return ()
            unhealthy = []
            for index, worker in enumerate(self._workers):
                try:
                    worker.ping(self._ping_timeout)
                except WorkerFailure:
                    unhealthy.append(index)
            return unhealthy
        finally:
            self._comm_lock.release()

    def _repair_worker(self, index: int) -> None:
        if self._closed:
            return
        with self._comm_lock:
            if self._closed:
                return
            worker = self._workers[index]
            if worker.alive:
                try:
                    # It may have been merely slow; a clean ping means
                    # the sequence numbers already absorbed the past.
                    worker.ping(self._ping_timeout)
                    return
                except WorkerFailure:
                    pass
            self._respawn_worker(index)

    # -- introspection / lifecycle ---------------------------------------------

    def shard_stats(self) -> dict:
        """Deployment shape plus sweep counters."""
        return {
            "num_shards": self.num_shards,
            "shard_rows": [
                list(self._plan.shard_rows(s)) for s in range(self.num_shards)
            ],
            "shard_nnz": [spec.nnz for spec in self._store.specs],
            "shared_bytes": self._store.nbytes(),
            "pinning": (
                [list(cpus) for cpus in self._pinning]
                if self._pinning is not None
                else None
            ),
            "steps": self._steps,
            "republishes": self._republishes,
            "published_epoch": self._published_epoch,
            "workers_alive": sum(
                1 for worker in self._workers if worker.alive
            ),
            "respawns": self._respawns,
            "sweep_retries": self._sweep_retries,
            "generations": list(self._generations),
            "supervisor": (
                self._supervisor.stats()
                if self._supervisor is not None
                else None
            ),
        }

    def workers(self) -> Sequence[ShardWorker]:
        return tuple(self._workers)

    def close(self) -> None:
        """Drain and stop every worker, unlink the shared segments, and
        sweep any orphans earlier crashes left behind (idempotent)."""
        if self._closed:
            return
        self._closed = True
        # The supervisor goes first (and is joined): once it is down, no
        # repair can race the worker teardown below for the pipes.
        if self._supervisor is not None:
            try:
                self._supervisor.close()
            except Exception:  # pragma: no cover - teardown best effort
                pass
        for worker in self._workers:
            try:
                worker.stop()
            except Exception:  # pragma: no cover - teardown best effort
                pass
        self._workers = []
        self._store.close()
        reap_orphan_segments()

    def __enter__(self) -> "ShardedOperator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - safety net
        try:
            self.close()
        except Exception:
            pass

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardedOperator(n={self._n}, shards={self.num_shards}, "
            f"closed={self._closed})"
        )
