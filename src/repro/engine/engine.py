"""The batched query engine: preprocess once, answer seed batches forever.

The paper motivates TPA with serving workloads — Twitter's "Who to Follow"
runs top-500 RWR queries for millions of users against one preprocessed
graph.  :class:`Engine` packages that lifecycle: it owns a preprocessed
:class:`~repro.method.PPRMethod`, validates request batches in bulk, routes
them through the vectorized :meth:`~repro.method.PPRMethod.query_many`
online phase, optionally caches score vectors per seed (LRU), and returns
:class:`QueryResult` records that carry the measurements every consumer
used to re-derive by hand (wall-time, preprocessed bytes, error bound).
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from repro import kernels
from repro.exceptions import ParameterError
from repro.graph.graph import Graph
from repro.kernels import select_top_k_many
from repro.method import (
    PPRMethod,
    banned_mask,
    banned_mask_many,
    select_top_k,
    validate_k,
)
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from repro.serving.cache import ScoreCache

__all__ = ["QueryRequest", "QueryResult", "Engine"]

#: Default column-block width of the streamed top-k path: batches larger
#: than this are scored block by block with selection fused into the
#: loop, so the full ``n x batch`` score matrix never materializes.
_DEFAULT_STREAM_BLOCK = 128

#: Memory budget backing ``stream_block="auto"`` when the caller gives
#: none: the streamed panels (method ping-pong iterates + score panel +
#: exclusion mask) stay within ~64 MiB.
_DEFAULT_STREAM_BUDGET_BYTES = 64 << 20

#: Ceiling of the derived block width — beyond this the fused selection
#: kernels stop gaining and latency per block dominates.
_MAX_STREAM_BLOCK = 4096


@dataclass(frozen=True)
class QueryRequest:
    """One RWR query against a preprocessed graph.

    Attributes
    ----------
    seed:
        Query node (compact id).
    k:
        ``None`` requests the full score vector; an integer requests the
        top-``k`` ranking instead (ids plus their scores).
    exclude_seed:
        For top-k requests, drop the seed from the ranking (it always
        carries at least mass ``c``).  Ignored for full-vector requests.
    exclude_neighbors:
        For top-k requests, also drop the seed's existing out-neighbors —
        the recommendation setting where known links are not re-suggested.
    deadline_ms:
        Serving-path queue deadline.  A request still waiting in the
        scheduler this many milliseconds after submission fails fast
        with :class:`~repro.exceptions.DeadlineExceeded` instead of
        dispatching; once a batch starts computing it always completes.
        ``None`` (default) waits indefinitely.  Ignored by direct
        ``Engine.query`` / ``Engine.batch`` calls, and excluded from
        cache identity — a deadline bounds queueing, not the answer.
    """

    seed: int
    k: int | None = None
    exclude_seed: bool = True
    exclude_neighbors: bool = False
    deadline_ms: float | None = None


@dataclass(frozen=True)
class QueryResult:
    """Structured outcome of one query.

    Exactly one of ``scores`` / (``top_nodes``, ``top_scores``) is
    populated, matching the request shape.

    Attributes
    ----------
    seed:
        The queried node.
    method:
        Name of the answering method (e.g. ``"TPA"``).
    seconds:
        Online wall-time attributed to this query.  Queries answered from
        one batched online pass share its wall-time evenly; cache hits
        report ``0.0``.
    preprocessed_bytes:
        Size of the method's resident preprocessed data.
    scores:
        Full length-``n`` score vector (full-vector requests only).
    top_nodes:
        Top-``k`` node ids, best first (top-k requests only; may be
        shorter than ``k`` when exclusions leave fewer nodes).
    top_scores:
        Scores of ``top_nodes``.
    error_bound:
        The method's guaranteed L1 error bound, when it provides one
        (e.g. TPA's Theorem 2 bound ``2(1-c)^S``); ``None`` otherwise.
    cached:
        Whether the score vector was reused rather than computed for this
        request (an LRU-cache hit or an intra-batch duplicate seed).
    """

    seed: int
    method: str
    seconds: float
    preprocessed_bytes: int
    scores: np.ndarray | None = None
    top_nodes: np.ndarray | None = None
    top_scores: np.ndarray | None = None
    error_bound: float | None = None
    cached: bool = False


class Engine:
    """Preprocess-once / query-many facade over a :class:`PPRMethod`.

    Parameters
    ----------
    method:
        The RWR method.  If it is not yet preprocessed, ``graph`` is
        required and preprocessing runs in the constructor (timed; see
        :attr:`preprocess_seconds`).  An already-preprocessed method is
        adopted as-is, e.g. one rebuilt via ``TPA.load``.
    graph:
        Graph to preprocess for.  Optional when ``method`` is already
        bound to one.
    cache_size:
        Capacity (in seeds) of the optional LRU score-vector cache; ``0``
        (default) disables caching.  Cached vectors are stored read-only
        and keyed by ``(seed, backend, compute dtype)`` — switching the
        kernel backend or the float32 policy mid-serve can never replay a
        vector computed under the previous numeric configuration.  The
        cache itself is a thread-safe
        :class:`~repro.serving.cache.ScoreCache`.
    cache:
        An existing :class:`~repro.serving.cache.ScoreCache` to use
        instead of a private one — this is how
        :class:`~repro.serving.Server` makes all its Engine replicas
        share one cache.  Mutually exclusive with ``cache_size``.
    stream_block:
        Column-block width of the streamed top-k path (default 128).
        :meth:`serve` always scores at most this many seeds at a time,
        and :meth:`batch` switches to the same streamed schedule when a
        cache-less batch of pure top-k requests has more distinct seeds
        than one block — selection is fused into the block loop, so the
        full ``n x batch`` score matrix never materializes.  Pass
        ``"auto"`` to derive the width from the graph size, the active
        compute dtype, and a memory budget instead: the streamed working
        set (two method iterate panels, the score panel, the exclusion
        mask) is sized to fit ``memory_budget_bytes``.
    memory_budget_bytes:
        The budget behind ``stream_block="auto"`` (default 64 MiB).
        Giving a budget alone implies ``"auto"``; combining it with a
        fixed integer width is a :class:`ParameterError`.
    tune:
        A :class:`repro.tune.TuneProfile` (e.g. from
        :func:`repro.tune.autotune`).  Its process-global knob is
        installed via :meth:`~repro.tune.TuneProfile.apply` (kernel
        threads — skipped when ``REPRO_KERNEL_THREADS`` overrides them),
        and its ``stream_block`` becomes this engine's default block
        width.  Precedence is always ``explicit argument > environment
        variable > tuned profile > static default``: passing
        ``stream_block=``/``memory_budget_bytes=`` explicitly wins over
        the profile.  :meth:`shard` defaults its shard count from the
        profile too.
    warm_start:
        On a mutable substrate (a graph exposing ``epoch_token()``,
        i.e. :class:`repro.dynamic.DynamicGraph`), reuse each seed's
        newest cached score vector — even one computed under a previous
        graph epoch — as the ``x0`` fixed-point guess when the method
        :attr:`~repro.method.PPRMethod.supports_warm_start` (default
        on).  Stale vectors are never *served*: they only shorten the
        post-update iteration, whose convergence tolerance is
        unchanged.  Ignored on static graphs and for methods without
        warm-start support (TPA instead warm-restarts its
        re-preprocessing from the retained PageRank iterate).
    obs_port:
        Attach a live :class:`~repro.obs.ObsExporter` (``/metrics``,
        ``/health``, ``/snapshot``, ``/traces``, ``/profile``) on this
        port (``0`` = ephemeral); released by :meth:`close`.  Default
        ``None`` consults ``REPRO_OBS_PORT`` and joins the shared
        per-process listener when set.  A bare engine always reports
        ready.

    Notes
    -----
    A bare Engine is **thread-safe**: the cache is lock-guarded on its
    own, and one reentrant lock serializes the online phase, the
    ranking scratch, and the serving counters, so concurrent
    :meth:`query` / :meth:`batch` calls from many threads are safe
    (they execute one at a time).  For *parallel* serving, give each
    worker thread its own replica via :meth:`replicate` — shared
    preprocessed state, private scratch — or use
    :class:`repro.serving.Server`, which does exactly that plus
    micro-batching.

    Examples
    --------
    >>> from repro import Engine, community_graph, create_method
    >>> graph = community_graph(1000, avg_degree=10, seed=7)
    >>> engine = Engine(create_method("tpa"), graph)
    >>> result = engine.query(0, k=10)
    >>> result.top_nodes.shape
    (10,)
    """

    def __init__(
        self,
        method: PPRMethod,
        graph: Graph | None = None,
        cache_size: int = 0,
        stream_block: int | str | None = None,
        memory_budget_bytes: int | None = None,
        cache: "ScoreCache | None" = None,
        warm_start: bool = True,
        tune=None,
        obs_port: int | None = None,
    ):
        self._tune = tune
        if tune is not None:
            tune.apply()
            if stream_block is None and memory_budget_bytes is None:
                stream_block = int(tune.stream_block)
        if cache_size < 0:
            raise ParameterError("cache_size must be non-negative")
        if cache is not None and cache_size:
            raise ParameterError(
                "pass either a shared cache or cache_size, not both"
            )
        if memory_budget_bytes is not None and memory_budget_bytes < 1:
            raise ParameterError("memory_budget_bytes must be positive")
        if stream_block == "auto" or (
            stream_block is None and memory_budget_bytes is not None
        ):
            # Adaptive width: derived per call from n, the active compute
            # dtype, and the budget (dtype can change mid-serve).
            self._stream_block: int | None = None
            self._memory_budget_bytes = int(
                memory_budget_bytes
                if memory_budget_bytes is not None
                else _DEFAULT_STREAM_BUDGET_BYTES
            )
        elif isinstance(stream_block, str):
            raise ParameterError(
                f"unknown stream_block {stream_block!r}; "
                "pass an integer width or 'auto'"
            )
        else:
            if memory_budget_bytes is not None:
                # A fixed width and a budget contradict each other;
                # silently ignoring either would betray one intent.
                raise ParameterError(
                    "memory_budget_bytes requires stream_block='auto' "
                    "(or no stream_block); a fixed width ignores budgets"
                )
            if stream_block is None:
                stream_block = _DEFAULT_STREAM_BLOCK
            elif stream_block < 1:
                raise ParameterError("stream_block must be at least 1")
            self._stream_block = int(stream_block)
            self._memory_budget_bytes = None
        if graph is None:
            if not method.is_preprocessed:
                raise ParameterError(
                    "Engine needs a graph to preprocess for, or an "
                    "already-preprocessed method"
                )
            self._preprocess_seconds = 0.0
        elif method.is_preprocessed and method.graph is graph:
            self._preprocess_seconds = 0.0
        else:
            begin = time.perf_counter()
            method.preprocess(graph)
            self._preprocess_seconds = time.perf_counter() - begin
        self._method = method
        # The graph requests are answered against: ranking masks, the
        # epoch source.  The same object as ``method.graph`` except on a
        # ShardedEngine, whose method sweeps through the shard operator.
        self._graph = method.graph
        if cache is not None:
            self._score_cache: "ScoreCache | None" = cache
        elif cache_size:
            # Runtime import: repro.serving builds on repro.engine, so
            # the cache class cannot be imported at module scope.
            from repro.serving.cache import ScoreCache

            self._score_cache = ScoreCache(cache_size)
        else:
            self._score_cache = None
        if self._score_cache is not None:
            # Refuse a cache already serving a different method/graph —
            # a seed collision there would replay the wrong vector.
            # Replicas share their root's identity, so the intended
            # sharing binds cleanly.
            root = getattr(method, "_replica_root", method)
            self._score_cache.bind(
                (type(method).__name__, id(root), id(method.graph))
            )
        # Epoch tracking for mutable substrates.
        self._warm_start = bool(warm_start)
        self._epoch_graph = (
            self._graph
            if callable(getattr(self._graph, "epoch_token", None))
            else None
        )
        self._synced_epoch_token: str | None = (
            self._epoch_graph.epoch_token()
            if self._epoch_graph is not None
            else None
        )
        self._hits = 0
        self._misses = 0
        self._queries_served = 0
        self._online_seconds = 0.0
        # Retained serving scratch: per-request banned masks and
        # masked-copy selection buffers reuse these instead of
        # allocating per request.
        self._workspace = kernels.Workspace()
        # One reentrant lock makes a bare Engine thread-safe: it guards
        # the online phase (whose workspace scratch must never be shared
        # mid-flight), the counters, and the stats reads.  The cache has
        # its own lock so *shared* caches work across replicas.
        self._lock = threading.RLock()
        # Operational surface (obs_port= / REPRO_OBS_PORT): a bare
        # engine is always ready — it has no workers to lose — but its
        # /metrics, /snapshot, /traces, and /profile are live.  Lazy
        # import: repro.obs.exporter must not be a hard dependency of
        # every Engine construction path.
        self._obs_name = f"engine-{id(self):x}"
        self._exporter = None
        self._owns_exporter = False
        if obs_port is not None or os.environ.get("REPRO_OBS_PORT"):
            from repro.obs.exporter import start_exporter

            self._exporter, self._owns_exporter = start_exporter(obs_port)
            if self._exporter is not None:
                self._exporter.add_check(
                    self._obs_name, lambda: {"ready": True, "kind": "engine"}
                )

    # -- introspection ---------------------------------------------------------

    @property
    def method(self) -> PPRMethod:
        """The wrapped method (preprocessed)."""
        return self._method

    @property
    def graph(self) -> Graph:
        """The graph requests are answered against."""
        return self._graph

    @property
    def preprocess_seconds(self) -> float:
        """Wall-time of the preprocessing run the engine performed
        (``0.0`` when it adopted an already-preprocessed method)."""
        return self._preprocess_seconds

    def error_bound(self) -> float | None:
        """The method's guaranteed L1 error bound, if it exposes one."""
        bound = getattr(self._method, "error_bound", None)
        if callable(bound):
            return float(bound())
        return None

    @property
    def cache(self) -> "ScoreCache | None":
        """The score cache (private or shared), when caching is on."""
        return self._score_cache

    @property
    def stream_block(self) -> int:
        """The streamed top-k path's current column-block width.  Fixed
        at construction, or derived from the memory budget and the
        active compute dtype when ``stream_block="auto"``."""
        return self._resolve_stream_block()

    @property
    def memory_budget_bytes(self) -> int | None:
        """The budget behind an adaptive ``stream_block`` (``None`` for
        a fixed width)."""
        return self._memory_budget_bytes

    def _resolve_stream_block(self) -> int:
        if self._stream_block is not None:
            return self._stream_block
        # Streamed working set per seed column: the method's two iterate
        # ping-pong panels plus the returned score panel (compute dtype)
        # and the boolean exclusion mask.
        n = self._method.graph.num_nodes
        itemsize = np.dtype(kernels.compute_dtype()).itemsize
        per_seed_bytes = n * (3 * itemsize + 1)
        block = self._memory_budget_bytes // max(per_seed_bytes, 1)
        return int(max(1, min(block, _MAX_STREAM_BLOCK)))

    def stats(self) -> dict[str, float]:
        """Serving counters: queries, online seconds, cache hits/misses.

        Hits and misses are this engine's own lookups; a shared cache's
        pooled counters live in ``engine.cache.stats()``.
        """
        with self._lock:
            return {
                "queries_served": self._queries_served,
                "online_seconds": self._online_seconds,
                "cache_hits": self._hits,
                "cache_misses": self._misses,
                "cache_entries": (
                    len(self._score_cache)
                    if self._score_cache is not None
                    else 0
                ),
            }

    @property
    def exporter(self):
        """The attached :class:`~repro.obs.ObsExporter`, if any."""
        return self._exporter

    def close(self) -> None:
        """Release the engine's operational surface (idempotent).

        A bare engine holds no workers or shared memory — only the
        observability endpoint needs tearing down: its health check is
        removed from a shared (``REPRO_OBS_PORT``) listener, and an
        owned (``obs_port=``) listener is shut down outright.
        ``getattr``-guarded so pickled or hand-built instances from
        before this attribute existed still close cleanly.
        """
        exporter = getattr(self, "_exporter", None)
        self._exporter = None
        if exporter is not None:
            exporter.remove_check(self._obs_name)
            if getattr(self, "_owns_exporter", False):
                exporter.close()

    def replicate(self) -> "Engine":
        """A serving replica of this engine for one more worker thread.

        The replica shares everything read-only — the preprocessed
        method state (via :meth:`PPRMethod.replicate`), the graph, and
        the score cache object — while
        owning every mutable piece: fresh workspace scratch, its own
        lock, and zeroed counters.  Replicas on separate threads
        therefore serve concurrently without aliasing buffers, which is
        how :class:`repro.serving.Server` scales across cores.
        """
        clone = object.__new__(Engine)
        clone._tune = self._tune
        clone._stream_block = self._stream_block
        clone._memory_budget_bytes = self._memory_budget_bytes
        clone._graph = self._graph
        clone._preprocess_seconds = 0.0
        clone._method = self._method.replicate()
        clone._score_cache = self._score_cache
        clone._warm_start = self._warm_start
        clone._epoch_graph = self._epoch_graph
        clone._synced_epoch_token = self._synced_epoch_token
        clone._hits = 0
        clone._misses = 0
        clone._queries_served = 0
        clone._online_seconds = 0.0
        clone._workspace = kernels.Workspace()
        clone._lock = threading.RLock()
        # Replicas never inherit the exporter: one deployment, one
        # endpoint (the env singleton already covers every replica).
        clone._obs_name = f"engine-{id(clone):x}"
        clone._exporter = None
        clone._owns_exporter = False
        return clone

    def shard(
        self,
        num_shards: int | None = None,
        plan=None,
        panel_cols: int | None = None,
        start_method: str | None = None,
        step_timeout: float | None = None,
        warm: bool = True,
        pin: bool | None = None,
        supervise: bool = True,
        heartbeat_ms: float | None = None,
    ):
        """A serving replica whose online phase runs across shard
        worker **processes** — the multi-process sibling of
        :meth:`replicate`.

        Like a replica, the sharded engine shares every read-only piece
        of this one (preprocessed method state, graph, score cache) and
        owns its own scratch, lock, and counters.  Unlike a replica, its
        method is re-bound to a
        :class:`~repro.sharding.ShardedOperator`: the serving operator's
        rows are published into shared memory once, ``num_shards``
        worker processes each map one row stripe zero-copy, and every
        iterate sweep of the online phase is computed stripe-parallel
        across them — escaping the GIL entirely.  Results are **bitwise
        identical** to this engine's (row stripes change the execution
        schedule, never the per-row arithmetic).

        Parameters
        ----------
        num_shards:
            Worker-process count (default 2; ignored when ``plan`` fixes
            it).
        plan:
            Explicit :class:`~repro.sharding.ShardPlan`.  Default: equal
            stripes (:meth:`~repro.sharding.ShardPlan.uniform`).
        panel_cols:
            Column capacity of the shared iterate panels; wider operands
            are chunked (bitwise neutral).
        start_method:
            ``multiprocessing`` start method override.
        step_timeout:
            Seconds to wait on any worker before declaring the
            deployment wedged.
        warm:
            Run one throwaway sweep before returning (default).
        pin:
            Pin each shard worker to its own core set
            (:func:`repro.tune.plan_pinning`).  Default: pin exactly
            when this engine carries a tuned profile; pass ``False`` to
            override it.  Degrades to unpinned with a warning where the
            platform cannot pin.
        supervise:
            Heartbeat the workers and respawn dead or hung ones
            (default; see :class:`repro.resilience.Supervisor`).
        heartbeat_ms:
            Supervisor heartbeat period; default ``REPRO_HEARTBEAT_MS``
            (1000 ms).

        Returns
        -------
        repro.sharding.ShardedEngine
            Close it (or use ``with``) to stop the workers and unlink
            the shared-memory segments.
        """
        # Runtime import: repro.sharding builds on repro.engine.
        from repro.sharding.engine import shard_engine
        from repro.sharding.store import DEFAULT_PANEL_COLS
        from repro.sharding.worker import DEFAULT_STEP_TIMEOUT

        if num_shards is None and plan is None and self._tune is not None:
            num_shards = int(self._tune.shards)
        if pin is None:
            pin = self._tune is not None
        return shard_engine(
            self,
            num_shards=num_shards,
            plan=plan,
            panel_cols=(
                DEFAULT_PANEL_COLS if panel_cols is None else panel_cols
            ),
            start_method=start_method,
            step_timeout=(
                DEFAULT_STEP_TIMEOUT if step_timeout is None else step_timeout
            ),
            warm=warm,
            pin=pin,
            supervise=supervise,
            heartbeat_ms=heartbeat_ms,
        )

    # -- the online phase ------------------------------------------------------

    def query(
        self,
        seed: int,
        k: int | None = None,
        exclude_seed: bool = True,
        exclude_neighbors: bool = False,
    ) -> QueryResult:
        """Answer a single request (convenience wrapper over :meth:`batch`)."""
        request = QueryRequest(
            seed=seed, k=k, exclude_seed=exclude_seed,
            exclude_neighbors=exclude_neighbors,
        )
        return self.batch([request])[0]

    def batch(self, requests: Iterable[QueryRequest]) -> list[QueryResult]:
        """Answer a request batch with one vectorized online pass.

        Seeds are validated in bulk; distinct uncached seeds are scored by
        a single :meth:`~repro.method.PPRMethod.query_many` call (duplicate
        seeds and cache hits are answered from the same vectors).  Results
        come back in request order.

        Large cache-less batches of pure top-k requests stream instead:
        distinct seeds are scored ``stream_block`` at a time and each
        block's rankings are extracted before the next block is computed,
        so peak memory is one ``n x stream_block`` panel rather than the
        full ``n x batch`` matrix.  Results are identical to the
        materialized path.
        """
        requests = list(requests)
        if not requests:
            return []
        # Validate the whole batch before any compute: a malformed request
        # must not waste (or half-account) a full online pass.
        for request in requests:
            if request.k is not None:
                validate_k(request.k)
        seeds = self._method.validate_seeds([r.seed for r in requests])
        with self._lock:
            self._sync_epoch()
            return self._batch_locked(requests, seeds)

    def _sync_epoch(self) -> None:
        """Repair method state after a graph mutation (lock held).

        On a mutable substrate the graph's epoch token changes with
        every mutation and compaction; when it moves, the method's
        preprocessed state (e.g. TPA's stranger vector) describes a
        graph that no longer exists, so preprocessing is re-run against
        the live graph before any scoring.  TPA warm-restarts this from
        its retained PageRank iterate, so small edits re-preprocess in
        a handful of iterations.  Static graphs skip all of this.
        """
        if self._epoch_graph is None:
            return
        token = self._epoch_graph.epoch_token()
        if token == self._synced_epoch_token:
            return
        begin = time.perf_counter()
        self._method.preprocess(self._method.graph)
        self._preprocess_seconds += time.perf_counter() - begin
        self._synced_epoch_token = token

    def _batch_locked(
        self, requests: list[QueryRequest], seeds: np.ndarray
    ) -> list[QueryResult]:
        if self._score_cache is None and all(
            r.k is not None for r in requests
        ):
            distinct = np.unique(seeds)
            if distinct.size > self._resolve_stream_block():
                return self._batch_streamed(requests, seeds)

        # One cache token for the whole batch, minted before any compute.
        # On a mutable graph the token snapshots the current epoch: a
        # vector computed while a mutation races this batch is stored
        # under the *pre-mutation* token and can never answer a
        # post-mutation lookup.
        token = kernels.cache_token(self._epoch_graph)

        # Distinct seeds that truly need the online phase, in first-seen
        # order; everything else is a cache or intra-batch duplicate hit.
        scored: dict[int, np.ndarray | None] = {}
        fresh: list[int] = []
        fresh_set: set[int] = set()
        for seed in seeds.tolist():
            if seed in scored:
                continue
            hit = self._cache_get(seed, token)
            if hit is not None:
                scored[seed] = hit
                self._hits += 1
            else:
                scored[seed] = None  # placeholder, filled below
                fresh.append(seed)
                fresh_set.add(seed)
                self._misses += 1

        per_query_seconds = 0.0
        if fresh:
            query_seeds = np.asarray(fresh, dtype=np.int64)
            x0 = self._warm_hints(fresh)
            begin = time.perf_counter()
            if x0 is not None:
                matrix = self._method.query_many(query_seeds, x0=x0)
            else:
                matrix = self._method.query_many(query_seeds)
            elapsed = time.perf_counter() - begin
            per_query_seconds = elapsed / len(fresh)
            self._online_seconds += elapsed
            # Rows that outlive this call (full-vector results, cache
            # entries) must own their memory: a view would pin the whole
            # (B, n) block for as long as any one row is referenced.
            outlives = self._score_cache is not None or any(
                r.k is None for r in requests
            )
            for row, seed in enumerate(fresh):
                vector = matrix[row]
                if outlives or not vector.flags.c_contiguous:
                    vector = vector.copy()
                if self._score_cache is not None:
                    self._cache_put(seed, vector, token)
                scored[seed] = vector

        bytes_resident = self._method.preprocessed_bytes()
        bound = self.error_bound()
        results = []
        with obs_trace.phase("select"):
            for request, seed in zip(requests, seeds.tolist()):
                vector = scored[seed]
                was_fresh = seed in fresh_set
                # Later duplicates of a freshly computed seed are reuse,
                # not compute — charge the batch wall-time once per
                # distinct seed.
                fresh_set.discard(seed)
                base = QueryResult(
                    seed=seed,
                    method=self._method.name,
                    seconds=per_query_seconds if was_fresh else 0.0,
                    preprocessed_bytes=bytes_resident,
                    error_bound=bound,
                    cached=not was_fresh,
                )
                if request.k is None:
                    results.append(replace(base, scores=vector))
                else:
                    picks = self._rank(vector, seed, request)
                    results.append(
                        replace(
                            base, top_nodes=picks, top_scores=vector[picks]
                        )
                    )
        self._count_served(len(results))
        return results

    def _count_served(self, count: int) -> None:
        self._queries_served += count
        obs_metrics.get_registry().counter(
            "repro_queries_served_total",
            "Queries answered across every engine instance.",
        ).inc(count)

    def _warm_hints(self, fresh: list[int]) -> np.ndarray | None:
        """Per-seed ``x0`` guesses scavenged from stale cache entries.

        Only applies on a mutable substrate with warm starting on, a
        cache attached, and a method that
        :attr:`~repro.method.PPRMethod.supports_warm_start`.  Returns
        the ``(len(fresh), n)`` guess matrix, or ``None`` when nothing
        applies.  Rows without a hint stay zero — an all-zero ``x0``
        column reproduces the cold iteration bitwise, so mixed batches
        are safe.
        """
        if (
            not self._warm_start
            or self._epoch_graph is None
            or self._score_cache is None
            or not getattr(self._method, "supports_warm_start", False)
        ):
            return None
        n = self._method.graph.num_nodes
        x0 = None
        for row, seed in enumerate(fresh):
            hint = self._score_cache.warm_hint(seed)
            if hint is None or hint.shape != (n,):
                continue
            if x0 is None:
                x0 = np.zeros((len(fresh), n), dtype=kernels.compute_dtype())
            x0[row] = hint
        return x0

    def _rank(
        self, vector: np.ndarray, seed: int, request: QueryRequest
    ) -> np.ndarray:
        """Top-k selection for one request, allocation-free on repeat:
        the banned mask and the masked score copy live in the engine's
        retained workspace instead of being rebuilt per call."""
        n = self.graph.num_nodes
        banned = None
        if request.exclude_seed or request.exclude_neighbors:
            banned = banned_mask(
                self.graph, seed, request.exclude_seed,
                request.exclude_neighbors,
                out=self._workspace.request("rank.banned", (n,), np.bool_),
            )
        return select_top_k(
            vector, request.k, banned,
            scratch=self._workspace.request("rank.masked", (n,), np.float64),
        )

    def _batch_streamed(
        self, requests: list[QueryRequest], seeds: np.ndarray
    ) -> list[QueryResult]:
        """The fused top-k schedule behind :meth:`batch`.

        Distinct seeds are scored ``stream_block`` at a time; every block
        row is ranked immediately, then the block is reused for the next
        panel — the full score matrix never exists.  Result records match
        the materialized path exactly: the first request of each distinct
        seed carries its share of the block wall-time, duplicates are
        flagged ``cached``.
        """
        requests_by_seed: dict[int, list[int]] = {}
        order: list[int] = []
        for index, seed in enumerate(seeds.tolist()):
            if seed not in requests_by_seed:
                requests_by_seed[seed] = []
                order.append(seed)
            requests_by_seed[seed].append(index)
        self._misses += len(order)

        # The serving shape — every request wants the same (k, exclusion)
        # ranking — runs each block through one compiled
        # select_top_k_many call; mixed batches rank per request (still
        # streamed, just without the fused kernel).
        shapes = {
            (r.k, r.exclude_seed, r.exclude_neighbors) for r in requests
        }
        fused_shape = shapes.pop() if len(shapes) == 1 else None
        bytes_resident = self._method.preprocessed_bytes()
        bound = self.error_bound()
        results: list[QueryResult | None] = [None] * len(requests)
        block = self._resolve_stream_block()
        for start in range(0, len(order), block):
            chunk = np.asarray(order[start : start + block], dtype=np.int64)
            begin = time.perf_counter()
            matrix = self._method.query_many(chunk)
            elapsed = time.perf_counter() - begin
            per_query_seconds = elapsed / chunk.size
            self._online_seconds += elapsed
            with obs_trace.phase("select"):
                picks_block = (
                    self._rank_block(matrix, chunk, *fused_shape)
                    if fused_shape is not None
                    else None
                )
                for row, seed in enumerate(chunk.tolist()):
                    vector = matrix[row]
                    for position, index in enumerate(requests_by_seed[seed]):
                        request = requests[index]
                        if picks_block is not None:
                            padded = picks_block[row]
                            picks = padded[padded >= 0]  # strips -1; copies
                        else:
                            picks = self._rank(vector, seed, request)
                        results[index] = QueryResult(
                            seed=seed,
                            method=self._method.name,
                            seconds=(
                                per_query_seconds if position == 0 else 0.0
                            ),
                            preprocessed_bytes=bytes_resident,
                            error_bound=bound,
                            cached=position > 0,
                            top_nodes=picks,
                            top_scores=vector[picks],
                        )
        self._count_served(len(requests))
        return results

    def _rank_block(
        self,
        matrix: np.ndarray,
        chunk: np.ndarray,
        k: int,
        exclude_seed: bool,
        exclude_neighbors: bool,
    ) -> np.ndarray:
        """Fused selection for one streamed block of a homogeneous batch:
        vectorized exclusion masks plus one ``select_top_k_many`` call,
        all scratch drawn from the retained workspace.  ``chunk`` holds
        the block's seeds; returns the ``-1``-padded
        ``(len(chunk), k)`` id matrix (a retained buffer — rows are
        copied out by the caller)."""
        banned = None
        if exclude_seed or exclude_neighbors:
            banned = banned_mask_many(
                self.graph, chunk, exclude_seed, exclude_neighbors,
                out=self._workspace.request(
                    "stream.banned", matrix.shape, np.bool_
                ),
            )
        return select_top_k_many(
            matrix, k, banned=banned,
            out=self._workspace.request(
                "stream.picks", (matrix.shape[0], int(k)), np.int64
            ),
        )

    def serve(
        self,
        seeds: Sequence[int] | np.ndarray,
        k: int,
        exclude_seeds: bool = True,
        exclude_neighbors: bool = False,
    ) -> np.ndarray:
        """Throughput path: top-``k`` ids for a whole seed batch.

        Skips the per-request bookkeeping of :meth:`batch` and returns the
        ``(len(seeds), k)`` ``int64`` ranking matrix built from
        :meth:`~repro.method.PPRMethod.top_k_many` (rows padded with
        ``-1`` when exclusions leave fewer than ``k`` nodes).  This is the
        paper's Who-to-Follow shape: millions of users, top-500 each.

        The batch is streamed ``stream_block`` seeds at a time, with the
        compiled :func:`repro.kernels.select_top_k_many` selection fused
        into each block — only ``block * k`` ids survive a block, so
        arbitrarily large batches serve in constant memory.
        """
        k = validate_k(k)
        seeds_arr = self._method.validate_seeds(seeds)
        with self._lock:
            self._sync_epoch()
            block = self._resolve_stream_block()
            begin = time.perf_counter()
            if seeds_arr.size <= block:
                rankings = self._method.top_k_many(
                    seeds_arr, k, exclude_seeds=exclude_seeds,
                    exclude_neighbors=exclude_neighbors,
                )
            else:
                rankings = np.empty((seeds_arr.size, k), dtype=np.int64)
                for start in range(0, seeds_arr.size, block):
                    stop = min(start + block, seeds_arr.size)
                    rankings[start:stop] = self._method.top_k_many(
                        seeds_arr[start:stop], k, exclude_seeds=exclude_seeds,
                        exclude_neighbors=exclude_neighbors,
                    )
            self._online_seconds += time.perf_counter() - begin
            self._count_served(rankings.shape[0])
            return rankings

    # -- LRU cache -------------------------------------------------------------
    #
    # The cache is a thread-safe ScoreCache (repro.serving.cache), either
    # private to this engine (cache_size > 0) or shared across replicas
    # (cache=...).  It keys on (seed, kernels.cache_token()): the token
    # names the backend and compute dtype, so a float32 run can never be
    # answered from a cached float64 vector (or vice versa).

    def _cache_get(
        self, seed: int, token: str | None = None
    ) -> np.ndarray | None:
        if self._score_cache is None:
            return None
        return self._score_cache.get(seed, token)

    def _cache_put(
        self, seed: int, vector: np.ndarray, token: str | None = None
    ) -> None:
        self._score_cache.put(seed, vector, token)

    def clear_cache(self) -> None:
        """Drop every cached score vector."""
        if self._score_cache is not None:
            self._score_cache.clear()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        capacity = (
            self._score_cache.capacity if self._score_cache is not None else 0
        )
        return (
            f"Engine(method={self._method.name}, "
            f"n={self.graph.num_nodes}, cache={capacity})"
        )
