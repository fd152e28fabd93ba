"""Concurrent serving subsystem: micro-batching over Engine replicas.

The paper's deployment story — answering RWR queries online at
interactive latency for heavy multi-user traffic — needs more than a
fast :class:`~repro.engine.Engine`: it needs *concurrency*.  This
package supplies the serving layer on top of the batched engine:

* :class:`Scheduler` — accepts ``submit(QueryRequest) -> Future`` calls
  from any number of client threads and coalesces them into
  micro-batches (``max_batch`` / ``max_wait_ms``), so concurrent
  single-seed traffic automatically rides the batched online pass;
* :class:`Server` — a pool of worker threads, each owning one Engine
  replica (:meth:`repro.engine.Engine.replicate`): preprocessed arrays,
  graph, and cache shared read-only; workspace scratch, locks, and
  counters private per worker, so workers overlap across cores inside
  the kernel calls that release the interpreter lock (on the NumPy
  backend: SciPy's CSR products and NumPy's copy/partition loops).
  :class:`repro.sharding.Router` is a ``Server`` whose single worker
  serves on :meth:`repro.engine.Engine.shard` instead;
* :class:`ScoreCache` — the Engine's LRU promoted into a lock-guarded
  shared object with hit/miss/eviction counters, pooled across all
  replicas;
* admission control (:class:`~repro.exceptions.ServerOverloaded` once
  ``max_pending`` requests queue) plus :class:`LatencyStats` — per
  request queue-time vs compute-time and p50/p95/p99 latency.

Load tests of this package (open-loop, latency from due time) live in
the benchmark ladder, ``benchmarks/ladder/run.py``.

Quickstart::

    from repro import QueryRequest, Server, community_graph, create_method

    graph = community_graph(10_000, avg_degree=10, seed=7)
    with Server(create_method("tpa"), graph, workers=4,
                max_batch=32, max_wait_ms=2.0, cache_size=1024) as server:
        futures = [server.submit(QueryRequest(seed=s, k=10))
                   for s in range(100)]
        results = [f.result() for f in futures]
        print(server.stats()["latency_p99_ms"])
"""

from repro.serving.cache import ScoreCache
from repro.serving.metrics import LatencyStats, percentiles
from repro.serving.scheduler import PendingRequest, Scheduler
from repro.serving.server import Server

__all__ = [
    "ScoreCache",
    "Scheduler",
    "PendingRequest",
    "Server",
    "LatencyStats",
    "percentiles",
]
