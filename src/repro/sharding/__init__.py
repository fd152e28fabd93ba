"""Sharded multi-process serving: partition-aligned workers over
shared-memory CSR.

:mod:`repro.serving` scales queries across *threads* — replicas of one
Engine overlapping inside the kernel calls that release the interpreter
lock.  This package is the next escape hatch: **processes**.  TPA's own
structure (a SlashBurn hub band plus near-block-diagonal community
blocks, and per-block contributions that are cheap to combine) is
exactly the structure a sharded deployment wants, so the operator's rows
are cut on those frontiers and each shard is owned by one worker
process:

* :class:`ShardPlan` — contiguous row stripes cut on SlashBurn block
  starts (hub band pinned to shard 0) or
  :func:`~repro.graph.partition.partition_graph` community boundaries;
* :class:`ShardStore` — publishes each shard's CSR row stripe plus the
  two iterate panels into ``multiprocessing.shared_memory``; workers map
  them zero-copy, and ``close()`` provably unlinks every segment;
* :class:`ShardWorker` — one process per shard running block-local
  :func:`repro.kernels.spmm` iterate sweep steps over its stripe;
* :class:`ShardedOperator` — the graph-protocol facade that scatters
  each iterate into the shared panel, steps every worker, and gathers
  the partial row stripes back (bitwise identical to the serial
  product);
* :class:`ShardedEngine` / :meth:`repro.engine.Engine.shard` — the
  multi-process sibling of :meth:`~repro.engine.Engine.replicate`;
* :class:`Router` — the serving front end: a
  :class:`~repro.serving.Server` whose single worker thread serves on
  the sharded engine, merging **exact** results (bitwise identical to a
  serial ``Engine.batch``).  Every parameter it shares with ``Server``
  acts as on ``Server``.

Quickstart::

    from repro import QueryRequest, community_graph, create_method
    from repro.sharding import Router

    graph = community_graph(10_000, avg_degree=10, seed=7)
    with Router(create_method("tpa"), graph, num_shards=4,
                reorder="slashburn", cache_size=1024) as router:
        futures = [router.submit(QueryRequest(seed=s, k=10))
                   for s in range(100)]
        results = [f.result() for f in futures]

The ``sharded-serve`` workload of the benchmark ladder
(``benchmarks/ladder/run.py``) measures this package under open-loop
load; :meth:`Router.stats` is :meth:`repro.serving.Server.stats`, so
it reports the same keys.
"""

from repro.sharding.engine import ShardedEngine, shard_engine
from repro.sharding.operator import ShardedOperator
from repro.sharding.plan import ShardPlan
from repro.sharding.router import Router, partition_reordering
from repro.sharding.store import ShardStore, StripeSpec
from repro.sharding.worker import ShardWorker

__all__ = [
    "ShardPlan",
    "ShardStore",
    "StripeSpec",
    "ShardWorker",
    "ShardedOperator",
    "ShardedEngine",
    "shard_engine",
    "Router",
    "partition_reordering",
]
