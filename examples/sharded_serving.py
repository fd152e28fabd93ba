"""Sharded multi-process serving — exact results across shard workers.

Python threads share one GIL; the :class:`repro.sharding.Router` does
not.  It cuts the propagation operator's rows on the graph's own
structure (SlashBurn hub band pinned to shard 0, spoke shards closed on
community-block starts), publishes each shard's CSR stripe into shared
memory, and runs every iterate sweep of TPA's online phase
stripe-parallel across one worker process per shard.  The merged
results are *bitwise identical* to a single-process ``Engine.batch`` —
this example proves it, then times a larger batch through the router.
(Open-loop latency under load is the benchmark ladder's
``sharded-serve`` workload: ``python3 benchmarks/ladder/run.py``.)

Run with::

    python examples/sharded_serving.py
"""

from __future__ import annotations

import time

import numpy as np

from repro import Engine, QueryRequest, community_graph, create_method
from repro.sharding import Router


def main() -> None:
    print("Generating a 20,000-node community graph ...")
    graph = community_graph(20_000, avg_degree=12, num_communities=60,
                            seed=21)
    print(f"  {graph.num_nodes:,} nodes, {graph.num_edges:,} edges")

    requests = [QueryRequest(seed=int(seed), k=10)
                for seed in range(0, 4000, 40)]

    print("\nServing serially (one process) for the reference ...")
    serial = Engine(create_method("tpa"), graph, reorder="slashburn")
    reference = serial.batch(requests)

    print("Starting a Router: 4 shard worker processes, SlashBurn cuts ...")
    with Router(create_method("tpa"), graph, num_shards=4,
                reorder="slashburn", max_batch=32,
                cache_size=1024) as router:
        rows = router.stats()["shards"]["shard_rows"]
        print(f"  shard row stripes: {rows}")
        print(f"  hub band rows:     {router.plan.num_hubs} (shard 0)")

        results = router.batch(requests)
        exact = all(
            np.array_equal(ref.top_nodes, got.top_nodes)
            and np.array_equal(ref.top_scores, got.top_scores)
            for ref, got in zip(reference, results)
        )
        print(f"  bitwise identical to serial Engine.batch: {exact}")

        print("\nTiming router.batch over 200 requests (256 seeds) ...")
        load = [QueryRequest(seed=int(seed % 256), k=10)
                for seed in range(200)]
        begin = time.perf_counter()
        router.batch(load)
        seconds = time.perf_counter() - begin
        stats = router.stats()
        print(f"  throughput  {len(load) / seconds:8.1f} q/s")
        print(f"  latency p50 {stats['latency_p50_ms']:8.2f} ms")
        print(f"  latency p99 {stats['latency_p99_ms']:8.2f} ms")
    print("Router closed: workers stopped, shared memory unlinked.")


if __name__ == "__main__":
    main()
