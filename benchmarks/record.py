#!/usr/bin/env python
"""Append one measured perf-trajectory entry to BENCH_kernels.json.

Runs the kernel microbenchmarks (SpMV / blocked SpMM on the transition
operator) and the end-to-end serving benchmark (batched TPA queries/sec,
looped queries/sec for contrast) on a synthetic community graph, then
appends a single JSON object — one line per run — to
``BENCH_kernels.json`` at the repository root::

    python benchmarks/record.py                # defaults: 20k nodes, B=64
    python benchmarks/record.py --nodes 50000 --batch 128
    REPRO_KERNEL=numpy python benchmarks/record.py   # record the fallback

Each entry carries the commit, backend, compute dtype, graph size,
the machine fingerprint
(:func:`repro.tune.machine_fingerprint` — CPU model, core/NUMA
topology, cgroup quota, library versions), and wall-times, so the perf
trajectory of the kernel layer is diffable across commits: filter to
matching ``backend``/``graph``/``machine`` fields and compare ``queries_per_second_batched`` (end to end),
``spmm_seconds``/``spmv_seconds`` (kernel level),
``spmm_reordered_seconds`` (the same product on the
SlashBurn-reordered operator), or
``topk_queries_per_second_fused`` vs
``topk_queries_per_second_materialized`` (the streamed
``Engine.serve`` ranking pipeline against scoring the whole batch and
arg-partitioning row by row in Python), or
``serving_queries_per_second`` / ``serving_latency_p99_ms`` (the
concurrent serving stack: closed-loop clients against the
micro-batching ``repro.serving.Server`` with one Engine replica per
worker), or ``sharded_queries_per_second`` / ``sharded_latency_p99_ms``
(the same closed loop against the multi-process
``repro.sharding.Router``: shard worker processes over shared-memory
CSR row stripes), or ``updates_per_second`` vs
``updates_latency_p99_ms`` (the dynamic-serving trade-off: the same
closed loop while a mutator thread churns edges through a
``repro.dynamic.DynamicGraph`` with periodic compactions).  Timings are
best-of-N wall clock — the min filters scheduler noise; the serving
entries are one full closed-loop run after a warm-up wave.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:  # script-style invocation
    sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

from repro import kernels  # noqa: E402
from repro.core.tpa import TPA  # noqa: E402
from repro.engine import Engine  # noqa: E402
from repro.graph.generators import community_graph  # noqa: E402
from repro.method import banned_mask, select_top_k  # noqa: E402
from repro.dynamic import DynamicGraph, run_update_bench  # noqa: E402
from repro.serving import Server, run_closed_loop  # noqa: E402
from repro.sharding import Router  # noqa: E402
from repro.tune import machine_fingerprint  # noqa: E402

DEFAULT_OUTPUT = REPO_ROOT / "BENCH_kernels.json"

#: Ranking width of the top-k throughput benchmark (the paper's serving
#: example is Twitter's top-500; 100 keeps the default graph realistic).
TOPK_K = 100


def _best_of(fn, repeats: int) -> float:
    samples = []
    for _ in range(repeats):
        begin = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - begin)
    return min(samples)


def materialized_topk(method, seeds, k):
    """The pre-streaming ranking path, kept as the benchmark baseline:
    materialize the full ``(B, n)`` score matrix, then arg-partition row
    by row in Python with a fresh mask per request.  The throughput test
    in ``test_batch_throughput.py`` measures against this same helper,
    so the recorded and asserted speedups share one definition."""
    matrix = method.query_many(seeds)
    return [
        select_top_k(
            matrix[row], k,
            banned_mask(method.graph, int(seed), True, False),
        )
        for row, seed in enumerate(seeds)
    ]


def _commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=REPO_ROOT, capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def measure(nodes: int, avg_degree: int, batch: int, repeats: int) -> dict:
    graph = community_graph(
        nodes, avg_degree=avg_degree,
        num_communities=max(8, nodes // 500), seed=7,
    )
    operator = graph.transition_transpose
    rng = np.random.default_rng(0)
    dtype = kernels.compute_dtype()

    vec = rng.random(graph.num_nodes).astype(dtype)
    vec_out = np.empty_like(vec)
    mat = rng.random((graph.num_nodes, batch)).astype(dtype)
    mat_out = np.empty_like(mat)
    operator_cast = graph.decayed_operator(1.0, dtype=dtype)

    kernels.spmv(operator_cast, vec, out=vec_out)  # warm-up / JIT compile
    kernels.spmm(operator_cast, mat, out=mat_out)
    spmv_seconds = _best_of(
        lambda: kernels.spmv(operator_cast, vec, out=vec_out), repeats
    )
    spmm_seconds = _best_of(
        lambda: kernels.spmm(operator_cast, mat, out=mat_out), repeats
    )

    # The same product on the SlashBurn-reordered operator.
    reordering = kernels.locality_reordering(graph)
    operator_reordered = reordering.graph.decayed_operator(1.0, dtype=dtype)
    kernels.spmm(operator_reordered, mat, out=mat_out)  # warm-up
    spmm_reordered_seconds = _best_of(
        lambda: kernels.spmm(operator_reordered, mat, out=mat_out), repeats
    )

    method = TPA(s_iteration=5, t_iteration=10)
    begin = time.perf_counter()
    method.preprocess(graph)
    preprocess_seconds = time.perf_counter() - begin

    seeds = rng.choice(graph.num_nodes, size=batch, replace=False)
    method.query_many(seeds)  # warm caches and retained buffers
    batched_seconds = _best_of(lambda: method.query_many(seeds), repeats)
    looped_seconds = _best_of(
        lambda: [method.query(int(seed)) for seed in seeds],
        max(1, repeats // 3),
    )

    # Fused streamed top-k (Engine.serve: block loop + compiled
    # select_top_k_many) against the materialize-then-argpartition path
    # it replaced.  Both sides take the min over the same repeat count —
    # a recorded ratio must not owe anything to sampling asymmetry.
    topk = min(TOPK_K, graph.num_nodes - 1)
    engine = Engine(method, stream_block=max(1, batch // 4))
    engine.serve(seeds, k=topk)  # warm-up (JIT + retained buffers)
    materialized_topk(method, seeds, topk)
    fused_seconds = _best_of(lambda: engine.serve(seeds, k=topk), repeats)
    materialized_seconds = _best_of(
        lambda: materialized_topk(method, seeds, topk), repeats
    )

    # Concurrent serving: closed-loop clients hammering the Server with
    # single-seed top-k requests.  The scheduler coalesces them into
    # micro-batches and per-worker Engine replicas answer in parallel —
    # the recorded q/s and p99 track the whole serving stack, not just
    # the kernels.  One warm-up wave sizes every replica's workspace.
    workers = max(1, min(4, os.cpu_count() or 1))
    clients = workers * 2
    with Server(
        method,
        workers=workers,
        max_batch=batch,
        max_wait_ms=2.0,
        max_pending=4096,
    ) as server:
        run_closed_loop(
            server, seeds, k=topk, clients=clients, requests_per_client=8,
        )
        report = run_closed_loop(
            server, seeds, k=topk, clients=clients,
            requests_per_client=max(32, batch),
        )

    # Sharded serving: the same closed loop against the multi-process
    # Router — shard worker processes over shared-memory CSR stripes
    # behind one dispatcher.  The method is already preprocessed, so the
    # Router adopts it; shards cut the serving operator uniformly (the
    # reordered cut is exercised by shard-bench --reorder in CI).
    shards = max(1, min(4, os.cpu_count() or 1))
    with Router(
        method,
        num_shards=shards,
        max_batch=batch,
        max_wait_ms=2.0,
        max_pending=4096,
    ) as router:
        run_closed_loop(
            router, seeds, k=topk, clients=clients, requests_per_client=8,
        )
        sharded = run_closed_loop(
            router, seeds, k=topk, clients=clients,
            requests_per_client=max(32, batch),
        )

    # Dynamic serving: the same closed loop against a Server whose graph
    # mutates underneath it — a mutator thread applies edge-update
    # batches with periodic compactions while clients query, so the
    # recorded sustained updates/sec and latency percentiles charge
    # every epoch-repair cost (re-preprocess, cache invalidation, warm
    # restarts) to the numbers the deployment actually observes.
    dynamic_graph = DynamicGraph(graph)
    dynamic_method = TPA(s_iteration=5, t_iteration=10)
    dynamic_method.preprocess(dynamic_graph)
    with Server(
        dynamic_method,
        dynamic_graph,
        workers=workers,
        max_batch=batch,
        max_wait_ms=2.0,
        max_pending=4096,
    ) as server:
        run_closed_loop(
            server, seeds, k=topk, clients=clients, requests_per_client=8,
        )
        updates = run_update_bench(
            server,
            dynamic_graph,
            seeds,
            k=topk,
            clients=clients,
            requests_per_client=max(32, batch),
            update_batch=8,
            compact_every=256,
        )

    def phase_fields(prefix: str, stats: dict) -> dict:
        """Flatten a deployment's per-phase breakdown (queue/dispatch/
        sweep/gather/select mean ms per batch) into trajectory fields,
        so phase-level regressions are diffable commit to commit just
        like the headline q/s numbers."""
        return {
            f"{prefix}_phase_{name}_mean_ms": info["mean_ms"]
            for name, info in sorted((stats.get("phases") or {}).items())
        }

    shard_stats = sharded.server_stats.get("shards") or {}

    return {
        "recorded_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "commit": _commit(),
        "backend": kernels.get_backend(),
        "compute_dtype": np.dtype(dtype).name,
        # Trajectory entries are only comparable between runs whose
        # machine fingerprints match — filter on this before diffing q/s.
        "machine": machine_fingerprint().to_dict(),
        "graph": {
            "kind": "community",
            "nodes": graph.num_nodes,
            "edges": graph.num_edges,
            "avg_degree": avg_degree,
        },
        "batch": int(batch),
        "num_hubs": int(reordering.num_hubs),
        "spmv_seconds": spmv_seconds,
        "spmm_seconds": spmm_seconds,
        "spmm_reordered_seconds": spmm_reordered_seconds,
        "preprocess_seconds": preprocess_seconds,
        "queries_per_second_batched": batch / batched_seconds,
        "queries_per_second_looped": batch / looped_seconds,
        "batched_over_looped_speedup": looped_seconds / batched_seconds,
        "topk_k": int(topk),
        "topk_queries_per_second_fused": batch / fused_seconds,
        "topk_queries_per_second_materialized": batch / materialized_seconds,
        "fused_over_materialized_topk_speedup": (
            materialized_seconds / fused_seconds
        ),
        "serving_workers": workers,
        "serving_clients": clients,
        "serving_requests": report.requests,
        "serving_queries_per_second": report.queries_per_second,
        "serving_latency_p50_ms": report.latency_p50_ms,
        "serving_latency_p95_ms": report.latency_p95_ms,
        "serving_latency_p99_ms": report.latency_p99_ms,
        # Resilience counters (normally all zero in a clean run; a
        # non-zero value here flags a flaky host or a real regression in
        # the supervision/retry machinery).
        "serving_failures": report.server_stats.get("failures", 0),
        "serving_retries": report.server_stats.get("retries", 0),
        "serving_respawns": report.server_stats.get("respawns", 0),
        **phase_fields("serving", report.server_stats),
        "sharded_shards": shards,
        "sharded_requests": sharded.requests,
        "sharded_queries_per_second": sharded.queries_per_second,
        "sharded_latency_p50_ms": sharded.latency_p50_ms,
        "sharded_latency_p95_ms": sharded.latency_p95_ms,
        "sharded_latency_p99_ms": sharded.latency_p99_ms,
        "sharded_failures": sharded.server_stats.get("failures", 0),
        "sharded_retries": sharded.server_stats.get("retries", 0),
        "sharded_respawns": sharded.server_stats.get("respawns", 0),
        # Worker-pool-level counters from shard_stats(): process
        # respawns, bounded sweep retries, and the per-shard generation
        # numbers the store is serving at run end.
        "sharded_shard_respawns": int(shard_stats.get("respawns", 0)),
        "sharded_sweep_retries": int(shard_stats.get("sweep_retries", 0)),
        "sharded_republishes": int(shard_stats.get("republishes", 0)),
        "sharded_generations": [
            int(generation)
            for generation in shard_stats.get("generations", [])
        ],
        **phase_fields("sharded", sharded.server_stats),
        **updates.update_fields(),
        "updates_queries_per_second": updates.load.queries_per_second,
        "updates_latency_p50_ms": updates.load.latency_p50_ms,
        "updates_latency_p95_ms": updates.load.latency_p95_ms,
        "updates_latency_p99_ms": updates.load.latency_p99_ms,
        "updates_failures": updates.load.server_stats.get("failures", 0),
        "updates_retries": updates.load.server_stats.get("retries", 0),
        "updates_respawns": updates.load.server_stats.get("respawns", 0),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Record a BENCH_kernels.json perf-trajectory entry"
    )
    parser.add_argument("--nodes", type=int, default=20_000)
    parser.add_argument("--avg-degree", type=int, default=16)
    parser.add_argument("--batch", type=int, default=64)
    parser.add_argument("--repeats", type=int, default=9)
    parser.add_argument(
        "--backend", choices=("auto", "numba", "numpy"), default="auto",
        help="kernel backend to measure (default: auto-selected)",
    )
    parser.add_argument(
        "--output", type=Path, default=DEFAULT_OUTPUT,
        help=f"JSON-lines file to append to (default {DEFAULT_OUTPUT})",
    )
    args = parser.parse_args(argv)

    kernels.set_backend(None if args.backend == "auto" else args.backend)
    entry = measure(args.nodes, args.avg_degree, args.batch, args.repeats)

    with open(args.output, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(entry) + "\n")

    print(json.dumps(entry, indent=2))
    print(f"\nappended to {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
