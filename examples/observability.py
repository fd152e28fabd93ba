"""One pane of glass over the serving stack: metrics + request tracing.

``repro.obs`` gives every deployment the same two instruments.  The
*metrics registry* fills itself as a side effect of serving — request
latency histograms, per-phase breakdowns, cache traffic, scheduler
depth — and renders either Prometheus text or a JSON snapshot.
*Request tracing* (off by default, ``REPRO_TRACE=1`` or
``set_tracing(True)``) follows each request from scheduler admission
through dispatch into the shard worker processes and back, producing a
connected span tree per request even across a worker respawn.

Both render live over HTTP: ``obs_port=`` (or ``REPRO_OBS_PORT``)
attaches a stdlib-only exporter serving ``/metrics``, ``/health``,
``/snapshot``, ``/traces`` and ``/profile``.

This example serves a small batch through the sharded Router with
tracing on, self-scrapes the live endpoint, then prints one request's
span tree, the phase breakdown, and a slice of the Prometheus
exposition.

Run with::

    python examples/observability.py
"""

from __future__ import annotations

import json
import urllib.request

import numpy as np

from repro import TPA, QueryRequest, Router, community_graph, obs


def main() -> None:
    graph = community_graph(2_000, avg_degree=12, seed=31)
    obs.set_tracing(True)  # or REPRO_TRACE=1 in the environment

    print("Serving 24 requests through a 2-shard Router, traced ...")
    with Router(
        TPA(s_iteration=5, t_iteration=10), graph,
        num_shards=2, max_batch=8, max_wait_ms=1.0, cache_size=64,
        obs_port=0,  # or REPRO_OBS_PORT in the environment
    ) as router:
        requests = [QueryRequest(seed=int(s), k=10) for s in range(24)]
        results = router.batch(requests)
        # A repeat of seed 0 exercises the shared score cache.
        router.query(0, k=10)

        # The same state, scraped live over HTTP while we serve.
        print(f"\nLive exporter on port {router.exporter.port}:")
        with urllib.request.urlopen(router.exporter.url("/health")) as rsp:
            health = json.loads(rsp.read())
            print(f"  GET /health   -> {rsp.status} "
                  f"ready={health['ready']} checks={sorted(health['checks'])}")
        with urllib.request.urlopen(router.exporter.url("/metrics")) as rsp:
            families = obs.parse_prometheus_text(rsp.read().decode())
            print(f"  GET /metrics  -> {rsp.status}, "
                  f"{len(families)} metric families")
        with urllib.request.urlopen(router.exporter.url("/snapshot")) as rsp:
            snap = json.loads(rsp.read())
            print(f"  GET /snapshot -> {rsp.status}, "
                  f"schema {snap['schema']}")

        stats = router.stats()
    assert all(r.top_nodes.size == 10 for r in results)
    assert router.exporter is None  # close() released thread and port

    first_trace = obs.trace_ids()[0]
    print("\nOne request, end to end (worker spans shipped over the pipe"
          " and rebased onto this process's clock):\n")
    print(obs.format_trace(first_trace))

    print("\nPer-phase breakdown (LatencyStats, ms per batch):")
    for name, info in sorted(stats["phases"].items()):
        print(f"  {name:<10} mean {info['mean_ms']:7.3f}  "
              f"total {info['total_ms']:8.3f}  x{info['count']}")

    registry = obs.get_registry()
    families = registry.families()
    print(f"\nRegistry: {len(families)} families, e.g.")
    for name in ("repro_requests_total", "repro_cache_hits_total",
                 "repro_queries_served_total"):
        print(f"  {name} = {families[name].value:g}")
    sweep = families["repro_sweep_seconds"]
    for key, child in sorted(sweep.children().items()):
        labels = dict(zip(sweep.labelnames, key))
        mean_us = 1e6 * child.sum / child.count
        print(f"  repro_sweep_seconds{labels} "
              f"count={child.count} mean={mean_us:.0f}us")

    text = registry.expose()
    obs.parse_prometheus_text(text)  # strict round-trip check
    lines = text.splitlines()
    print(f"\nPrometheus exposition: {len(lines)} lines, first five:")
    for line in lines[:5]:
        print(f"  {line}")

    queue = stats["phases"].get("queue", {"total_ms": 0.0})
    sweeps = stats["phases"].get("sweep", {"total_ms": 0.0})
    print(f"\nWhere the time went: queue {queue['total_ms']:.1f} ms vs "
          f"sweep {sweeps['total_ms']:.1f} ms across the run; "
          "`obs.dump_traces('trace.json')` writes the spans for "
          "offline inspection with `repro obs trace trace.json`.")
    print(f"Spans retained: {len(obs.spans())} "
          f"across {len(obs.trace_ids())} traces (bounded ring buffer).")


if __name__ == "__main__":
    main()
