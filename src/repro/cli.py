"""Command-line interface for the library itself.

Five subcommands::

    python -m repro query --graph edges.tsv --seed 42 --method tpa --top 20
    python -m repro query --graph edges.tsv --seeds 1,2,3 --method tpa
    python -m repro query --graph edges.tsv --seeds @seeds.txt --batch
    python -m repro stats --graph edges.tsv
    python -m repro generate --dataset pokec --scale 0.5 --out pokec.tsv
    python -m repro tune --json
    python -m repro serve-bench --nodes 20000 --workers 4 --clients 8
    python -m repro shard-bench --nodes 20000 --shards 4 --clients 8 --tuned
    python -m repro update-bench --nodes 20000 --workers 4 --clients 8

``query`` reads a whitespace edge list, runs the chosen method through the
batched :class:`~repro.engine.Engine`, and prints the top-ranked nodes (in
the file's original ids).  Seeds come from ``--seed`` (one id) or
``--seeds`` (comma-separated list, or ``@path`` to a file with one id per
whitespace-separated token); multiple seeds — or ``--batch`` — switch the
output to the tab-separated batch format with a leading ``seed`` column.
Methods are resolved via the registry
(:func:`repro.engine.available_methods`).

``stats`` prints the structural summary used to judge TPA-friendliness;
``generate`` writes one of the synthetic dataset analogs to disk as an
edge list.

``tune`` measures this machine's kernel and serving knobs
(:func:`repro.tune.autotune`) and caches the resulting
:class:`~repro.tune.TuneProfile` under a hardware fingerprint — the
second invocation reads the cache instead of re-measuring.

The three benchmarks share one driver (:func:`_command_bench`) and one
flag surface.  ``serve-bench`` stands up a
:class:`repro.serving.Server` (worker pool of Engine replicas behind
the micro-batching scheduler); ``shard-bench`` stands up a
:class:`repro.sharding.Router` (shard worker processes over
shared-memory CSR stripes behind the same scheduler); ``update-bench``
serves over a live :class:`repro.dynamic.DynamicGraph` while a mutator
thread applies edge-update batches.  All drive the closed-loop load
generator and print the client-observed latency histogram plus
p50/p95/p99 and throughput; ``--json`` additionally writes the report —
one shared, versioned schema
(:data:`repro.serving.metrics.REPORT_SCHEMA`) for every deployment, so
CI's artifacts stay directly diffable.  ``--tuned [PATH]`` serves with
a tuned profile (bare ``--tuned`` uses this machine's cached profile,
measuring one if needed) and ``--pin`` / ``--no-pin`` controls core
pinning; every knob the caller sets explicitly still wins over the
profile.

(The per-figure experiment harness lives under ``python -m
repro.experiments``.)
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.engine import Engine, QueryRequest, available_methods, create_method
from repro.graph.datasets import DATASETS, dataset_names, load_dataset
from repro.graph.io import read_edge_list, write_edge_list
from repro.graph.stats import graph_stats

__all__ = ["main"]


def _method_params(args: argparse.Namespace) -> dict:
    """Per-method constructor arguments sourced from CLI flags."""
    if args.method == "tpa":
        return {
            "s_iteration": args.s_iteration,
            "t_iteration": args.t_iteration,
        }
    return {}


def _parse_seed_spec(spec: str) -> list[int]:
    """Parse ``--seeds``: a comma list (``1,2,3``) or ``@file`` of ids."""
    if spec.startswith("@"):
        try:
            tokens = Path(spec[1:]).read_text(encoding="utf-8").split()
        except OSError as error:
            raise SystemExit(f"cannot read seed file {spec[1:]!r}: {error}")
    else:
        tokens = [token for token in spec.split(",") if token.strip()]
    try:
        return [int(token) for token in tokens]
    except ValueError as error:
        raise SystemExit(f"invalid seed id in --seeds: {error}") from error


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Approximate RWR on edge-list graphs (TPA, ICDE 2018).",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    query = commands.add_parser("query", help="rank nodes by RWR from seeds")
    query.add_argument("--graph", required=True, help="edge-list file")
    query.add_argument("--seed", type=int, help="seed node (original id)")
    query.add_argument("--seeds",
                       help="seed batch: comma list '1,2,3' or '@file' with "
                            "one id per token")
    query.add_argument("--method", choices=available_methods(), default="tpa")
    query.add_argument("--top", type=int, default=10)
    query.add_argument("--batch", action="store_true",
                       help="force the tab-separated batch output format")
    query.add_argument("--s-iteration", type=int, default=5)
    query.add_argument("--t-iteration", type=int, default=10)

    stats = commands.add_parser("stats", help="structural graph summary")
    stats.add_argument("--graph", required=True, help="edge-list file")

    generate = commands.add_parser("generate", help="write a dataset analog")
    generate.add_argument("--dataset", choices=dataset_names(), required=True)
    generate.add_argument("--scale", type=float, default=1.0)
    generate.add_argument("--out", required=True, help="destination path")

    tune_cmd = commands.add_parser(
        "tune",
        help="measure this machine's kernel/serving knobs and cache them",
    )
    tune_cmd.add_argument("--graph",
                          help="edge-list file to probe on "
                               "(default: synthetic probe graph)")
    tune_cmd.add_argument("--nodes", type=int, default=8000,
                          help="synthetic probe-graph size")
    tune_cmd.add_argument("--avg-degree", type=int, default=12,
                          help="synthetic probe-graph mean degree")
    tune_cmd.add_argument("--repeats", type=int, default=3,
                          help="timing repetitions per grid cell")
    tune_cmd.add_argument("--force", action="store_true",
                          help="re-measure even when a cached profile exists")
    tune_cmd.add_argument("--json", dest="json_out", nargs="?", const="-",
                          metavar="PATH",
                          help="emit the profile as JSON (to stdout, or to "
                               "PATH)")

    def add_bench_arguments(bench) -> None:
        """Flags shared by all three benchmarks — one surface, one
        driver (:func:`_command_bench`), three deployments."""
        source = bench.add_mutually_exclusive_group(required=True)
        source.add_argument("--graph", help="edge-list file to serve")
        source.add_argument("--nodes", type=int,
                            help="serve a synthetic community graph this big")
        bench.add_argument("--avg-degree", type=int, default=16,
                           help="synthetic graph mean degree (with --nodes)")
        bench.add_argument("--method", choices=available_methods(),
                           default="tpa")
        bench.add_argument("--s-iteration", type=int, default=5)
        bench.add_argument("--t-iteration", type=int, default=10)
        bench.add_argument("--clients", type=int, default=4,
                           help="closed-loop client threads")
        bench.add_argument("--requests", type=int, default=100,
                           help="requests per client")
        bench.add_argument("--top", type=int, default=10,
                           help="top-k of every request")
        bench.add_argument("--max-batch", type=int, default=None,
                           help="scheduler micro-batch cap "
                                "(default: tuned profile, else 32)")
        bench.add_argument("--max-wait-ms", type=float, default=None,
                           help="scheduler coalescing window "
                                "(default: tuned profile, else 2.0)")
        bench.add_argument("--max-pending", type=int, default=1024)
        bench.add_argument("--cache", type=int, default=0,
                           help="shared score-cache capacity (0 = off)")
        bench.add_argument("--seed-pool", type=int, default=256,
                           help="distinct seeds the load generator cycles "
                                "over")
        bench.add_argument("--tuned", nargs="?", const="auto", default=None,
                           metavar="PATH",
                           help="serve with a tuned profile: bare --tuned "
                                "loads (measuring if absent) this machine's "
                                "cached profile, --tuned PATH loads a saved "
                                "one; explicit flags still win")
        bench.add_argument("--pin", action=argparse.BooleanOptionalAction,
                           default=None,
                           help="pin workers/shards to distinct cores "
                                "(default: pin exactly when --tuned)")
        bench.add_argument("--deadline-ms", type=float, default=None,
                           help="queue deadline per request: still "
                                "undispatched after this many ms, it fails "
                                "fast with DeadlineExceeded")
        bench.add_argument("--retry-attempts", type=int, default=None,
                           help="bound client-side retries of rejected "
                                "submissions (jittered backoff) instead of "
                                "retrying forever")
        bench.add_argument("--retry-backoff-ms", type=float, default=5.0,
                           help="base backoff of --retry-attempts retries")
        bench.add_argument("--json", dest="json_out",
                           help="also write the report as JSON to this path")
        bench.add_argument("--trace", dest="trace_out", metavar="PATH",
                           help="enable request tracing for the run and "
                                "dump the retained spans as JSON to PATH "
                                "(inspect with 'repro obs trace PATH')")
        bench.add_argument("--metrics-out", dest="metrics_out",
                           metavar="PATH",
                           help="dump the metrics registry after the run: "
                                "Prometheus text, or a JSON snapshot when "
                                "PATH ends in .json")
        bench.add_argument("--profile", dest="profile_out", metavar="PATH",
                           help="sample-profile the run (router and shard "
                                "workers alike) and write the merged "
                                "collapsed-stack profile to PATH — "
                                "flamegraph.pl input, or a repro-profile/1 "
                                "JSON snapshot when PATH ends in .json "
                                "(inspect with 'repro obs profile PATH')")
        bench.add_argument("--obs-port", dest="obs_port", type=int,
                           default=None, metavar="PORT",
                           help="serve /metrics, /health, /snapshot, "
                                "/traces, /profile over HTTP for the "
                                "run's duration (0 = ephemeral port)")

    bench = commands.add_parser(
        "serve-bench",
        help="closed-loop load test of the concurrent serving stack",
    )
    add_bench_arguments(bench)
    bench.add_argument("--workers", type=int, default=None,
                       help="worker threads, one Engine replica each "
                            "(default: tuned profile, else 2)")

    shard = commands.add_parser(
        "shard-bench",
        help="closed-loop load test of the sharded multi-process router",
    )
    add_bench_arguments(shard)
    shard.add_argument("--shards", type=int, default=None,
                       help="shard worker processes, one row stripe each "
                            "(default: tuned profile, else 2)")
    shard.add_argument("--reorder",
                       choices=("none", "slashburn", "partition"),
                       default="slashburn",
                       help="row ordering the shard plan cuts on")
    shard.add_argument("--start-method", default=None,
                       help="multiprocessing start method override")

    update = commands.add_parser(
        "update-bench",
        help="closed-loop load test while the graph mutates underneath",
    )
    add_bench_arguments(update)
    update.add_argument("--workers", type=int, default=None,
                        help="worker threads, one Engine replica each "
                             "(default: tuned profile, else 2)")
    update.add_argument("--update-batch", type=int, default=8,
                        help="edges per mutation call")
    update.add_argument("--compact-every", type=int, default=256,
                        help="applied mutations between compactions "
                             "(0 = never compact, pure overlay serving)")
    update.add_argument("--backlog", type=int, default=1024,
                        help="max benchmark-inserted edges alive at once")

    obs = commands.add_parser(
        "obs",
        help="inspect observability dumps written by the benchmarks",
    )
    obs_kinds = obs.add_subparsers(dest="obs_command", required=True)
    obs_metrics_cmd = obs_kinds.add_parser(
        "metrics",
        help="summarize a metrics dump (--metrics-out file: Prometheus "
             "text or JSON snapshot)",
    )
    obs_metrics_cmd.add_argument("path", help="metrics dump file")
    obs_trace_cmd = obs_kinds.add_parser(
        "trace",
        help="render the span trees in a trace dump (--trace file)",
    )
    obs_trace_cmd.add_argument("path", help="trace dump file (JSON)")
    obs_trace_cmd.add_argument("--trace-id", default=None,
                               help="render only this trace")
    obs_profile_cmd = obs_kinds.add_parser(
        "profile",
        help="summarize a sampling profile (--profile file: collapsed "
             "stacks or repro-profile/1 JSON, or a bench report with a "
             "profile section)",
    )
    obs_profile_cmd.add_argument("path", help="profile dump file")
    obs_profile_cmd.add_argument("--top", type=int, default=20,
                                 help="self-time rows to print")

    return parser


def _command_query(args: argparse.Namespace) -> int:
    if args.seed is None and args.seeds is None:
        print("one of --seed or --seeds is required", file=sys.stderr)
        return 2

    graph, original_ids = read_edge_list(args.graph)
    id_to_compact = {int(original): index
                     for index, original in enumerate(original_ids.tolist())}

    requested: list[int] = []
    if args.seed is not None:
        requested.append(args.seed)
    if args.seeds is not None:
        requested.extend(_parse_seed_spec(args.seeds))
    missing = [seed for seed in requested if seed not in id_to_compact]
    if missing:
        print(f"seed id {missing[0]} not present in {args.graph}",
              file=sys.stderr)
        return 2
    compact_seeds = [id_to_compact[seed] for seed in requested]

    method = create_method(args.method, **_method_params(args))
    engine = Engine(method, graph)
    results = engine.batch(
        [QueryRequest(seed=seed, k=args.top, exclude_seed=False)
         for seed in compact_seeds]
    )

    online_seconds = sum(result.seconds for result in results)
    print(f"# method={method.name} nodes={graph.num_nodes} "
          f"edges={graph.num_edges}")
    print(f"# preprocess={engine.preprocess_seconds:.4f}s "
          f"online={online_seconds:.4f}s "
          f"index={method.preprocessed_bytes()}B")

    batch_mode = args.batch or len(results) > 1
    if batch_mode:
        print(f"# queries={len(results)}")
        print("seed\trank\tnode\tscore")
        for original_seed, result in zip(requested, results):
            for rank, (node, score) in enumerate(
                zip(result.top_nodes.tolist(), result.top_scores.tolist()),
                start=1,
            ):
                print(f"{original_seed}\t{rank}\t{original_ids[node]}\t"
                      f"{score:.6e}")
    else:
        result = results[0]
        print("rank\tnode\tscore")
        for rank, (node, score) in enumerate(
            zip(result.top_nodes.tolist(), result.top_scores.tolist()),
            start=1,
        ):
            print(f"{rank}\t{original_ids[node]}\t{score:.6e}")
    return 0


def _command_stats(args: argparse.Namespace) -> int:
    graph, _ = read_edge_list(args.graph)
    stats = graph_stats(graph)
    print(f"nodes            {stats.num_nodes}")
    print(f"edges            {stats.num_edges}")
    print(f"mean degree      {stats.mean_degree:.2f}")
    print(f"max in-degree    {stats.max_in_degree}")
    print(f"max out-degree   {stats.max_out_degree}")
    print(f"in-degree gini   {stats.in_degree_gini:.3f}")
    print(f"out-degree gini  {stats.out_degree_gini:.3f}")
    print(f"reciprocity      {stats.reciprocity:.3f}")
    print(f"dangling nodes   {stats.dangling_nodes}")
    return 0


def _bench_graph(args: argparse.Namespace):
    """The benchmark graph plus a human-readable source label."""
    from repro.graph.generators import community_graph

    if args.graph is not None:
        graph, _ = read_edge_list(args.graph)
        return graph, args.graph
    graph = community_graph(
        args.nodes, avg_degree=args.avg_degree,
        num_communities=max(8, args.nodes // 500), seed=7,
    )
    return graph, f"synthetic community ({args.nodes} nodes)"


def _bench_seed_pool(args: argparse.Namespace, num_nodes: int):
    import numpy as np

    return np.random.default_rng(0).choice(
        num_nodes, size=min(args.seed_pool, num_nodes), replace=False,
    )


def _print_bench_report(args: argparse.Namespace, report, *, kind: str,
                        config: dict, extra: dict | None = None) -> None:
    """Render one closed-loop report: histogram, summary lines, and the
    optional JSON document (shared schema across all three benchmarks;
    ``extra`` fields — e.g. ``updates_*`` — merge into the document)."""
    import json

    from repro.serving.metrics import bench_report, latency_histogram

    print(latency_histogram(report.latencies_ms))
    print(f"requests        {report.requests}")
    print(f"rejected        {report.rejected}")
    print(f"errors          {report.errors}")
    print(f"retries         {report.retries}")
    print(f"deadline misses {report.deadlines_exceeded}")
    print(f"wall seconds    {report.seconds:.3f}")
    print(f"throughput      {report.queries_per_second:.1f} q/s")
    print(f"latency p50     {report.latency_p50_ms:.2f} ms")
    print(f"latency p95     {report.latency_p95_ms:.2f} ms")
    print(f"latency p99     {report.latency_p99_ms:.2f} ms")
    print(f"latency mean    {report.latency_mean_ms:.2f} ms")
    stats = report.server_stats
    print(f"queue mean      {stats['queue_mean_ms']:.2f} ms")
    print(f"compute mean    {stats['compute_mean_ms']:.2f} ms")
    resilience = " / ".join(
        f"{stats.get(key, 0)} {key}"
        for key in ("failures", "retries", "respawns", "deadlines_exceeded")
    )
    print(f"server faults   {resilience}")
    cache = stats.get("cache")
    if cache:
        print(f"cache           {cache['hits']} hits / "
              f"{cache['misses']} misses / {cache['evictions']} evictions")

    if args.json_out:
        document = bench_report(report, kind=kind, config=config)
        if extra:
            document.update(extra)
        with open(args.json_out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2)
        print(f"wrote report to {args.json_out}")


def _load_tuned_profile(args: argparse.Namespace):
    """Resolve ``--tuned`` into a :class:`~repro.tune.TuneProfile`.

    ``None`` when the flag is absent; bare ``--tuned`` resolves through
    :func:`repro.tune.autotune` (cache hit, or measure-and-save);
    ``--tuned PATH`` loads exactly that file."""
    spec = getattr(args, "tuned", None)
    if spec is None:
        return None
    from repro import tune
    from repro.exceptions import ParameterError

    if spec == "auto":
        return tune.autotune()
    try:
        return tune.TuneProfile.load(spec)
    except (OSError, ValueError, KeyError, ParameterError) as error:
        raise SystemExit(f"cannot load tuned profile {spec!r}: {error}")


def _command_bench(args: argparse.Namespace) -> int:
    """The one driver behind serve-bench, shard-bench, and update-bench.

    Resolves the graph, method, seed pool, and optional tuned profile;
    stands up the deployment the subcommand names (Server, Router, or
    Server over a :class:`~repro.dynamic.DynamicGraph`); runs the
    closed-loop load; renders the shared report.  Knob precedence is the
    deployments' own: explicit flag > tuned profile > static default —
    the header and JSON config echo the *resolved* values."""
    import os

    from repro.obs import profile as obs_profile
    from repro.obs import trace as obs_trace
    from repro.serving import Server, run_closed_loop

    kind = args.command
    if args.trace_out:
        # Opt the whole run (and any shard workers it spawns, via the
        # inherited environment) into tracing before the deployment
        # exists, so the very first request is already traced.
        obs_trace.set_tracing(True)
        os.environ.setdefault(obs_trace.TRACE_ENV_VAR, "1")
    if args.profile_out:
        # Same pattern for the profiler: the environment opt-in is what
        # shard worker processes inherit and arm themselves from.
        os.environ.setdefault(obs_profile.PROFILE_ENV_VAR, "1")
        obs_profile.set_profiling(True)
    graph, source = _bench_graph(args)
    if kind == "update-bench":
        from repro.dynamic import DynamicGraph

        graph = DynamicGraph(graph)
    method = create_method(args.method, **_method_params(args))
    pool = _bench_seed_pool(args, graph.num_nodes)
    profile = _load_tuned_profile(args)
    client_retry = None
    if args.retry_attempts is not None:
        from repro.resilience import RetryPolicy

        client_retry = RetryPolicy(
            max_attempts=args.retry_attempts,
            backoff_ms=args.retry_backoff_ms,
        )

    common = dict(
        max_batch=args.max_batch,
        max_wait_ms=args.max_wait_ms,
        max_pending=args.max_pending,
        cache_size=args.cache,
        tune=profile,
        pin=args.pin,
        obs_port=args.obs_port,
    )
    if kind == "shard-bench":
        from repro.sharding import Router

        deployment = Router(
            method,
            graph,
            num_shards=args.shards,
            reorder=None if args.reorder == "none" else args.reorder,
            start_method=args.start_method,
            **common,
        )
    else:
        deployment = Server(method, graph, workers=args.workers, **common)

    extra = None
    with deployment:
        if deployment.exporter is not None:
            print(f"# obs endpoint  {deployment.exporter.url('/metrics')}")
        stats = deployment.stats()
        max_batch = stats["max_batch"]
        max_wait_ms = stats["max_wait_ms"]
        config = {
            "graph": source, "nodes": graph.num_nodes,
            "edges": graph.num_edges, "method": method.name,
            "clients": args.clients, "requests_per_client": args.requests,
            "top": args.top, "max_batch": max_batch,
            "max_wait_ms": max_wait_ms, "cache": args.cache,
            "tuned": profile is not None,
            "deadline_ms": args.deadline_ms,
            "retry_attempts": args.retry_attempts,
        }
        print(f"# graph={source} nodes={graph.num_nodes} "
              f"edges={graph.num_edges}")
        if kind == "shard-bench":
            shape = f"shards={deployment.num_shards} reorder={args.reorder}"
            pinning = stats["shards"]["pinning"]
            config["shards"] = deployment.num_shards
            config["reorder"] = args.reorder
            config["shard_rows"] = stats["shards"]["shard_rows"]
        else:
            shape = f"workers={deployment.workers}"
            pinning = stats.get("pinning")
            config["workers"] = deployment.workers
        config["pinning"] = pinning
        print(f"# method={method.name} {shape} "
              f"clients={args.clients} requests/client={args.requests} "
              f"top={args.top} max_batch={max_batch} "
              f"max_wait_ms={max_wait_ms:g} cache={args.cache}")
        if profile is not None:
            print(f"# tuned fingerprint={profile.fingerprint.key()} "
                  f"stream_block={profile.stream_block} "
                  f"kernel_threads={profile.kernel_threads} "
                  f"pinning={pinning}")
        if kind == "shard-bench":
            print(f"# shard rows    {config['shard_rows']}")
        if kind == "update-bench":
            from repro.dynamic import run_update_bench

            config.update(
                update_batch=args.update_batch,
                compact_every=args.compact_every,
                backlog=args.backlog,
            )
            result = run_update_bench(
                deployment,
                graph,
                pool,
                k=args.top,
                clients=args.clients,
                requests_per_client=args.requests,
                update_batch=args.update_batch,
                compact_every=args.compact_every,
                backlog=args.backlog,
            )
            report = result.load
            extra = result.update_fields()
        else:
            report = run_closed_loop(
                deployment,
                pool,
                k=args.top,
                clients=args.clients,
                requests_per_client=args.requests,
                deadline_ms=args.deadline_ms,
                retry=client_retry,
            )

    if kind == "update-bench":
        print(f"updates applied {result.updates_applied} "
              f"(attempted {result.updates_attempted})")
        print(f"compactions     {result.compactions}")
        print(f"updates/sec     {result.updates_per_second:.1f}")
    _print_bench_report(args, report, kind=kind, config=config, extra=extra)
    if args.trace_out:
        retained = obs_trace.dump_traces(args.trace_out)
        print(f"wrote {len(retained['spans'])} spans "
              f"({len(obs_trace.trace_ids())} traces) to {args.trace_out}")
    if args.metrics_out:
        from repro.obs import metrics as obs_metrics

        registry = obs_metrics.get_registry()
        if args.metrics_out.endswith(".json"):
            payload = obs_metrics.snapshot_json(indent=2) + "\n"
        else:
            payload = registry.expose()
        with open(args.metrics_out, "w", encoding="utf-8") as handle:
            handle.write(payload)
        print(f"wrote {len(registry.families())} metric families "
              f"to {args.metrics_out}")
    if args.profile_out:
        import json

        # Fold the local sampler's remaining epoch in; worker samples
        # already arrived on the step replies.
        obs_profile.stop()
        snapshot = obs_profile.profile_snapshot()
        if args.profile_out.endswith(".json"):
            payload = json.dumps(snapshot, indent=2) + "\n"
        else:
            payload = obs_profile.collapsed()
        with open(args.profile_out, "w", encoding="utf-8") as handle:
            handle.write(payload)
        print(f"wrote {snapshot['samples']} profile samples "
              f"from {len(snapshot['pids'])} process(es) "
              f"to {args.profile_out}")
    return 0


def _command_tune(args: argparse.Namespace) -> int:
    import json

    from repro import tune

    graph = None
    if args.graph is not None:
        graph, _ = read_edge_list(args.graph)
    fingerprint = tune.machine_fingerprint()
    cached = None if args.force else tune.load_cached(fingerprint)
    profile = cached if cached is not None else tune.autotune(
        graph,
        force=args.force,
        nodes=args.nodes,
        avg_degree=args.avg_degree,
        repeats=args.repeats,
    )
    if args.json_out:
        document = json.dumps(profile.to_dict(), indent=2)
        if args.json_out == "-":
            print(document)
            return 0
        Path(args.json_out).write_text(document + "\n", encoding="utf-8")
        print(f"wrote profile to {args.json_out}")
    print(f"fingerprint     {fingerprint.key()} "
          f"({fingerprint.cpu_count} cpus, "
          f"{len(fingerprint.numa)} numa node(s), "
          f"backend={fingerprint.backend})")
    print(f"profile         "
          f"{'cached' if cached is not None else 'measured'} "
          f"({tune.cache_path(fingerprint)})")
    print(f"probe seconds   {profile.probe_seconds:.2f}")
    print(f"stream_block    {profile.stream_block}")
    print(f"kernel_threads  {profile.kernel_threads}")
    print(f"workers         {profile.workers}")
    print(f"shards          {profile.shards}")
    print(f"max_batch       {profile.max_batch}")
    print(f"max_wait_ms     {profile.max_wait_ms:g}")
    return 0


def _command_obs(args: argparse.Namespace) -> int:
    """Inspect dump files written by ``--metrics-out`` / ``--trace``.

    A fresh CLI process has an empty registry and span buffer, so both
    subcommands operate on the files the benchmarks wrote rather than
    on live state: ``metrics`` re-parses the exposition text (or JSON
    snapshot) and prints a per-family summary; ``trace`` rebuilds and
    renders the span trees."""
    import json

    from repro.obs import metrics as obs_metrics
    from repro.obs import trace as obs_trace

    try:
        text = Path(args.path).read_text(encoding="utf-8")
    except OSError as error:
        raise SystemExit(f"cannot read {args.path!r}: {error}")

    if args.obs_command == "metrics":
        if text.lstrip().startswith("{"):
            snapshot = json.loads(text)
            families = snapshot.get("families", {})
            rows = []
            for name in sorted(families):
                family = families[name]
                for sample in family.get("samples", []):
                    labels = sample.get("labels") or {}
                    if "value" in sample:
                        rows.append((name, labels, sample["value"]))
                    else:  # histogram sample
                        rows.append(
                            (f"{name}_sum", labels, sample["sum"])
                        )
                        rows.append(
                            (f"{name}_count", labels, sample["count"])
                        )
        else:
            try:
                families = obs_metrics.parse_prometheus_text(text)
            except ValueError as error:
                raise SystemExit(f"malformed metrics dump: {error}")
            rows = [
                sample
                for name in sorted(families)
                for sample in families[name]["samples"]
            ]
        for sample_name, labels, value in rows:
            rendered = (
                "{" + ",".join(
                    f"{key}={labels[key]}" for key in sorted(labels)
                ) + "}"
                if labels else ""
            )
            print(f"{sample_name}{rendered} {value:g}")
        print(f"# {len(families)} families, {len(rows)} samples")
        return 0

    if args.obs_command == "profile":
        stacks: dict[str, float] = {}
        if text.lstrip().startswith("{"):
            document = json.loads(text)
            # Accept a repro-profile/1 snapshot directly, or a bench
            # report carrying one under its "profile" key.
            section = (
                document
                if "stacks" in document
                else document.get("profile", {})
            )
            stacks = {
                str(stack): float(count)
                for stack, count in (section.get("stacks") or {}).items()
            }
        else:
            for line in text.splitlines():
                line = line.strip()
                if not line:
                    continue
                stack, _, count = line.rpartition(" ")
                try:
                    stacks[stack] = stacks.get(stack, 0.0) + float(count)
                except ValueError:
                    raise SystemExit(
                        f"malformed collapsed-stack line: {line!r}"
                    )
        if not stacks:
            print("# empty profile (was REPRO_PROFILE/--profile set?)")
            return 0
        total = sum(stacks.values())
        pids = sorted(
            {
                stack.split(";", 1)[0][4:]
                for stack in stacks
                if stack.startswith("pid:")
            }
        )
        self_time: dict[str, float] = {}
        for stack, count in stacks.items():
            leaf = stack.rsplit(";", 1)[-1]
            self_time[leaf] = self_time.get(leaf, 0.0) + count
        ranked = sorted(
            self_time.items(), key=lambda item: (-item[1], item[0])
        )
        print(f"{'samples':>9}  {'share':>6}  symbol (self time)")
        for symbol, count in ranked[: args.top]:
            print(f"{count:9g}  {count / total:6.1%}  {symbol}")
        print(f"# {total:g} samples, {len(stacks)} stacks, "
              f"{len(pids)} process(es): {', '.join(pids)}")
        return 0

    document = json.loads(text)
    spans = document.get("spans", [])
    by_trace: dict[str, list] = {}
    for span in spans:
        by_trace.setdefault(span["trace_id"], []).append(span)
    wanted = [args.trace_id] if args.trace_id else sorted(by_trace)
    for trace_id in wanted:
        if trace_id not in by_trace:
            raise SystemExit(f"trace {trace_id!r} not in {args.path}")
        print(obs_trace.format_trace(trace_id, retained=by_trace[trace_id]))
    print(f"# {len(spans)} spans across {len(by_trace)} traces")
    return 0


def _command_generate(args: argparse.Namespace) -> int:
    graph = load_dataset(args.dataset, scale=args.scale)
    spec = DATASETS[args.dataset]
    write_edge_list(
        graph,
        args.out,
        header=(
            f"analog of {args.dataset} (paper: {spec.paper_nodes} nodes, "
            f"{spec.paper_edges} edges) at scale {args.scale}"
        ),
    )
    print(f"wrote {graph.num_nodes} nodes / {graph.num_edges} edges to {args.out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "query": _command_query,
        "stats": _command_stats,
        "generate": _command_generate,
        "tune": _command_tune,
        "serve-bench": _command_bench,
        "shard-bench": _command_bench,
        "update-bench": _command_bench,
        "obs": _command_obs,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    raise SystemExit(main())
