"""Command-line interface for the library itself.

Five subcommands::

    python -m repro query --graph edges.tsv --seed 42 --method tpa --top 20
    python -m repro query --graph edges.tsv --seeds 1,2,3 --method tpa
    python -m repro query --graph edges.tsv --seeds @seeds.txt --batch
    python -m repro stats --graph edges.tsv
    python -m repro generate --dataset pokec --scale 0.5 --out pokec.tsv
    python -m repro tune --json
    python -m repro obs trace traces.json

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

``obs`` inspects the dump files the observability layer writes —
a metrics exposition or JSON snapshot (:mod:`repro.obs.metrics`), a
span dump (:func:`repro.obs.trace.dump_traces`), or a sampling
profile (:mod:`repro.obs.profile`).

Load tests live in the benchmark ladder (``benchmarks/ladder/run.py``),
not here.

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

    obs = commands.add_parser(
        "obs",
        help="inspect observability dumps (metrics, traces, profiles)",
    )
    obs_kinds = obs.add_subparsers(dest="obs_command", required=True)
    obs_metrics_cmd = obs_kinds.add_parser(
        "metrics",
        help="summarize a metrics dump (Prometheus text or JSON "
             "snapshot)",
    )
    obs_metrics_cmd.add_argument("path", help="metrics dump file")
    obs_trace_cmd = obs_kinds.add_parser(
        "trace",
        help="render the span trees in a dump_traces() file",
    )
    obs_trace_cmd.add_argument("path", help="trace dump file (JSON)")
    obs_trace_cmd.add_argument("--trace-id", default=None,
                               help="render only this trace")
    obs_profile_cmd = obs_kinds.add_parser(
        "profile",
        help="summarize a sampling profile (collapsed stacks or "
             "repro-profile/1 JSON)",
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
    """Inspect observability dump files.

    A fresh CLI process has an empty registry and span buffer, so every
    subcommand operates on a file rather than on live state: ``metrics``
    re-parses the exposition text (or JSON snapshot) and prints a
    per-family summary; ``trace`` rebuilds and renders the span trees;
    ``profile`` ranks the sampled stacks by self time."""
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
            snapshot = json.loads(text)
            stacks = {
                str(stack): float(count)
                for stack, count in (snapshot.get("stacks") or {}).items()
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
            print("# empty profile (was REPRO_PROFILE set?)")
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
        "obs": _command_obs,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    raise SystemExit(main())
