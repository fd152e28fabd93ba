"""The traced run: every layer measured from outside, on one graph.

Spans are recorded here, in the benchmark, around each call into a
layer (``{id, name, start, end, parent}``, kept in memory and written
out by the caller).  Nothing under ``src/`` is instrumented, so the
traced run costs the program nothing; what it adds over the untraced
run is the rungs beneath the workload's own entry point.

Offline, each ``engine.serve`` block is followed by replays of the same
seeds one rung down — ``core.query_many``, ``core.cpi_many``, ``S − 1``
``kernels.spmm`` on an equal-shape panel, ``kernels.topk`` — so a rung's
self time is its span minus the rung beneath it.  Online, each request
becomes ``request`` with children ``gen.late``, ``queue``, ``batch`` and
``wakeup``.
"""

from __future__ import annotations

import glob
import time
from contextlib import contextmanager

import numpy as np

from repro import kernels
from repro.core.cpi import cpi, cpi_many
from repro.dynamic import DynamicGraph
from repro.engine import Engine
from repro.obs import get_registry, set_metrics_enabled, set_tracing

import loadgen
import workloads as wl

#: Width of the iterate panel every kernel rung is measured on.
PANEL = 64

#: Timed blocks of the offline ladder (one more runs first, as warm-up).
BLOCKS = 2

#: Share of a rate-ladder phase's requests that must meet the latency
#: limit for the rate to count as sustained.
SLO_SHARE = 0.99


class Tracer:
    """In-memory span store."""

    def __init__(self) -> None:
        self.spans: list[dict] = []

    def add(self, name, start, end, parent=None) -> int:
        span_id = len(self.spans)
        self.spans.append({
            "id": span_id, "name": name, "start": float(start),
            "end": float(end), "parent": parent,
        })
        return span_id

    @contextmanager
    def span(self, name, parent=None):
        """Time the block; yields the span id for children to name."""
        span_id = self.add(name, time.perf_counter(), float("nan"), parent)
        try:
            yield span_id
        finally:
            self.spans[span_id]["end"] = time.perf_counter()

    def durations_ms(self, name) -> np.ndarray:
        return np.asarray([
            (s["end"] - s["start"]) * 1e3
            for s in self.spans if s["name"] == name
        ])


def timed_ms(fn, budget: float, least: int = 2) -> float:
    """Median wall time of ``fn`` in ms: at least ``least`` calls (after
    one warm-up call) and as many as fit in ``budget`` seconds."""
    fn()
    clock = time.perf_counter
    samples = []
    begin = clock()
    while len(samples) < least or clock() - begin < budget:
        start = clock()
        fn()
        samples.append(clock() - start)
    return float(np.median(samples)) * 1e3


# ----------------------------------------------------------------- host


def last_level_cache_bytes() -> int:
    """Largest cache ``cpu0`` reports, or 32 MiB where sysfs has none."""
    best = 0
    for path in glob.glob("/sys/devices/system/cpu/cpu0/cache/index*/size"):
        try:
            with open(path, encoding="ascii") as handle:
                text = handle.read().strip()
        except OSError:
            continue
        scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1:], 1)
        digits = text[:-1] if text[-1:] in "KMG" else text
        if digits.isdigit():
            best = max(best, int(digits) * scale)
    return best or (32 << 20)


def available_bytes() -> int:
    try:
        with open("/proc/meminfo", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) << 10
    except OSError:
        pass
    return 4 << 30


def triad_probe(cap: int) -> dict:
    """STREAM-style triad ``a = b + s·b`` in NumPy, single thread, over
    arrays of four times the last-level cache each, capped at ``cap``
    and at an eighth of available memory.  NumPy needs two passes
    (``a = s·b``, ``a += b``) that move five array-lengths; the best of
    three runs is reported, with both sizes."""
    llc = last_level_cache_bytes()
    length = min(4 * llc, cap, available_bytes() // 8) // 8
    b = np.full(length, 1.0)
    a = np.empty(length)
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        np.multiply(b, 3.0, out=a)
        np.add(a, b, out=a)
        best = min(best, time.perf_counter() - start)
    return {
        "gbps": 5 * length * 8 / best / 1e9,
        "array_bytes": int(length * 8),
        "llc_bytes": int(llc),
    }


# -------------------------------------------------- kernels, core, engine


def offline_rungs(workload, graph, rng, tracer, budget, triad_gbps) -> dict:
    """Kernels, core and engine measured back to back on ``graph``."""
    out: dict = {}
    n, k = workload.nodes, workload.k
    dtype = kernels.compute_dtype()
    itemsize = np.dtype(dtype).itemsize
    start = time.perf_counter()
    operator = graph.decayed_operator(1.0 - wl.RESTART, dtype=dtype)
    out["graph.operator_build_s"] = time.perf_counter() - start
    out["graph.nnz"] = int(operator.nnz)
    out["graph.csr_bytes"] = int(
        operator.data.nbytes + operator.indices.nbytes
        + operator.indptr.nbytes
    )
    vector = rng.random(n).astype(dtype)
    vector_out = np.empty_like(vector)
    panel = rng.random((n, PANEL)).astype(dtype)
    panel_out = np.empty_like(panel)

    def spmm():
        kernels.spmm(operator, panel, out=panel_out)

    out["kernels.spmv_ms"] = timed_ms(
        lambda: kernels.spmv(operator, vector, out=vector_out), budget
    )
    out["kernels.spmm_ms"] = timed_ms(spmm, budget)
    # Computed, not measured: one pass over the CSR arrays, one read and
    # one write of the panel (cache misses on the gathers are ignored).
    moved = (
        operator.nnz * (itemsize + operator.indices.itemsize)
        + operator.indptr.nbytes + 2 * n * PANEL * itemsize
    )
    out["kernels.spmm_bytes"] = int(moved)
    out["kernels.spmm_gbps"] = moved / out["kernels.spmm_ms"] / 1e6
    out["kernels.spmm_bw_share"] = out["kernels.spmm_gbps"] / triad_gbps
    out["kernels.index_bytes_per_nnz"] = int(operator.indices.itemsize)
    tiled = timed_ms(
        lambda: kernels.spmm_tiled(operator, panel, out=panel_out), budget
    )
    out["kernels.spmm_tiled_ratio"] = tiled / out["kernels.spmm_ms"]
    scores = np.ascontiguousarray(panel.T)

    def topk():
        kernels.select_top_k_many(scores, k)

    out["kernels.topk_ms"] = timed_ms(topk, budget)

    last = wl.S_ITERATION - 1
    method = wl.make_method()
    start = time.perf_counter()
    method.preprocess(graph)
    out["core.preprocess_s"] = time.perf_counter() - start
    out["core.preprocess_iterations"] = int(
        cpi(graph, None, c=wl.RESTART,
            start_iteration=wl.T_ITERATION).iterations
    )
    engine = Engine(method)

    # The ladder proper: the same seeds through every rung.  The first
    # block warms every rung's buffers and is left out of the medians.
    for index in range(1 + BLOCKS):
        seeds = rng.choice(n, size=PANEL, replace=False)
        with tracer.span("block" if index else "block.warmup") as block:
            prefix = "" if index else "warmup."
            with tracer.span(prefix + "engine.serve", block):
                engine.serve(seeds, k)
            with tracer.span(prefix + "core.query_many", block):
                method.query_many(seeds)
            with tracer.span(prefix + "core.cpi_many", block):
                cpi_many(graph, seeds, c=wl.RESTART, terminal_iteration=last)
            with tracer.span(prefix + "kernels.spmm", block):
                for _ in range(last):
                    spmm()
            with tracer.span(prefix + "kernels.topk", block):
                topk()
    rungs = ladder_rungs(tracer)
    out["engine.serve_ms"] = rungs["engine.serve"]
    out["core.query_many_ms"] = rungs["core.query_many"]
    out["core.cpi_many_ms"] = rungs["core.cpi_many"]
    out["core.cpi_over_spmm"] = rungs["core.cpi_many"] / rungs["kernels.spmm"]
    out["engine.kernels_share"] = (
        rungs["kernels.spmm"] + rungs["kernels.topk"]
    ) / rungs["engine.serve"]
    out["core.query_ms"] = timed_ms(lambda: method.query(int(seeds[0])), budget)
    out["core.index_bytes"] = int(method.preprocessed_bytes())

    top = wl.requests_for(seeds, k)
    full = wl.requests_for(seeds, None)
    out["engine.batch_ms"] = timed_ms(lambda: engine.batch(top), budget)
    out["engine.query_ms"] = timed_ms(
        lambda: engine.query(int(seeds[0]), k), budget
    )
    out["engine.fullvec_batch_ms"] = timed_ms(
        lambda: engine.batch(full), budget
    )
    out["engine.batch_over_query_many"] = (
        out["engine.batch_ms"] / out["core.query_many_ms"]
    )
    out["engine.serve_over_batch"] = (
        out["engine.serve_ms"] / out["engine.batch_ms"]
    )
    engine.close()
    return out


def ladder_rungs(tracer) -> dict:
    """Median span time (ms) of each offline rung."""
    return {
        name: float(np.median(tracer.durations_ms(name)))
        for name in ("engine.serve", "core.query_many", "core.cpi_many",
                     "kernels.spmm", "kernels.topk")
    }


def format_ladder(tracer) -> list[str]:
    """The printed ladder: time, ratio to the rung below, share of
    ``engine.serve``, and self time (span minus the rung beneath)."""
    rungs = ladder_rungs(tracer)
    serve = rungs["engine.serve"]
    beneath = {
        "engine.serve": rungs["core.query_many"] + rungs["kernels.topk"],
        "core.query_many": rungs["core.cpi_many"],
        "core.cpi_many": rungs["kernels.spmm"],
        "kernels.spmm": 0.0,
        "kernels.topk": 0.0,
    }
    below = {
        "engine.serve": "core.query_many", "core.query_many": "core.cpi_many",
        "core.cpi_many": "kernels.spmm",
    }
    lines = [
        f"  {'rung':<18}{'ms':>10}{'x below':>9}{'share':>8}{'self ms':>10}"
    ]
    for name, value in rungs.items():
        ratio = f"{value / rungs[below[name]]:.2f}" if name in below else "-"
        own = value - beneath[name]
        self_text = f"{own:.3f}" if own >= 0 else "unattributed"
        lines.append(
            f"  {name:<18}{value:>10.3f}{ratio:>9}"
            f"{value / serve:>8.2f}{self_text:>13}"
        )
    return lines


# --------------------------------------------------------- serving fronts


def request_spans(tracer, phase, origin, label) -> None:
    """One ``request`` span per succeeded request of ``phase`` with its
    children: generator lateness, queue wait, the batch that answered
    it, and the wake-up remainder."""
    parent = tracer.add(label, origin, origin + phase.duration)
    ok = np.flatnonzero(~np.isnan(phase.done) & ~np.isnan(phase.queue_ms))
    for index in ok.tolist():
        due = origin + phase.due[index]
        sent = origin + phase.submitted[index]
        end = origin + phase.done[index]
        picked = sent + phase.queue_ms[index] / 1e3
        finished = picked + phase.batch_ms[index] / 1e3
        request = tracer.add("request", due, end, parent)
        tracer.add("gen.late", due, sent, request)
        tracer.add("queue", sent, picked, request)
        tracer.add("batch", picked, finished, request)
        tracer.add("wakeup", finished, end, request)


def front_rungs(front, workload, rates, rng, tracer, seconds, label) -> dict:
    """Saturation window, then the open-loop rate ladder, on ``front``.

    Returns raw numbers; the caller names them per module."""
    nodes, k = workload.nodes, workload.k
    seeds = rng.integers(0, nodes, size=4096)
    window = loadgen.run_window(
        front, wl.requests_for(seeds, k), wl.WINDOW, 0.15 * seconds
    )
    out = {
        "sat_qps": loadgen.mean_rate(window),
        "attempted": window.sent, "failed": window.failed,
        "p50": [], "p95": [], "slo_rate": 0.0, "late": [], "phases": [],
    }
    for rate in rates:
        duration = min(max(120.0 / rate, 0.05 * seconds), 0.15 * seconds)
        offsets = loadgen.poisson_offsets(rng, rate, duration)
        seeds = rng.integers(0, nodes, size=offsets.size)
        origin = time.perf_counter()
        phase = loadgen.run_open_loop(
            front, wl.requests_for(seeds, k), offsets, duration
        )
        request_spans(tracer, phase, origin, f"{label}.rate{rate:g}")
        latency = phase.latency_ms()
        out["p50"].append(float(np.percentile(latency, 50)))
        out["p95"].append(float(np.percentile(latency, 95)))
        out["late"].append(phase.lateness_ms())
        out["phases"].append(phase)
        out["attempted"] += phase.sent
        out["failed"] += phase.failed
        if (
            phase.within(workload.slo_ms) >= SLO_SHARE
            and not phase.backlog_growing()
            and loadgen.lateness_valid(phase, workload.slo_ms)
        ):
            out["slo_rate"] = max(out["slo_rate"], rate)
    return out


def phase_mean(stats, name) -> float:
    return float((stats.get("phases") or {}).get(name, {}).get("mean_ms", 0.0))


def serving_rungs(workload, graph, rng, tracer, seconds, engine_qps) -> dict:
    """The threaded Server on ``graph``."""
    out: dict = {}
    with wl.make_server(graph) as server:
        wl.warm_front(server, workload, rng, wl.WORKERS)
        raw = front_rungs(
            server, workload, workload.ladder, rng, tracer, seconds, "server"
        )
        stats = server.stats()
    out["serving.sat_qps"] = raw["sat_qps"]
    out["serving.over_engine"] = raw["sat_qps"] / engine_qps
    for name in ("queue", "dispatch", "select"):
        out[f"serving.{name}_ms"] = phase_mean(stats, name)
    dispatches = (stats["phases"].get("dispatch") or {}).get("count", 0)
    out["serving.batch_size_mean"] = stats["completed"] / max(dispatches, 1)
    # The reference phase: the ladder rate nearest the workload's own.
    nearest = int(np.argmin([abs(r - workload.rate) for r in workload.ladder]))
    phase = raw["phases"][nearest]
    ok = ~np.isnan(phase.done) & ~np.isnan(phase.queue_ms)
    client = (phase.done[ok] - phase.submitted[ok]) * 1e3
    answered = phase.queue_ms[ok] + phase.batch_ms[ok]
    out["serving.wakeup_ms"] = float(np.mean(client - answered))
    out["serving.compute_share"] = float(
        np.median(phase.batch_ms[ok]) / raw["p50"][nearest]
    )
    for index in range(len(workload.ladder)):
        out[f"serving.p50_ms.r{index + 1}"] = raw["p50"][index]
        out[f"serving.p95_ms.r{index + 1}"] = raw["p95"][index]
    out["serving.slo_rate_qps"] = raw["slo_rate"]
    out["serving.gen_late_p99_ms"] = float(
        np.percentile(np.concatenate(raw["late"]), 99)
    )
    out["serving.rejected"] = int(stats["overloads"])
    out["serving.errors"] = int(raw["failed"] - stats["overloads"])
    out["_attempted"] = raw["attempted"]
    out["_failed"] = raw["failed"]
    out["_stats"] = stats
    return out


def worker_steps() -> float:
    """``repro_worker_steps_total`` summed over shards, as folded into
    this process's registry from the workers' step replies."""
    family = get_registry().snapshot()["families"].get(
        "repro_worker_steps_total", {}
    )
    return float(sum(s["value"] for s in family.get("samples", ())))


def sharding_rungs(workload, graph, rng, tracer, seconds, server_qps) -> dict:
    """The two-shard Router on ``graph``."""
    out: dict = {}
    primary = Engine(wl.make_method(), graph)
    steps_before = worker_steps()
    start = time.perf_counter()
    router = wl.make_router(primary)
    out["sharding.start_s"] = time.perf_counter() - start
    with router:
        wl.warm_front(router, workload, rng, 1)
        raw = front_rungs(
            router, workload, workload.shard_ladder, rng, tracer, seconds,
            "router",
        )
        stats = router.stats()
    primary.close()
    shards = stats["shards"] or {}
    out["sharding.sat_qps"] = raw["sat_qps"]
    out["sharding.over_server"] = raw["sat_qps"] / server_qps
    out["sharding.sweep_ms"] = phase_mean(stats, "sweep")
    out["sharding.gather_ms"] = phase_mean(stats, "gather")
    out["sharding.worker_steps"] = int(worker_steps() - steps_before)
    out["sharding.steps_per_query"] = (
        out["sharding.worker_steps"] / max(stats["completed"], 1)
    )
    for index in range(len(workload.shard_ladder)):
        out[f"sharding.p95_ms.r{index + 1}"] = raw["p95"][index]
    out["sharding.respawns"] = int(shards.get("respawns", 0))
    out["sharding.sweep_retries"] = int(shards.get("sweep_retries", 0))
    out["sharding.shm_leftovers"] = len(wl.shm_segments())
    out["_attempted"] = raw["attempted"]
    out["_failed"] = raw["failed"] + out["sharding.shm_leftovers"]
    out["_stats"] = stats
    return out


# -------------------------------------------------------------- dynamic


def dynamic_rungs(workload, graph, rng, seconds) -> dict:
    """A bare Engine on a DynamicGraph over ``graph``: what one mutation
    costs the next query, then the mutator's schedule beside a query
    loop."""
    out: dict = {}
    k = workload.k
    dynamic = DynamicGraph(graph)
    engine = Engine(wl.make_method(), dynamic)
    clock = time.perf_counter
    span = int(wl.UPDATE_RATE * 0.25 * seconds) + 2
    pairs = wl.fresh_pairs(
        dynamic, rng, (span + 8) * wl.UPDATE_EDGES
    ).reshape(-1, wl.UPDATE_EDGES, 2)

    def query():
        begin = clock()
        engine.query(int(rng.integers(0, workload.nodes)), k)
        return (clock() - begin) * 1e3

    query()
    steady = float(np.median([query() for _ in range(5)]))
    resync, overlay = [], []
    for step in pairs[:4]:
        dynamic.add_edges([tuple(pair) for pair in step.tolist()])
        resync.append(query())  # pays the re-preprocess
        overlay.append(query())  # only the dirty overlay
    start = clock()
    dynamic.compact()
    compact_ms = [(clock() - start) * 1e3]
    query()
    clean = float(np.median([query() for _ in range(5)]))
    out["dynamic.resync_ms"] = float(np.median(resync)) - steady
    out["dynamic.overlay_query_ms"] = float(np.median(overlay)) - clean

    mutator = wl.Mutator(dynamic, pairs[8:].reshape(-1, 2))
    mutator.start()
    queries = 0
    begin = clock()
    while clock() - begin < 0.25 * seconds:
        query()
        queries += 1
    mutator.stop()
    engine.close()
    compact_ms += mutator.compact_ms
    out["dynamic.update_ms"] = float(np.median(mutator.update_ms))
    out["dynamic.update_p95_ms"] = float(np.percentile(mutator.update_ms, 95))
    out["dynamic.compact_ms"] = float(np.median(compact_ms))
    out["dynamic.compactions"] = len(compact_ms)
    out["dynamic.updates_applied"] = int(mutator.edges_applied)
    out["_attempted"] = mutator.attempted + queries
    out["_failed"] = mutator.failed
    return out


# ------------------------------------------------------------------ obs


def obs_rungs(workload, graph, rng, seconds) -> dict:
    """Saturation throughput with the registry off against on, and with
    the program's request tracing on against off: one window each."""
    out: dict = {}
    seeds = rng.integers(0, workload.nodes, size=4096)
    requests = wl.requests_for(seeds, workload.k)
    rate = {}
    attempted = failed = 0
    with wl.make_server(graph) as server:
        wl.warm_front(server, workload, rng, wl.WORKERS)
        for setting in ("base", "metrics_off", "tracing_on"):
            set_metrics_enabled(setting != "metrics_off")
            set_tracing(setting == "tracing_on")
            try:
                phase = loadgen.run_window(
                    server, requests, wl.WINDOW, 0.08 * seconds
                )
            finally:
                set_metrics_enabled(None)
                set_tracing(None)
            rate[setting] = loadgen.mean_rate(phase)
            attempted += phase.sent
            failed += phase.failed
    out["obs.metrics_on_over_off"] = rate["base"] / rate["metrics_off"]
    out["obs.trace_overhead"] = rate["tracing_on"] / rate["base"]
    out["_attempted"] = attempted
    out["_failed"] = failed
    return out


# ------------------------------------------------------------- the run


def run_traced(workload, seed: int, seconds: float):
    """Every per-layer metric of ``workload``'s graph; returns
    ``(metrics, tracer, attempted, failed, notes)``."""
    rng = np.random.default_rng(seed)
    tracer = Tracer()
    metrics: dict = {}
    notes: list[str] = []
    start = time.perf_counter()
    graph = wl.make_graph(workload, seed)
    metrics["graph.generate_s"] = time.perf_counter() - start
    triad = triad_probe(workload.triad_bytes)
    metrics["host.triad_gbps"] = triad["gbps"]
    notes.append(
        f"triad arrays {triad['array_bytes'] >> 20} MiB each, "
        f"last-level cache {triad['llc_bytes'] >> 20} MiB"
    )
    budget = 0.01 * seconds
    metrics.update(
        offline_rungs(workload, graph, rng, tracer, budget, triad["gbps"])
    )
    engine_qps = PANEL / metrics["engine.batch_ms"] * 1e3
    attempted = failed = 0
    counters = {"retries": 0, "deadlines_exceeded": 0, "failures": 0}
    serving = serving_rungs(workload, graph, rng, tracer, seconds, engine_qps)
    sharding = sharding_rungs(
        workload, graph, rng, tracer, seconds, serving["serving.sat_qps"]
    )
    for part in (
        serving, sharding,
        dynamic_rungs(workload, graph, rng, seconds),
        obs_rungs(workload, graph, rng, seconds),
    ):
        attempted += part.pop("_attempted")
        failed += part.pop("_failed")
        stats = part.pop("_stats", None)
        for name in counters:
            counters[name] += int((stats or {}).get(name, 0))
        metrics.update(part)
    for name, value in counters.items():
        metrics[f"resilience.{name}"] = value
    return metrics, tracer, attempted, failed, notes
