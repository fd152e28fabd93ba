"""The four workloads: set-up, the untraced end-to-end run, answer checks.

Everything the program exposes as a knob is left at its default except
the values the workload table fixes (TPA parameters, front-end shape),
so a later change of a default shows up in the numbers.
"""

from __future__ import annotations

import gc
import glob
import os
import resource
import threading
import time
from collections import deque
from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.cpi import CPIMethod
from repro.core.tpa import TPA
from repro.dynamic import DynamicGraph
from repro.engine import Engine, QueryRequest
from repro.graph.generators import community_graph
from repro.serving import Server
from repro.sharding import Router

import loadgen

# TPA(S=5, T=10, c=0.15): the paper's defaults, stated so that a change
# of the program's defaults cannot silently change the workload.
S_ITERATION, T_ITERATION, RESTART = 5, 10, 0.15
AVG_DEGREE = 16

#: Front-end shape shared by every serving workload.
FRONT = {"max_batch": 64, "max_wait_ms": 2.0, "max_pending": 4096}
WORKERS = 2
SHARDS = 2
#: Requests kept in flight by the saturation phase.
WINDOW = 128

#: Mutation schedule of ``dynamic-mixed``.
UPDATE_RATE = 25.0
UPDATE_EDGES = 8
UPDATE_BACKLOG = 1024
COMPACT_EVERY = 256


@dataclass(frozen=True)
class Workload:
    """One row of the workload table (README.md has the reasons)."""

    name: str
    front: str  # "server" | "router" | "engine" | "dynamic"
    nodes: int
    communities: int
    k: int
    rate: float  # reference open-loop arrival rate, q/s
    slo_ms: float  # latency limit of the traced rate ladder
    ladder: tuple  # Server rates of the traced ladder, q/s
    shard_ladder: tuple  # Router rates of the traced ladder, q/s
    checks: int  # seeds verified against the exact solve
    setups: int  # set-ups per run; ``setup_s`` is their median
    preprocesses: int  # ``preprocess_s`` is the median of this many
    triad_bytes: int = 256 << 20  # ceiling of one bandwidth-probe array


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="small-serve",
            front="server", nodes=20_000, communities=40, k=100,
            rate=400.0, slo_ms=50.0,
            ladder=(200.0, 400.0, 800.0, 1200.0),
            shard_ladder=(100.0, 200.0, 400.0, 600.0),
            checks=16, setups=3, preprocesses=7,
        ),
        Workload(
            name="large-batch",
            front="engine", nodes=200_000, communities=128, k=500,
            rate=32.0, slo_ms=2000.0,
            ladder=(16.0, 32.0, 48.0, 64.0),
            shard_ladder=(8.0, 16.0, 32.0, 48.0),
            checks=8, setups=1, preprocesses=3,
        ),
        Workload(
            name="sharded-serve",
            front="router", nodes=20_000, communities=40, k=100,
            rate=200.0, slo_ms=50.0,
            ladder=(200.0, 400.0, 800.0, 1200.0),
            shard_ladder=(100.0, 200.0, 400.0, 600.0),
            checks=16, setups=3, preprocesses=7,
        ),
        Workload(
            name="dynamic-mixed",
            front="dynamic", nodes=20_000, communities=40, k=100,
            rate=100.0, slo_ms=250.0,
            ladder=(200.0, 400.0, 800.0, 1200.0),
            shard_ladder=(100.0, 200.0, 400.0, 600.0),
            checks=16, setups=3, preprocesses=7,
        ),
    )
}


def toy(workload: Workload) -> Workload:
    """The same workload on a 2 000-node graph, for the smoke test."""
    return replace(
        workload, nodes=2_000, communities=8, k=20, checks=4, setups=1,
        preprocesses=1,
        triad_bytes=1 << 20,
        rate=min(workload.rate, 100.0), ladder=(25.0, 50.0, 100.0, 200.0),
        shard_ladder=(25.0, 50.0, 100.0, 200.0),
    )


# --------------------------------------------------------------- set-up


def make_graph(workload: Workload, seed: int):
    return community_graph(
        workload.nodes, avg_degree=AVG_DEGREE,
        num_communities=workload.communities, seed=seed,
    )


def make_method() -> TPA:
    return TPA(s_iteration=S_ITERATION, t_iteration=T_ITERATION, c=RESTART)


def make_server(graph) -> Server:
    return Server(make_method(), graph, workers=WORKERS, **FRONT)


def make_router(engine: Engine) -> Router:
    """A Router adopting ``engine``'s preprocessed method.  The Router's
    own primary engine is private, so preprocessing is timed on a public
    ``Engine`` first and handed over."""
    return Router(engine.method, num_shards=SHARDS, **FRONT)


def requests_for(seeds, k) -> list:
    return [QueryRequest(seed=int(seed), k=k) for seed in seeds]


def warm_front(front, workload: Workload, rng, replicas: int) -> None:
    """One full-width batch per replica."""
    seeds = rng.integers(0, workload.nodes, size=FRONT["max_batch"] * replicas)
    futures = [front.submit(r) for r in requests_for(seeds, workload.k)]
    for future in futures:
        future.result(loadgen.DRAIN_TIMEOUT)


@dataclass
class Setup:
    """A built workload: the graph, what answers queries, and timings."""

    workload: Workload
    graph: object
    front: object  # Server, Router or Engine
    engine: Engine  # whose preprocess_seconds / index is reported
    seconds: dict = field(default_factory=dict)
    index_bytes: int = 0

    def close(self) -> None:
        self.front.close()


def build(workload: Workload, seed: int) -> Setup:
    """Graph generation through warm-up: everything before the first
    query is answerable.  Timed by part; the parts sum to the build."""
    rng = np.random.default_rng(seed)
    clock = time.perf_counter
    begin = clock()
    graph = make_graph(workload, seed)
    generated = clock()
    if workload.front == "dynamic":
        graph = DynamicGraph(graph)
    if workload.front == "router":
        engine = Engine(make_method(), graph)
        front = make_router(engine)
    elif workload.front == "engine":
        front = engine = Engine(make_method(), graph)
    else:
        front = make_server(graph)
        engine = front.engine
    started = clock()
    preprocess_s = engine.preprocess_seconds
    if workload.front == "engine":
        block = engine.stream_block
        engine.serve(rng.integers(0, workload.nodes, size=block), workload.k)
    else:
        warm_front(
            front, workload, rng, 1 if workload.front == "router" else WORKERS
        )
        # The replicas are private; the public engine answers one
        # full-width batch so that its method retains the same panels.
        seeds = rng.integers(0, workload.nodes, size=FRONT["max_batch"])
        engine.batch(requests_for(seeds, workload.k))
    index_bytes = engine.method.preprocessed_bytes()
    warmed = clock()
    return Setup(
        workload=workload, graph=graph, front=front, engine=engine,
        seconds={
            "generate_s": generated - begin,
            "front_start_s": started - generated,
            "warmup_s": warmed - started,
            "build_s": warmed - begin,
            "preprocess_s": preprocess_s,
        },
        index_bytes=int(index_bytes),
    )


def repeated_setup(workload: Workload, seed: int):
    """Build ``workload.setups`` times, closing all but the last, then
    preprocess on fresh engines until ``workload.preprocesses`` samples
    exist; returns the kept :class:`Setup`, every build's timings, and
    the preprocessing times."""
    timings = []
    kept = None
    for _ in range(workload.setups):
        if kept is not None:
            kept.close()
            kept = None
            gc.collect()
        kept = build(workload, seed)
        timings.append(kept.seconds)
    preprocess = [build["preprocess_s"] for build in timings]
    while len(preprocess) < workload.preprocesses:
        engine = Engine(make_method(), kept.graph)
        preprocess.append(engine.preprocess_seconds)
        engine.close()
    return kept, timings, preprocess


def shm_segments() -> list[str]:
    """This process's shared-memory segments still on disk."""
    return glob.glob(f"/dev/shm/repro-shm-{os.getpid()}-*")


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process plus its reaped children, MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


# ------------------------------------------------------------- mutation


def fresh_pairs(graph, rng, count: int) -> np.ndarray:
    """``count`` distinct ``(source, target)`` pairs that are neither
    self-loops nor edges of ``graph``: every insert changes the edge set
    and every later delete removes only what the mutator inserted, so no
    mutation can fail or leave a node dangling."""
    n = graph.num_nodes
    source, target = graph.edges()
    present = np.asarray(source, dtype=np.int64) * n + target
    picked = np.empty(0, dtype=np.int64)
    while picked.size < count:
        draw = rng.integers(0, n, size=(2 * count, 2))
        draw = draw[draw[:, 0] != draw[:, 1]]
        codes = draw[:, 0] * n + draw[:, 1]
        codes = codes[~np.isin(codes, present)]
        merged = np.concatenate([picked, codes])
        _, first = np.unique(merged, return_index=True)
        picked = merged[np.sort(first)]
    picked = picked[:count]
    return np.stack([picked // n, picked % n], axis=1)


class Mutator(threading.Thread):
    """Applies one mutation step every ``1 / UPDATE_RATE`` seconds.

    A step inserts ``UPDATE_EDGES`` fresh edges, retires the oldest
    inserts beyond ``UPDATE_BACKLOG``, and compacts after every
    ``COMPACT_EVERY`` applied edges.  Step latency is taken from the
    step's due time, so a compaction stall charges the steps it delayed.
    """

    def __init__(self, graph, pairs: np.ndarray):
        super().__init__(name="ladder-mutator", daemon=True)
        self._graph = graph
        self._steps = pairs.reshape(-1, UPDATE_EDGES, 2)
        self._halt = threading.Event()
        self.update_ms: list[float] = []
        self.compact_ms: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.edges_applied = 0
        self.error: BaseException | None = None

    def stop(self) -> None:
        self._halt.set()
        self.join(loadgen.DRAIN_TIMEOUT)

    def run(self) -> None:
        clock = time.perf_counter
        period = 1.0 / UPDATE_RATE
        inserted: deque = deque()
        since_compact = 0
        start = clock()
        try:
            for index, step in enumerate(self._steps):
                due = start + index * period
                if self._halt.wait(max(0.0, due - clock())):
                    return
                pairs = [tuple(pair) for pair in step.tolist()]
                expected = len(pairs)
                applied = self._graph.add_edges(pairs)
                inserted.extend(pairs)
                while len(inserted) > UPDATE_BACKLOG:
                    victims = [
                        inserted.popleft() for _ in range(UPDATE_EDGES)
                    ]
                    expected += len(victims)
                    applied += self._graph.remove_edges(victims)
                since_compact += applied
                if since_compact >= COMPACT_EVERY:
                    begin = clock()
                    self._graph.compact()
                    self.compact_ms.append((clock() - begin) * 1e3)
                    since_compact = 0
                self.update_ms.append((clock() - due) * 1e3)
                self.attempted += 1
                self.failed += applied != expected
                self.edges_applied += applied
        except BaseException as error:  # noqa: BLE001 - reported by caller
            self.error = error
            self.attempted += 1
            self.failed += 1


# ------------------------------------------------------- the timed runs


def serving_run(setup: Setup, rng, seconds: float) -> dict:
    """Open loop at the reference rate, then the saturation window."""
    workload, front = setup.workload, setup.front
    half = seconds / 2.0
    offsets = loadgen.poisson_offsets(rng, workload.rate, half)
    seeds = rng.integers(0, workload.nodes, size=offsets.size)
    open_phase = loadgen.run_open_loop(
        front, requests_for(seeds, workload.k), offsets, half
    )
    seeds = rng.integers(0, workload.nodes, size=8192)
    window_phase = loadgen.run_window(
        front, requests_for(seeds, workload.k), WINDOW, half
    )
    return {"open": open_phase, "window": window_phase}


def dynamic_run(setup: Setup, rng, seconds: float) -> dict:
    """:func:`serving_run` while the mutator runs its schedule."""
    steps = int(UPDATE_RATE * (seconds + 2 * loadgen.DRAIN_TIMEOUT))
    pairs = fresh_pairs(setup.graph, rng, steps * UPDATE_EDGES)
    mutator = Mutator(setup.graph, pairs)
    mutator.start()
    try:
        phases = serving_run(setup, rng, seconds)
    finally:
        mutator.stop()
    phases["mutator"] = mutator
    return phases


def engine_run(setup: Setup, rng, seconds: float) -> dict:
    """Five rounds of one ``Engine.serve`` stream block followed by
    single ``Engine.query`` calls, so that both metrics sample the whole
    run; the blocks get 0.6 of ``seconds`` if they fit."""
    workload, engine = setup.workload, setup.engine
    clock = time.perf_counter
    block = engine.stream_block
    serve_rates, query_ms = [], []
    failed = 0
    begin = clock()
    for round_index in range(1, loadgen.SUBWINDOWS + 1):
        seeds = rng.choice(workload.nodes, size=block, replace=False)
        start = clock()
        ranking = engine.serve(seeds, workload.k)
        serve_rates.append(block / (clock() - start))
        failed += int((ranking[:, 0] < 0).sum())
        until = begin + seconds * round_index / loadgen.SUBWINDOWS
        asked = 0
        while clock() < until or asked < 8:
            seed = int(rng.integers(0, workload.nodes))
            start = clock()
            result = engine.query(seed, workload.k)
            query_ms.append((clock() - start) * 1e3)
            failed += result.top_nodes.size != workload.k
            asked += 1
    return {
        "serve_rates": np.asarray(serve_rates),
        "query_ms": np.asarray(query_ms),
        "attempted": len(serve_rates) * block + len(query_ms),
        "failed": failed,
    }


# -------------------------------------------------------- answer checks


@dataclass
class Verdict:
    """Outcome of checking the served answers of the check seeds."""

    attempted: int
    failed: int
    l1_error: float
    recall_at_k: float
    error_bound: float
    notes: list = field(default_factory=list)


def ask(front, requests) -> list:
    """Answers (or the exception) of ``requests`` through ``front``."""
    if isinstance(front, Engine):
        return front.batch(requests)
    futures = []
    for request in requests:
        try:
            futures.append(front.submit(request))
        except Exception as error:  # noqa: BLE001 - refusal is an outcome
            futures.append(error)
    answers = []
    for future in futures:
        if isinstance(future, Exception):
            answers.append(future)
            continue
        try:
            answers.append(future.result(loadgen.DRAIN_TIMEOUT))
        except Exception as error:  # noqa: BLE001 - failure is an outcome
            answers.append(error)
    return answers


def judge(setup: Setup, rng, bitwise: bool, answer=ask) -> Verdict:
    """Check ``workload.checks`` seeds: full vectors against the exact
    CPI solve (L1 error within the method's bound), top-k against the
    exact top-k (recall), and — on static graphs — both bitwise against
    a serial ``Engine.batch`` on a fresh engine.  Each request is one
    operation; any miss makes it a failed one."""
    workload = setup.workload
    seeds = rng.choice(workload.nodes, size=workload.checks, replace=False)
    requests = requests_for(seeds, None) + requests_for(seeds, workload.k)
    served = answer(setup.front, requests)
    exact = CPIMethod(c=RESTART, tol=1e-9)
    exact.preprocess(setup.graph)
    exact_scores = exact.query_many(seeds)
    exact_top = exact.top_k_many(seeds, workload.k)
    bound = float(setup.engine.error_bound())
    reference = None
    if bitwise:
        reference = Engine(make_method(), setup.graph).batch(requests)
    verdict = Verdict(
        attempted=len(requests), failed=0, l1_error=0.0, recall_at_k=0.0,
        error_bound=bound,
    )
    errors, recalls = [], []
    for index, result in enumerate(served):
        row = index % workload.checks
        wants_top = index >= workload.checks
        problem = None
        if isinstance(result, Exception):
            problem = f"raised {result!r}"
        elif wants_top:
            recalls.append(
                np.intersect1d(result.top_nodes, exact_top[row]).size
                / float(workload.k)
            )
            if reference is not None and not (
                np.array_equal(result.top_nodes, reference[index].top_nodes)
                and np.array_equal(
                    result.top_scores, reference[index].top_scores
                )
            ):
                problem = "top-k differs from serial Engine.batch"
        else:
            error = float(np.abs(result.scores - exact_scores[row]).sum())
            errors.append(error)
            if not error <= bound:
                problem = f"L1 error {error:.4g} above bound {bound:.4g}"
            elif reference is not None and not np.array_equal(
                result.scores, reference[index].scores
            ):
                problem = "scores differ from serial Engine.batch"
        if problem is not None:
            verdict.failed += 1
            verdict.notes.append(f"seed {int(seeds[row])}: {problem}")
    verdict.l1_error = float(np.mean(errors)) if errors else float("nan")
    verdict.recall_at_k = float(np.mean(recalls)) if recalls else float("nan")
    return verdict


def judge_serve(setup: Setup, rng) -> tuple[int, int]:
    """``Engine.serve`` rows against ``Engine.batch`` top-k for the same
    seeds (the fused-streamed path must equal the materialised one);
    returns ``(attempted, failed)``."""
    workload, engine = setup.workload, setup.engine
    seeds = rng.choice(workload.nodes, size=workload.checks, replace=False)
    ranking = engine.serve(seeds, workload.k)
    batch = engine.batch(requests_for(seeds, workload.k))
    failed = sum(
        not np.array_equal(row[row >= 0], result.top_nodes)
        for row, result in zip(ranking, batch)
    )
    return len(batch), int(failed)


# ------------------------------------------------------ the untraced run


def phase_row(name: str, sent: int, failed: int) -> dict:
    return {"phase": name, "sent": int(sent), "succeeded": int(sent - failed),
            "failed": int(failed)}


def run_untraced(workload: Workload, seed: int, seconds: float,
                 import_s: float) -> dict:
    """Set up, run the workload's timed phases, check answers; returns
    the end-to-end values, the in-run spreads, and the operation counts."""
    # Separate streams: the timed phases draw a number of seeds that
    # depends on how fast they ran, the checks must not.
    rng = np.random.default_rng([seed, 0])
    check_rng = np.random.default_rng([seed, 1])
    setup, builds, preprocess = repeated_setup(workload, seed)
    values = {
        "setup_s": import_s + float(np.median([b["build_s"] for b in builds])),
        "preprocess_s": float(np.median(preprocess)),
        "index_bytes": setup.index_bytes,
    }
    spreads: dict = {}
    extra: dict = {"import_s": import_s, "builds": builds}
    phases: list[dict] = []
    notes: list[str] = []
    attempted = failed = 0
    valid = True
    try:
        if workload.front == "engine":
            raw = engine_run(setup, rng, seconds)
            values["qps"], spreads["qps"] = loadgen.median_iqr(
                raw["serve_rates"]
            )
            values["p50_ms"] = float(np.median(raw["query_ms"]))
            extra["p95_ms"] = float(np.percentile(raw["query_ms"], 95))
            phases.append(
                phase_row("serve+query", raw["attempted"], raw["failed"])
            )
            attempted += raw["attempted"]
            failed += raw["failed"]
            checked, missed = judge_serve(setup, check_rng)
            attempted += checked
            failed += missed
        else:
            run = dynamic_run if workload.front == "dynamic" else serving_run
            raw = run(setup, rng, seconds)
            opened, window = raw["open"], raw["window"]
            rates = loadgen.window_rates(window.done, window.duration)
            values["qps"], spreads["qps"] = loadgen.median_iqr(rates)
            latency = opened.latency_ms()
            values["p50_ms"] = float(np.percentile(latency, 50))
            extra["p95_ms"] = float(np.percentile(latency, 95))
            late = opened.lateness_ms()
            extra["gen_late_p99_ms"] = float(np.percentile(late, 99))
            if extra["gen_late_p99_ms"] > workload.slo_ms / 10.0:
                valid = False
                notes.append(
                    f"generator p99 lateness {extra['gen_late_p99_ms']:.2f} "
                    f"ms exceeds a tenth of the {workload.slo_ms:g} ms limit"
                )
            for name, phase in (("open", opened), ("window", window)):
                phases.append(phase_row(name, phase.sent, phase.failed))
                attempted += phase.sent
                failed += phase.failed
            mutator = raw.get("mutator")
            if mutator is not None:
                extra["update_p50_ms"] = float(np.median(mutator.update_ms))
                extra["compactions"] = len(mutator.compact_ms)
                phases.append(
                    phase_row("updates", mutator.attempted, mutator.failed)
                )
                attempted += mutator.attempted
                failed += mutator.failed
                if mutator.error is not None:
                    notes.append(f"mutator raised {mutator.error!r}")
        verdict = judge(setup, check_rng, bitwise=workload.front != "dynamic")
    finally:
        setup.close()
    attempted += verdict.attempted
    failed += verdict.failed
    notes.extend(verdict.notes)
    phases.append(phase_row("checks", verdict.attempted, verdict.failed))
    if workload.front == "router":
        leftovers = len(shm_segments())
        if leftovers:
            failed += leftovers
            notes.append(f"{leftovers} shared-memory segments left behind")
    values["l1_error"] = verdict.l1_error
    values["recall_at_k"] = verdict.recall_at_k
    values["peak_rss_mb"] = peak_rss_mb()
    extra["error_bound"] = verdict.error_bound
    return {
        "values": values, "spreads": spreads, "extra": extra,
        "phases": phases, "attempted": int(attempted), "failed": int(failed),
        "valid": valid, "notes": notes,
    }
