"""Batched-vs-looped query throughput — the batched engine's headline win.

The PR that introduced ``PPRMethod.query_many`` promises that propagating a
whole seed matrix through the online iteration (one SpMM per step for the
batch) beats one Python-level ``query()`` per seed.  This file records
queries/sec for both paths so future PRs can track the gap, and asserts
the acceptance floor: a 64-seed TPA batch at least 3x faster than 64
sequential queries on a 5k-node community graph.

Timings use best-of-N wall clock (min filters scheduler noise); the
benchmark fixtures additionally record the distributions.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro import kernels
from repro.core.tpa import TPA
from repro.engine import Engine, QueryRequest
from repro.graph.generators import community_graph
from repro.method import banned_mask, select_top_k
from repro.serving import Server

BATCH = 64

#: The fused top-k benchmark's shape: a >= 100k-edge graph, a batch wide
#: enough that the full score matrix is a real materialization cost.
TOPK_BATCH = 256
TOPK_K = 100


@pytest.fixture(scope="module")
def throughput_setup():
    # Mean degree ~32 matches the paper's WikiLink analog (31.1); denser
    # graphs make the online phase SpMV/SpMM-bound, the serving regime the
    # batched engine targets.
    graph = community_graph(5_000, avg_degree=32, num_communities=40, seed=7)
    method = TPA(s_iteration=5, t_iteration=10)
    method.preprocess(graph)
    seeds = np.random.default_rng(0).choice(
        graph.num_nodes, size=BATCH, replace=False
    )
    # Warm both paths at full shape (page caches, the decayed-operator
    # cache, the SpMM scratch buffers).
    method.query_many(seeds)
    method.query(int(seeds[0]))
    return graph, method, seeds


def materialized_topk(method, seeds, k):
    """The reference ranking path the fused top-k is checked against:
    materialize the full ``(B, n)`` score matrix, then arg-partition row
    by row in Python with a fresh mask per request."""
    matrix = method.query_many(seeds)
    return [
        select_top_k(
            matrix[row], k,
            banned_mask(method.graph, int(seed), True, False),
        )
        for row, seed in enumerate(seeds)
    ]


def _best_of(fn, repeats: int) -> float:
    samples = []
    for _ in range(repeats):
        begin = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - begin)
    return min(samples)


def test_batched_queries_per_second(benchmark, throughput_setup):
    graph, method, seeds = throughput_setup
    result = benchmark(lambda: method.query_many(seeds))
    assert result.shape == (BATCH, graph.num_nodes)
    if benchmark.stats is not None:  # absent under --benchmark-disable
        benchmark.extra_info["queries_per_second"] = (
            BATCH / benchmark.stats.stats.min
        )


def test_looped_queries_per_second(benchmark, throughput_setup):
    graph, method, seeds = throughput_setup
    result = benchmark.pedantic(
        lambda: [method.query(int(seed)) for seed in seeds],
        rounds=3, iterations=1, warmup_rounds=1,
    )
    assert len(result) == BATCH
    if benchmark.stats is not None:  # absent under --benchmark-disable
        benchmark.extra_info["queries_per_second"] = (
            BATCH / benchmark.stats.stats.min
        )


def test_batch_speedup_at_least_3x(throughput_setup):
    """Acceptance floor for the batched engine redesign.

    Wall-clock floors are taken as the min over repeats, and the whole
    measurement retries a few times before failing — scheduler noise on a
    busy box only ever inflates samples, so the min over attempts
    converges to the true ratio.
    """
    graph, method, seeds = throughput_setup
    best_speedup = 0.0
    looped_seconds = batched_seconds = 0.0
    for attempt in range(4):
        if attempt:
            time.sleep(2.0)  # ride out short contention windows
        looped_seconds = _best_of(
            lambda: [method.query(int(seed)) for seed in seeds], repeats=3
        )
        batched_seconds = _best_of(lambda: method.query_many(seeds), repeats=9)
        best_speedup = max(best_speedup, looped_seconds / batched_seconds)
        if best_speedup >= 3.3:
            break
    assert best_speedup >= 3.0, (
        f"batched {BATCH}-seed TPA must be >= 3x faster than looped "
        f"queries; got {best_speedup:.2f}x "
        f"(last attempt: looped {looped_seconds * 1e3:.1f} ms, "
        f"batched {batched_seconds * 1e3:.1f} ms)"
    )


def test_batch_results_match_looped(throughput_setup):
    """The speedup is free of accuracy cost: identical score matrices."""
    _, method, seeds = throughput_setup
    matrix = method.query_many(seeds)
    stacked = np.stack([method.query(int(seed)) for seed in seeds])
    np.testing.assert_allclose(matrix, stacked, rtol=1e-12, atol=1e-15)


@pytest.fixture(scope="module")
def fused_topk_setup():
    """A >= 100k-edge serving setup where ranking cost matters: short TPA
    online phase (S=3), wide batch, top-100 requests."""
    graph = community_graph(25_000, avg_degree=8, num_communities=64, seed=3)
    assert graph.num_edges >= 100_000
    method = TPA(s_iteration=3, t_iteration=6)
    method.preprocess(graph)
    seeds = np.random.default_rng(0).choice(
        graph.num_nodes, size=TOPK_BATCH, replace=False
    )
    requests = [QueryRequest(seed=int(seed), k=TOPK_K) for seed in seeds]
    engine = Engine(method, stream_block=TOPK_BATCH // 4)
    # Warm both paths (JIT compilation, retained workspace buffers, the
    # decayed-operator cache).
    engine.batch(requests)
    materialized_topk(method, seeds, TOPK_K)
    return graph, method, engine, seeds, requests


def test_fused_topk_matches_materialized(fused_topk_setup):
    """Correctness of the streamed schedule on every backend: the fused
    Engine.batch / Engine.serve rankings equal the materialized loop."""
    graph, method, engine, seeds, requests = fused_topk_setup
    reference = materialized_topk(method, seeds, TOPK_K)
    results = engine.batch(requests)
    rankings = engine.serve(seeds, k=TOPK_K)
    for row, (result, picks) in enumerate(zip(results, reference)):
        np.testing.assert_array_equal(result.top_nodes, picks)
        np.testing.assert_array_equal(rankings[row, : picks.size], picks)
        assert (rankings[row, picks.size:] == -1).all()


@pytest.mark.skipif(
    not kernels.numba_available(),
    reason="numba not installed; the compiled selection kernel cannot run",
)
def test_fused_topk_at_least_1p5x_materialized(fused_topk_setup):
    """Acceptance floor for the blocked ranking pipeline: streamed
    Engine.batch over top-k requests >= 1.5x the
    materialize-then-argpartition path on a >= 100k-edge graph.

    The win is the fused compiled selection plus never touching the full
    (B, n) matrix; like the other wall-clock floors this takes min over
    repeats with a few retry attempts.
    """
    import numba

    if numba.get_num_threads() < 2:
        pytest.skip("single-threaded runtime: no parallel win to measure")

    graph, method, engine, seeds, requests = fused_topk_setup
    best_speedup = 0.0
    fused_seconds = materialized_seconds = 0.0
    for attempt in range(4):
        if attempt:
            time.sleep(2.0)  # ride out short contention windows
        materialized_seconds = _best_of(
            lambda: materialized_topk(method, seeds, TOPK_K), repeats=3
        )
        fused_seconds = _best_of(lambda: engine.batch(requests), repeats=3)
        best_speedup = max(best_speedup, materialized_seconds / fused_seconds)
        if best_speedup >= 1.65:
            break
    assert best_speedup >= 1.5, (
        f"streamed top-{TOPK_K} Engine.batch must be >= 1.5x the "
        f"materialize-then-argpartition path on {graph.num_edges} edges; "
        f"got {best_speedup:.2f}x (fused {fused_seconds * 1e3:.1f} ms, "
        f"materialized {materialized_seconds * 1e3:.1f} ms)"
    )


@pytest.mark.skipif(
    not kernels.numba_available(),
    reason="numba not installed; the compiled selection kernel cannot run",
)
def test_server_coalescing_beats_serial_single_queries(throughput_setup):
    """Acceptance floor for the serving subsystem: N threads issuing
    single-seed top-k requests through the micro-batching Server beat N
    serial single-request ``Engine.query`` calls.

    The win is structural — the scheduler coalesces the concurrent
    singles into micro-batches (the measured ~4x batched online pass)
    and per-worker Engine replicas overlap on separate cores — so it
    must survive even the thread-scheduling overhead of ``BATCH``
    client threads.  Wall-clock floors are min over repeats with retry
    attempts, like every other floor in this file.
    """
    import numba

    if numba.get_num_threads() < 2:
        pytest.skip("single-threaded runtime: no parallel win to measure")

    graph, method, seeds = throughput_setup
    serial_engine = Engine(method)
    serial_engine.query(int(seeds[0]), k=TOPK_K)  # warm the ranking path

    def serial_pass():
        for seed in seeds:
            serial_engine.query(int(seed), k=TOPK_K)

    with Server(
        method, workers=2, max_batch=BATCH, max_wait_ms=5.0,
        max_pending=4 * BATCH,
    ) as server:

        def concurrent_pass():
            threads = [
                threading.Thread(
                    target=lambda s=int(seed): server.query(s, k=TOPK_K),
                    daemon=True,
                )
                for seed in seeds
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

        concurrent_pass()  # warm every replica's workspace + JIT
        best_speedup = 0.0
        best_serial = best_concurrent = 0.0
        for attempt in range(4):
            if attempt:
                time.sleep(2.0)  # ride out short contention windows
            serial_seconds = _best_of(serial_pass, repeats=3)
            concurrent_seconds = _best_of(concurrent_pass, repeats=3)
            if serial_seconds / concurrent_seconds > best_speedup:
                # Keep the timings of the *winning* attempt so a failure
                # message never pairs one attempt's ratio with
                # another's numbers.
                best_speedup = serial_seconds / concurrent_seconds
                best_serial = serial_seconds
                best_concurrent = concurrent_seconds
            if best_speedup >= 1.4:
                break
    assert best_speedup >= 1.2, (
        f"{BATCH} concurrent single-seed requests through the Server must "
        f"beat {BATCH} serial Engine.query calls; got {best_speedup:.2f}x "
        f"(serial {best_serial * 1e3:.1f} ms, "
        f"concurrent {best_concurrent * 1e3:.1f} ms)"
    )


def test_observability_overhead_within_generous_floor(throughput_setup):
    """Acceptance floor for the observability layer: serving with the
    default instrumentation (metrics on, tracing off) keeps at least
    60% of the throughput of a metrics-off run.

    The real gap is ~1 µs of counter updates against millisecond-scale
    requests — well under 2% — but thread scheduling noise on a shared
    runner dwarfs that, so the floor is deliberately generous and the
    measurement is min-over-repeats on both sides.  What this actually
    guards is an accidental per-request ``expose()``, env read, or lock
    convoy sneaking onto the serving hot path.
    """
    from repro.obs import metrics as obs_metrics
    from repro.obs import trace as obs_trace

    graph, method, seeds = throughput_setup
    assert not obs_trace.tracing_enabled()
    clients, per_client = 4, 16

    def closed_loop(server) -> float:
        """Queries/sec of ``clients`` threads, each issuing ``per_client``
        blocking top-k queries back to back."""

        def client(offset: int) -> None:
            for index in range(per_client):
                seed = seeds[(offset * per_client + index) % seeds.size]
                server.query(int(seed), k=TOPK_K)

        threads = [
            threading.Thread(target=client, args=(offset,), daemon=True)
            for offset in range(clients)
        ]
        begin = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return clients * per_client / (time.perf_counter() - begin)

    def measure() -> float:
        with Server(
            method, workers=2, max_batch=BATCH, max_wait_ms=2.0,
            max_pending=4 * BATCH,
        ) as server:
            closed_loop(server)  # warm replicas + JIT
            return max(closed_loop(server) for _ in range(3))

    instrumented = measure()
    obs_metrics.set_metrics_enabled(False)
    try:
        bare = measure()
    finally:
        obs_metrics.set_metrics_enabled(None)
    assert instrumented >= 0.6 * bare, (
        f"metrics-on serving throughput {instrumented:.1f} q/s fell below "
        f"60% of the metrics-off {bare:.1f} q/s"
    )


@pytest.mark.skipif(
    not kernels.numba_available(),
    reason="numba not installed; the compiled backend cannot run",
)
def test_numba_spmm_at_least_2x_numpy_fallback():
    """Acceptance floor for the compiled kernel layer: the thread-parallel
    Numba SpMM beats the single-threaded NumPy fallback by >= 2x on a
    >= 100k-edge synthetic graph.

    The win is thread parallelism, so the test is skipped (not failed)
    when the runtime offers a single thread; wall-clock floors are min
    over repeats with a few attempts, as in the batch-speedup test.
    """
    import numba

    if numba.get_num_threads() < 2:
        pytest.skip("single-threaded runtime: no parallel win to measure")

    graph = community_graph(25_000, avg_degree=8, num_communities=64, seed=3)
    assert graph.num_edges >= 100_000
    operator = graph.transition_transpose
    x = np.random.default_rng(0).random((graph.num_nodes, 32))
    out = np.empty_like(x)

    previous = kernels.get_backend()
    best_speedup = 0.0
    numba_seconds = numpy_seconds = 0.0
    try:
        for attempt in range(4):
            if attempt:
                time.sleep(1.0)  # ride out short contention windows
            kernels.set_backend("numba")
            kernels.spmm(operator, x, out=out)  # JIT warm-up / code cache
            numba_seconds = _best_of(
                lambda: kernels.spmm(operator, x, out=out), repeats=5
            )
            kernels.set_backend("numpy")
            kernels.spmm(operator, x, out=out)
            numpy_seconds = _best_of(
                lambda: kernels.spmm(operator, x, out=out), repeats=5
            )
            best_speedup = max(best_speedup, numpy_seconds / numba_seconds)
            if best_speedup >= 2.2:
                break
    finally:
        kernels.set_backend(previous)
    assert best_speedup >= 2.0, (
        f"numba SpMM must be >= 2x the numpy fallback on "
        f"{graph.num_edges} edges x 32 columns; got {best_speedup:.2f}x "
        f"(numba {numba_seconds * 1e3:.1f} ms, "
        f"numpy {numpy_seconds * 1e3:.1f} ms)"
    )
