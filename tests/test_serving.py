"""Tests for the concurrent serving subsystem (repro.serving).

The load-bearing guarantee is *equivalence*: concurrency must never
change scores or rankings.  Every concurrent path is checked bitwise
against a serial ``Engine.batch`` over the same requests, on every
available kernel backend; the rest of the file covers the moving parts
(scheduler coalescing, admission control, the shared cache, replica
isolation, metrics) and the Engine's own thread-safety regression.  The
client-contract tests run on both front ends, ``Server`` and its
sharded subclass ``Router``.
"""

from __future__ import annotations

import multiprocessing
import os
import socket
import threading
import time
from concurrent.futures import wait

import numpy as np
import pytest

from repro import kernels
from repro.core.tpa import TPA
from repro.engine import Engine, QueryRequest
from repro.exceptions import (
    NotPreprocessedError,
    ParameterError,
    ServerOverloaded,
)
from repro.graph.graph import Graph
from repro.method import PPRMethod
from repro.serving import (
    LatencyStats,
    Scheduler,
    ScoreCache,
    Server,
    percentiles,
)
from repro.serving import server as server_module
from repro.sharding import Router


@pytest.fixture(params=[kernels.get_backend()])
def each_backend(request):
    """The kernel backend's name, stamped into the test id."""
    return request.param


#: Both serving front ends: a Router is a Server whose one worker serves
#: on ``Engine.shard()``, so the client-contract tests run on each.
FRONT_ENDS = (Server, Router)


def assert_segments_released(server) -> None:
    """Closing a sharded front end unlinked every ``/dev/shm`` segment
    behind it (a threads-only server has none)."""
    if isinstance(server, Router):
        for name in server.engine.shards._store.segment_names:
            assert not os.path.exists("/dev/shm/" + name.lstrip("/")), name


@pytest.fixture(scope="module")
def served_method(small_community):
    method = TPA(s_iteration=4, t_iteration=8)
    method.preprocess(small_community)
    return method


def mixed_requests(n: int) -> list[QueryRequest]:
    """A deliberately messy request mix: duplicate seeds, full-vector and
    top-k requests interleaved, varying exclusion flags."""
    requests = []
    for index in range(60):
        seed = (index * 7) % (n // 4)  # plenty of duplicates
        if index % 5 == 0:
            requests.append(QueryRequest(seed=seed))  # full vector
        elif index % 5 == 1:
            requests.append(QueryRequest(seed=seed, k=5, exclude_seed=False))
        elif index % 5 == 2:
            requests.append(
                QueryRequest(seed=seed, k=12, exclude_neighbors=True)
            )
        else:
            requests.append(QueryRequest(seed=seed, k=8))
    return requests


def assert_results_equivalent(reference, results):
    """Bitwise equality of everything but the accounting fields
    (``seconds`` and ``cached`` legitimately differ under coalescing)."""
    assert len(reference) == len(results)
    for expected, actual in zip(reference, results):
        assert expected.seed == actual.seed
        assert expected.method == actual.method
        assert expected.error_bound == actual.error_bound
        if expected.scores is not None:
            np.testing.assert_array_equal(expected.scores, actual.scores)
            assert actual.top_nodes is None
        else:
            np.testing.assert_array_equal(
                expected.top_nodes, actual.top_nodes
            )
            np.testing.assert_array_equal(
                expected.top_scores, actual.top_scores
            )
            assert actual.scores is None


class SlowMethod(PPRMethod):
    """A stub whose online phase sleeps — for backpressure and deadlock
    tests that need the queue to actually fill up."""

    name = "SLOW"

    def __init__(self, delay: float = 0.05):
        super().__init__()
        self.delay = delay

    def _preprocess(self, graph: Graph) -> None:
        pass

    def _query(self, seed: int) -> np.ndarray:
        time.sleep(self.delay)
        scores = np.zeros(self.graph.num_nodes)
        scores[seed] = 1.0
        return scores

    def preprocessed_bytes(self) -> int:
        return 0


# -- ScoreCache ----------------------------------------------------------------


class TestScoreCache:
    def test_capacity_validated(self):
        with pytest.raises(ParameterError):
            ScoreCache(0)

    def test_lru_eviction_and_counters(self):
        cache = ScoreCache(2)
        for seed in (1, 2, 3):
            cache.put(seed, np.full(4, float(seed)))
        assert len(cache) == 2
        assert cache.get(1) is None  # evicted as LRU
        np.testing.assert_array_equal(cache.get(3), np.full(4, 3.0))
        stats = cache.stats()
        assert stats == {
            "hits": 1, "misses": 1, "evictions": 1,
            "entries": 2, "capacity": 2,
        }

    def test_get_refreshes_recency(self):
        cache = ScoreCache(2)
        cache.put(1, np.zeros(2))
        cache.put(2, np.ones(2))
        cache.get(1)  # 2 becomes LRU
        cache.put(3, np.full(2, 3.0))
        assert cache.get(2) is None
        assert cache.get(1) is not None

    def test_vectors_stored_read_only(self):
        cache = ScoreCache(4)
        vector = np.zeros(3)
        cache.put(0, vector)
        stored = cache.get(0)
        assert not stored.flags.writeable
        with pytest.raises(ValueError):
            stored[0] = 1.0

    def test_keyed_on_kernel_configuration(self):
        cache = ScoreCache(8)
        cache.put(5, np.ones(3))
        previous = kernels.compute_dtype()
        flipped = "float64" if previous is np.float32 else "float32"
        try:
            kernels.set_compute_dtype(flipped)
            assert cache.get(5) is None  # different cache_token
        finally:
            kernels.set_compute_dtype(previous)
        assert cache.get(5) is not None

    def test_bind_rejects_incompatible_engines(
        self, served_method, medium_community
    ):
        shared = ScoreCache(8)
        Engine(served_method, cache=shared)
        # Same method family, same graph: replicas bind cleanly.
        Engine(served_method.replicate(), cache=shared)
        # A different method instance (even same class/graph) must not
        # share — its vectors could differ (other parameters).
        other = TPA(s_iteration=2, t_iteration=4)
        other.preprocess(served_method.graph)
        with pytest.raises(ParameterError):
            Engine(other, cache=shared)
        # Different graph: also rejected.
        elsewhere = TPA(s_iteration=4, t_iteration=8)
        elsewhere.preprocess(medium_community)
        with pytest.raises(ParameterError):
            Engine(elsewhere, cache=shared)

    def test_thread_hammer_invariants(self):
        cache = ScoreCache(8)
        errors = []

        def hammer(worker: int):
            rng = np.random.default_rng(worker)
            try:
                for _ in range(300):
                    seed = int(rng.integers(0, 16))
                    vector = cache.get(seed)
                    if vector is None:
                        cache.put(seed, np.full(2, float(seed)))
                    else:
                        np.testing.assert_array_equal(
                            vector, np.full(2, float(seed))
                        )
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [
            threading.Thread(target=hammer, args=(worker,))
            for worker in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        stats = cache.stats()
        assert stats["entries"] <= 8
        assert stats["hits"] + stats["misses"] == 6 * 300


# -- Scheduler -----------------------------------------------------------------


class TestScheduler:
    def test_parameters_validated(self):
        for bad in (
            {"max_batch": 0},
            {"max_wait_ms": -1},
            {"max_pending": -1},
            # NaN would pass a plain ``< 0`` check and never dispatch.
            {"max_wait_ms": float("nan")},
            {"max_wait_ms": float("inf")},
            # Counts follow validate_k: no truncation, no bools.
            {"max_batch": 2.5},
            {"max_batch": True},
            {"max_pending": True},
            {"max_pending": 8.0},
        ):
            with pytest.raises(ParameterError):
                Scheduler(**bad)

    def test_coalesces_up_to_max_batch(self):
        scheduler = Scheduler(max_batch=4, max_wait_ms=1000.0)
        for seed in range(10):
            scheduler.submit(QueryRequest(seed=seed))
        first = scheduler.next_batch(timeout=1.0)
        second = scheduler.next_batch(timeout=1.0)
        third = scheduler.next_batch(timeout=0.05)
        assert [p.request.seed for p in first] == [0, 1, 2, 3]
        assert [p.request.seed for p in second] == [4, 5, 6, 7]
        # The trailing partial batch dispatches on the worker's timeout
        # even though the age trigger (1s) has not fired.
        assert [p.request.seed for p in third] == [8, 9]

    def test_partial_batch_dispatches_after_max_wait(self):
        scheduler = Scheduler(max_batch=64, max_wait_ms=30.0)
        scheduler.submit(QueryRequest(seed=1))
        begin = time.perf_counter()
        batch = scheduler.next_batch(timeout=5.0)
        elapsed = time.perf_counter() - begin
        assert [p.request.seed for p in batch] == [1]
        assert 0.02 <= elapsed < 2.0  # age trigger, not the 5s timeout

    def test_empty_timeout_returns_none(self):
        scheduler = Scheduler(max_batch=4, max_wait_ms=1.0)
        assert scheduler.next_batch(timeout=0.05) is None

    def test_admission_bound(self):
        scheduler = Scheduler(max_batch=4, max_wait_ms=50.0, max_pending=2)
        scheduler.submit(QueryRequest(seed=0))
        scheduler.submit(QueryRequest(seed=1))
        with pytest.raises(ServerOverloaded) as excinfo:
            scheduler.submit(QueryRequest(seed=2))
        assert excinfo.value.pending == 2
        assert excinfo.value.max_pending == 2
        assert scheduler.pending == 2

    def test_close_drains_then_signals_none(self):
        scheduler = Scheduler(max_batch=4, max_wait_ms=1000.0)
        scheduler.submit(QueryRequest(seed=0))
        scheduler.close()
        with pytest.raises(RuntimeError):
            scheduler.submit(QueryRequest(seed=1))
        batch = scheduler.next_batch(timeout=1.0)
        assert [p.request.seed for p in batch] == [0]
        assert scheduler.next_batch(timeout=1.0) is None

    def test_cancel_pending_cancels_futures(self):
        scheduler = Scheduler(max_batch=4, max_wait_ms=1000.0)
        futures = [
            scheduler.submit(QueryRequest(seed=seed)) for seed in range(3)
        ]
        assert scheduler.cancel_pending() == 3
        assert scheduler.pending == 0
        assert all(future.cancelled() for future in futures)

    def test_blocked_worker_wakes_on_submit(self):
        scheduler = Scheduler(max_batch=2, max_wait_ms=5000.0)
        received = []

        def worker():
            received.append(scheduler.next_batch(timeout=5.0))

        thread = threading.Thread(target=worker)
        thread.start()
        time.sleep(0.05)  # the worker is parked on the condition
        scheduler.submit(QueryRequest(seed=0))
        scheduler.submit(QueryRequest(seed=1))  # fills the batch
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert [p.request.seed for p in received[0]] == [0, 1]


# -- Server: equivalence under concurrency -------------------------------------


class TestServerEquivalence:
    def test_concurrent_submissions_match_serial_batch(
        self, served_method, small_community, each_backend
    ):
        requests = mixed_requests(small_community.num_nodes)
        reference = Engine(served_method).batch(requests)

        with Server(
            served_method, workers=3, max_batch=8, max_wait_ms=2.0,
        ) as server:
            futures = [None] * len(requests)
            barrier = threading.Barrier(6)

            def client(start: int):
                barrier.wait()  # all clients submit at once
                for index in range(start, len(requests), 6):
                    futures[index] = server.submit(requests[index])

            threads = [
                threading.Thread(target=client, args=(start,))
                for start in range(6)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            results = [future.result(timeout=60.0) for future in futures]

        assert_results_equivalent(reference, results)

    def test_server_batch_matches_serial_batch(
        self, served_method, small_community, each_backend
    ):
        requests = mixed_requests(small_community.num_nodes)
        reference = Engine(served_method).batch(requests)
        with Server(served_method, workers=2, max_batch=16) as server:
            results = server.batch(requests, timeout=60.0)
        assert_results_equivalent(reference, results)

    def test_equivalence_with_shared_cache(
        self, served_method, small_community
    ):
        requests = mixed_requests(small_community.num_nodes)
        reference = Engine(served_method).batch(requests)
        with Server(
            served_method, workers=2, max_batch=8, cache_size=64,
        ) as server:
            first = server.batch(requests, timeout=60.0)
            second = server.batch(requests, timeout=60.0)
        assert_results_equivalent(reference, first)
        assert_results_equivalent(reference, second)
        stats = server.cache.stats()
        assert stats["hits"] > 0  # replicas pooled their hits


# -- Server: mechanics ---------------------------------------------------------


class TestServerMechanics:
    def test_workers_validated(self, served_method):
        with pytest.raises(ParameterError):
            Server(served_method, workers=0)

    def test_submit_validates_before_enqueue(self, served_method):
        for front in FRONT_ENDS:
            with front(served_method) as server:
                for bad in (0, 2.5, True, "3"):
                    with pytest.raises(ParameterError):
                        server.submit(QueryRequest(seed=0, k=bad))
                with pytest.raises(ParameterError):
                    server.submit(QueryRequest(seed=10**9, k=5))
                with pytest.raises(TypeError):
                    server.submit(QueryRequest(seed=1.5, k=5))  # type: ignore
                # The poisoned submissions never reached a worker; the
                # server still serves.
                assert server.query(0, k=3, timeout=30.0).seed == 0

    @pytest.mark.parametrize("front", FRONT_ENDS, ids=["Server", "Router"])
    @pytest.mark.parametrize("failure", ["busy_port", "after_start"])
    def test_failed_constructor_leaks_nothing(
        self, small_community, front, failure, monkeypatch
    ):
        """A constructor that raises releases every thread, process,
        segment and port it started before re-raising."""
        prefix = f"repro-shm-{os.getpid()}-"

        def segments() -> set:
            return {n for n in os.listdir("/dev/shm") if n.startswith(prefix)}

        def repro_threads() -> set:
            return {
                thread for thread in threading.enumerate()
                if thread.name.startswith("repro-")
            }

        segments_before, threads_before = segments(), repro_threads()
        with socket.socket() as busy:
            busy.bind(("127.0.0.1", 0))
            busy.listen()
            port = busy.getsockname()[1]
            if failure == "after_start":
                # The last step of construction fails, after the worker
                # threads (and any shard processes) already run.
                def broken(*args, **kwargs):
                    raise OSError("supervisor could not start")

                monkeypatch.setattr(server_module, "Supervisor", broken)
                port = 0
            with pytest.raises(OSError):
                front(
                    TPA(s_iteration=4, t_iteration=8), small_community,
                    obs_port=port,
                )
        assert segments() <= segments_before
        assert not multiprocessing.active_children()
        assert repro_threads() <= threads_before

    def test_overload_backpressure(self, small_community):
        method = SlowMethod(delay=0.2)
        method.preprocess(small_community)
        with Server(
            method, workers=1, max_batch=1, max_wait_ms=0.0,
            max_pending=1, warm=False,
        ) as server:
            with pytest.raises(ServerOverloaded):
                # The single worker is busy for 200ms at a time; with one
                # queue slot some of these submissions must be rejected.
                for seed in range(20):
                    server.submit(QueryRequest(seed=seed, k=2))

    def test_close_drains_pending(self, served_method):
        for front in FRONT_ENDS:
            server = front(served_method, max_batch=4)
            assert server.query(0, k=5, timeout=30.0).top_nodes.size == 5
            futures = [
                server.submit(QueryRequest(seed=seed, k=5))
                for seed in range(24)
            ]
            server.close()  # drain=True: every future must complete
            done, not_done = wait(futures, timeout=60.0)
            assert not not_done
            assert all(
                future.result().top_nodes is not None for future in done
            )
            with pytest.raises(RuntimeError):
                server.submit(QueryRequest(seed=0, k=5))
            server.close()  # idempotent
            assert_segments_released(server)

    def test_close_without_drain_cancels(self, small_community):
        method = SlowMethod(delay=0.1)
        method.preprocess(small_community)
        server = Server(
            method, workers=1, max_batch=1, max_wait_ms=0.0, warm=False,
        )
        futures = [
            server.submit(QueryRequest(seed=seed, k=2)) for seed in range(10)
        ]
        server.close(drain=False)
        outcomes = []
        for future in futures:
            if future.cancelled():
                outcomes.append("cancelled")
            else:
                future.result(timeout=30.0)
                outcomes.append("done")
        assert "cancelled" in outcomes  # queued work was dropped

    def test_worker_survives_client_cancellation(self, small_community):
        """A client that times out and cancels its future must not kill
        the worker that later tries to resolve it."""
        method = SlowMethod(delay=0.1)
        method.preprocess(small_community)
        with Server(
            method, workers=1, max_batch=1, max_wait_ms=0.0, warm=False,
        ) as server:
            first = server.submit(QueryRequest(seed=0, k=2))
            victim = server.submit(QueryRequest(seed=1, k=2))
            last = server.submit(QueryRequest(seed=2, k=2))
            victim.cancel()  # races the worker; either outcome is fine
            assert first.result(timeout=30.0).seed == 0
            assert last.result(timeout=30.0).seed == 2
            # The worker survived whatever the race decided.
            assert server.query(3, k=2, timeout=30.0).seed == 3

    def test_worker_survives_failing_batch(self, small_community):
        class FlakyMethod(SlowMethod):
            name = "FLAKY"

            def _query(self, seed: int) -> np.ndarray:
                if seed == 13:
                    raise RuntimeError("boom")
                return super()._query(seed)

        method = FlakyMethod(delay=0.0)
        method.preprocess(small_community)
        with Server(
            method, workers=1, max_batch=1, max_wait_ms=0.0, warm=False,
        ) as server:
            bad = server.submit(QueryRequest(seed=13, k=2))
            with pytest.raises(RuntimeError, match="boom"):
                bad.result(timeout=30.0)
            good = server.query(5, k=2, timeout=30.0)
            assert good.seed == 5

    def test_stats_shape(self, served_method):
        for front in FRONT_ENDS:
            with front(served_method, cache_size=16) as server:
                server.batch(
                    [QueryRequest(seed=seed, k=4) for seed in range(40)],
                    timeout=60.0,
                )
                stats = server.stats()
            assert stats["workers"] == (1 if front is Router else 2)
            assert stats["completed"] == 40
            assert stats["queries_served"] == 40
            assert stats["throughput_qps"] > 0
            assert (
                stats["latency_p50_ms"]
                <= stats["latency_p95_ms"]
                <= stats["latency_p99_ms"]
                <= stats["latency_max_ms"]
            )
            assert stats["cache"]["capacity"] == 16
            if front is Router:
                assert stats["shards"]["num_shards"] == 2
                assert stats["shards"]["steps"] > 0
            else:
                assert stats["shards"] is None


# -- Replication ---------------------------------------------------------------


class TestReplication:
    def test_method_replica_shares_preprocessed_state(self, served_method):
        replica = served_method.replicate()
        assert replica is not served_method
        assert replica.graph is served_method.graph
        assert replica._stranger is served_method._stranger  # shared array
        assert replica._workspace is not served_method._workspace
        np.testing.assert_array_equal(
            replica.query(7), served_method.query(7)
        )

    def test_unpreprocessed_method_cannot_replicate(self):
        with pytest.raises(NotPreprocessedError):
            TPA().replicate()

    def test_monte_carlo_replica_gets_independent_rng(self, small_community):
        from repro.baselines import BiPPR

        method = BiPPR(seed=3)
        method.preprocess(small_community)
        replica = method.replicate()
        assert replica._rng is not method._rng

    def test_callers_method_stays_private_while_server_runs(
        self, small_community
    ):
        """No worker thread may serve on the caller's live method
        object — the caller keeps using it concurrently."""
        method = TPA(s_iteration=3, t_iteration=6)
        method.preprocess(small_community)
        expected = {seed: method.query(seed) for seed in range(4)}
        errors = []
        stop = threading.Event()
        with Server(method, workers=2, max_batch=4) as server:

            def outside_user():
                try:
                    while not stop.is_set():
                        for seed in range(4):
                            np.testing.assert_array_equal(
                                method.query(seed), expected[seed]
                            )
                except Exception as error:  # pragma: no cover - failure
                    errors.append(error)

            thread = threading.Thread(target=outside_user)
            thread.start()
            server.batch(
                [QueryRequest(seed=seed % 25, k=5) for seed in range(200)],
                timeout=60.0,
            )
            stop.set()
            thread.join()
        assert not errors

    def test_engine_replica_serves_identically(self, served_method):
        engine = Engine(served_method, cache_size=8)
        replica = engine.replicate()
        assert replica.method is not engine.method
        assert replica.cache is engine.cache  # shared score cache
        np.testing.assert_array_equal(
            engine.query(3, k=6).top_nodes, replica.query(3, k=6).top_nodes
        )
        # The replica's hit came from the vector the original cached.
        assert replica.stats()["cache_hits"] == 1


# -- Engine thread-safety regression (satellite fix) ---------------------------


class TestEngineThreadSafety:
    def test_threads_hammering_query(self, served_method):
        """A bare Engine with caching on must survive concurrent query()
        calls from many threads and keep returning correct vectors."""
        engine = Engine(served_method, cache_size=4)
        seeds = [0, 1, 2, 3, 4, 5]
        expected = {seed: served_method.query(seed) for seed in seeds}
        errors = []

        def hammer(worker: int):
            try:
                for index in range(25):
                    seed = seeds[(worker + index) % len(seeds)]
                    result = engine.query(seed)
                    np.testing.assert_array_equal(
                        result.scores, expected[seed]
                    )
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [
            threading.Thread(target=hammer, args=(worker,))
            for worker in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        stats = engine.stats()
        assert stats["queries_served"] == 8 * 25
        assert stats["cache_hits"] + stats["cache_misses"] == 8 * 25
        assert stats["cache_entries"] <= 4

    def test_stats_readable_during_serving(self, served_method):
        engine = Engine(served_method, cache_size=2)
        stop = threading.Event()
        errors = []

        def reader():
            try:
                while not stop.is_set():
                    stats = engine.stats()
                    assert stats["queries_served"] >= 0
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        thread = threading.Thread(target=reader)
        thread.start()
        for seed in range(30):
            engine.query(seed % 5)
        stop.set()
        thread.join()
        assert not errors


# -- Metrics -------------------------------------------------------------------


class TestMetrics:
    def test_percentiles_empty(self):
        assert percentiles([]) == {"p50": 0.0, "p95": 0.0, "p99": 0.0}

    def test_percentiles_ordered(self):
        samples = np.linspace(1.0, 100.0, 100)
        result = percentiles(samples)
        assert result["p50"] <= result["p95"] <= result["p99"]
        assert result["p99"] == pytest.approx(99.01, abs=0.1)

    def test_latency_stats_snapshot(self):
        stats = LatencyStats()
        for value in (0.010, 0.020, 0.030):
            stats.record(
                queue_seconds=value / 2,
                compute_seconds=value / 2,
                total_seconds=value,
            )
        snap = stats.snapshot()
        assert snap["completed"] == 3
        assert snap["latency_p50_ms"] == pytest.approx(20.0)
        assert snap["latency_max_ms"] == pytest.approx(30.0)
        assert snap["queue_mean_ms"] == pytest.approx(10.0)
        assert snap["compute_mean_ms"] == pytest.approx(10.0)

    def test_throughput_ignores_idle_time_before_traffic(self):
        stats = LatencyStats()
        time.sleep(0.15)  # idle before the first request arrives
        for _ in range(10):
            stats.record(0.0005, 0.0005, 0.001)
        snap = stats.snapshot()
        # 10 requests in a burst of ~ms: idle lead-in must not drag the
        # rate toward 10/0.15.
        assert snap["throughput_qps"] > 500

    def test_latency_stats_thread_safe(self):
        stats = LatencyStats(capacity=128)
        threads = [
            threading.Thread(
                target=lambda: [
                    stats.record(0.001, 0.001, 0.002) for _ in range(200)
                ]
            )
            for _ in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert stats.snapshot()["completed"] == 800
