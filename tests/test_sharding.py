"""Tests for the sharded multi-process serving subsystem (repro.sharding).

The load-bearing guarantee mirrors the serving suite's: sharding must
never change scores or rankings.  Router/ShardedEngine results are
checked **bitwise** against a serial ``Engine.batch`` over the same
requests, on every installed kernel backend.  The rest covers the
moving parts: plan packing, the shared-memory store lifecycle (no
``/dev/shm`` leaks), worker fault forwarding, the DiskGraph substrate,
and the Router's Server-compatible front end.
"""

from __future__ import annotations

import os
import signal

import numpy as np
import pytest

from repro import kernels
from repro.core.cpi import CPIMethod
from repro.core.tpa import TPA
from repro.resilience.reaper import reap_orphan_segments
from repro.engine import Engine, QueryRequest
from repro.exceptions import ParameterError
from repro.graph.diskgraph import DiskGraph
from repro.sharding import (
    Router,
    ShardPlan,
    ShardedOperator,
    ShardStore,
)


@pytest.fixture(params=[kernels.get_backend()])
def each_backend(request):
    """The kernel backend's name, stamped into the test id."""
    return request.param


@pytest.fixture(scope="module")
def served_method(small_community):
    method = TPA(s_iteration=4, t_iteration=8)
    method.preprocess(small_community)
    return method


def mixed_requests(n: int) -> list[QueryRequest]:
    """Duplicate seeds, full-vector and top-k requests interleaved,
    varying exclusion flags — the serving suite's messy mix."""
    requests = []
    for index in range(60):
        seed = (index * 7) % (n // 4)
        if index % 5 == 0:
            requests.append(QueryRequest(seed=seed))
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
    """Bitwise equality of everything but the accounting fields."""
    assert len(reference) == len(results)
    for expected, actual in zip(reference, results):
        assert expected.seed == actual.seed
        assert expected.method == actual.method
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


def assert_no_segments(names) -> None:
    """No ``/dev/shm`` entry (nor attachable segment) remains."""
    for name in names:
        assert not os.path.exists("/dev/shm/" + name.lstrip("/")), name


class TestShardPlan:
    def test_uniform_covers_rows(self):
        plan = ShardPlan.uniform(100, 3)
        assert plan.num_shards == 3
        assert plan.num_rows == 100
        sizes = np.diff(plan.boundaries)
        assert sizes.sum() == 100
        assert sizes.min() >= 100 // 3 - 1

    def test_uniform_boundaries_pinned(self):
        # Every stripe of an equal-height plan, fixed: (20 000, 2) is
        # the sharded-serve ladder plan.
        expected = {
            (1, 1): [0, 1],
            (2, 2): [0, 1, 2],
            (3, 2): [0, 2, 3],
            (5, 3): [0, 2, 4, 5],
            (7, 4): [0, 2, 4, 6, 7],
            (10, 3): [0, 3, 7, 10],
            (10, 10): [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10],
            (11, 4): [0, 3, 6, 8, 11],
            (101, 7): [0, 14, 28, 43, 57, 72, 86, 101],
            (1000, 3): [0, 333, 667, 1000],
            (20000, 1): [0, 20000],
            (20000, 2): [0, 10000, 20000],
            (20000, 3): [0, 6667, 13333, 20000],
            (20000, 4): [0, 5000, 10000, 15000, 20000],
            (20000, 7): [0, 2857, 5714, 8571, 11428, 14285, 17143, 20000],
            (200000, 2): [0, 100000, 200000],
            (200000, 3): [0, 66667, 133333, 200000],
        }
        for (num_rows, num_shards), bounds in expected.items():
            plan = ShardPlan.uniform(num_rows, num_shards)
            assert plan.boundaries.dtype == np.int64
            assert plan.boundaries.tolist() == bounds, (num_rows, num_shards)

    def test_validation(self):
        with pytest.raises(ParameterError):
            ShardPlan.uniform(10, 0)
        with pytest.raises(ParameterError):
            ShardPlan.uniform(3, 5)
        with pytest.raises(ParameterError):
            ShardPlan(boundaries=np.asarray([0, 5, 3, 10]))
        with pytest.raises(ParameterError):
            ShardPlan(boundaries=np.asarray([1, 10]))

    def test_explicit_plan_num_shards_conflict(self, served_method):
        engine = Engine(served_method)
        plan = ShardPlan.uniform(served_method.graph.num_nodes, 3)
        with pytest.raises(ParameterError):
            engine.shard(num_shards=2, plan=plan)


class TestShardStore:
    def test_round_trip_and_cleanup(self, small_community):
        plan = ShardPlan.uniform(small_community.num_nodes, 3)
        store = ShardStore.build(small_community, plan, panel_cols=8)
        names = store.segment_names
        operator = small_community.transition_transpose
        total_nnz = sum(spec.nnz for spec in store.specs)
        assert total_nnz == operator.nnz
        for spec in store.specs:
            assert spec.row_end - spec.row_begin > 0
        store.close()
        assert_no_segments(names)
        store.close()  # idempotent

    def test_rejects_mismatched_plan(self, small_community):
        plan = ShardPlan.uniform(small_community.num_nodes - 1, 2)
        with pytest.raises(ParameterError):
            ShardStore.build(small_community, plan)


class TestShardedOperatorEquivalence:
    def test_propagate_bitwise_matches_graph(
        self, small_community, each_backend
    ):
        plan = ShardPlan.uniform(small_community.num_nodes, 3)
        rng = np.random.default_rng(7)
        with ShardedOperator(small_community, plan) as sharded:
            x = rng.random((small_community.num_nodes, 5))
            np.testing.assert_array_equal(
                small_community.propagate(x), sharded.propagate(x)
            )
            np.testing.assert_array_equal(
                small_community.propagate_decayed(x, 0.85),
                sharded.propagate_decayed(x, 0.85),
            )
            vec = rng.random(small_community.num_nodes)
            np.testing.assert_array_equal(
                small_community.propagate_decayed(vec, 0.85),
                sharded.propagate_decayed(vec, 0.85),
            )

    def test_wide_operand_chunks_bitwise(self, small_community):
        plan = ShardPlan.uniform(small_community.num_nodes, 2)
        rng = np.random.default_rng(8)
        with ShardedOperator(
            small_community, plan, panel_cols=4
        ) as sharded:
            x = rng.random((small_community.num_nodes, 11))
            np.testing.assert_array_equal(
                small_community.propagate_decayed(x, 0.85),
                sharded.propagate_decayed(x, 0.85),
            )

    def test_dangling_uniform_correction(self):
        from repro.graph.graph import Graph

        graph = Graph(
            6, [0, 1, 2, 3], [1, 2, 3, 0], dangling="uniform"
        )
        plan = ShardPlan.uniform(6, 2)
        x = np.random.default_rng(9).random((6, 3))
        with ShardedOperator(graph, plan) as sharded:
            np.testing.assert_array_equal(
                graph.propagate_decayed(x, 0.85),
                sharded.propagate_decayed(x, 0.85),
            )

    def test_delegates_structure_to_source(self, small_community):
        plan = ShardPlan.uniform(small_community.num_nodes, 2)
        with ShardedOperator(small_community, plan) as sharded:
            assert sharded.num_edges == small_community.num_edges
            np.testing.assert_array_equal(
                sharded.out_neighbors(3), small_community.out_neighbors(3)
            )
            assert sharded.transition is small_community.transition

    def test_closed_operator_rejects_sweeps(self, small_community):
        plan = ShardPlan.uniform(small_community.num_nodes, 2)
        sharded = ShardedOperator(small_community, plan)
        sharded.close()
        with pytest.raises(RuntimeError):
            sharded.propagate_decayed(
                np.zeros((small_community.num_nodes, 1)), 0.85
            )


class TestShardedEngine:
    def test_batch_bitwise_matches_serial(
        self, small_community, each_backend
    ):
        requests = mixed_requests(small_community.num_nodes)
        serial = Engine(TPA(s_iteration=4, t_iteration=8), small_community)
        reference = serial.batch(requests)
        engine = Engine(TPA(s_iteration=4, t_iteration=8), small_community)
        with engine.shard(num_shards=3) as sharded:
            assert_results_equivalent(reference, sharded.batch(requests))
            names = sharded.shards._store.segment_names
        assert_no_segments(names)

    def test_serve_bitwise_matches_serial(self, served_method):
        seeds = np.arange(40) % 50
        serial = Engine(served_method)
        reference = serial.serve(seeds, k=10)
        engine = Engine(served_method)
        with engine.shard(num_shards=2) as sharded:
            np.testing.assert_array_equal(
                reference, sharded.serve(seeds, k=10)
            )

    def test_shares_preprocessed_state(self, served_method):
        engine = Engine(served_method)
        with engine.shard(num_shards=2) as sharded:
            assert sharded.method is not served_method
            assert sharded.method._stranger is served_method._stranger
            assert sharded.method.graph is sharded.shards
            assert sharded.graph is served_method.graph
            stats = sharded.stats()
            assert stats["shards"]["num_shards"] == 2
            assert stats["shards"]["workers_alive"] == 2

    def test_float32_policy_bitwise(self, small_community):
        requests = [QueryRequest(seed=s, k=8) for s in range(30)]
        previous = kernels.set_compute_dtype("float32")
        try:
            serial = Engine(
                TPA(s_iteration=4, t_iteration=8), small_community
            )
            reference = serial.batch(requests)
            engine = Engine(
                TPA(s_iteration=4, t_iteration=8), small_community
            )
            with engine.shard(num_shards=2) as sharded:
                assert_results_equivalent(reference, sharded.batch(requests))
        finally:
            kernels.set_compute_dtype(previous)

    def test_spawn_start_method(self, served_method):
        engine = Engine(served_method)
        serial = Engine(served_method)
        requests = [QueryRequest(seed=s, k=6) for s in range(12)]
        reference = serial.batch(requests)
        with engine.shard(num_shards=2, start_method="spawn") as sharded:
            assert_results_equivalent(reference, sharded.batch(requests))

    def test_worker_error_is_forwarded(self, small_community):
        plan = ShardPlan.uniform(small_community.num_nodes, 2)
        # supervise=False: a heartbeat ping racing on the pipe would
        # satisfy wait_ok before the error reply is read.
        with ShardedOperator(
            small_community, plan, supervise=False
        ) as sharded:
            # An operand of the wrong width for the panels is caught
            # router-side; simulate a worker-side failure instead by
            # sending a malformed command through the handle.  The
            # command carries a proper sequence number so the error
            # reply is not discarded as stale.
            worker = sharded.workers()[0]
            worker._send(("bogus", worker._next_seq()))
            with pytest.raises(RuntimeError, match="bogus"):
                worker.wait_ok(30.0)
            # The worker loop survives the bad command.
            worker.ping(30.0)


class TestDiskGraphSubstrate:
    """Satellite: Engine.replicate() and Engine.shard() over DiskGraph."""

    @pytest.fixture(scope="class")
    def disk_graph(self, tmp_path_factory, small_community):
        directory = tmp_path_factory.mktemp("shard_disk")
        return DiskGraph.build(small_community, directory, rows_per_stripe=64)

    def test_disk_propagate_bitwise_matches_memory(
        self, small_community, disk_graph
    ):
        """The satellite-1 rewrite: stripes through kernels.spmv/spmm,
        decay pre-scaled — disk and memory substrates agree bitwise."""
        rng = np.random.default_rng(5)
        x = rng.random((small_community.num_nodes, 4))
        np.testing.assert_array_equal(
            small_community.propagate_decayed(x, 0.85),
            disk_graph.propagate_decayed(x, 0.85),
        )
        vec = rng.random(small_community.num_nodes)
        np.testing.assert_array_equal(
            small_community.propagate(vec).astype(np.float64),
            disk_graph.propagate(vec),
        )

    def test_disk_propagate_reuses_workspace(self, disk_graph):
        x = np.random.default_rng(6).random(disk_graph.num_nodes)
        first = disk_graph.propagate(x)
        second = disk_graph.propagate(first)  # feeding the buffer back
        third = disk_graph.propagate(second)
        assert first is third  # the pair alternates
        assert disk_graph.resident_bytes() > 0

    def test_replicate_over_disk_substrate(self, disk_graph):
        method = TPA(s_iteration=4, t_iteration=8)
        method.preprocess(disk_graph)
        engine = Engine(method)
        replica = engine.replicate()
        assert replica.method is not method
        assert replica.method._stranger is method._stranger
        assert replica.method.graph is disk_graph
        result = replica.query(3, k=8)
        reference = engine.query(3, k=8)
        np.testing.assert_array_equal(reference.top_nodes, result.top_nodes)

    def test_shard_over_disk_substrate(self, disk_graph, each_backend):
        method = TPA(s_iteration=4, t_iteration=8)
        method.preprocess(disk_graph)
        serial = Engine(method)
        requests = [QueryRequest(seed=s % 40, k=8) for s in range(25)]
        reference = serial.batch(requests)
        engine = Engine(method)
        with engine.shard(num_shards=3) as sharded:
            # Shared read-only stripes: shard nnz covers the operator.
            stats = sharded.shards.shard_stats()
            assert sum(stats["shard_nnz"]) > 0
            assert_results_equivalent(reference, sharded.batch(requests))
            names = sharded.shards._store.segment_names
        assert_no_segments(names)


class TestRouter:
    def test_batch_bitwise_matches_serial(
        self, small_community, each_backend
    ):
        requests = mixed_requests(small_community.num_nodes)
        serial = Engine(TPA(s_iteration=4, t_iteration=8), small_community)
        reference = serial.batch(requests)
        with Router(
            TPA(s_iteration=4, t_iteration=8), small_community,
            num_shards=3, max_batch=16, max_wait_ms=1.0,
        ) as router:
            assert_results_equivalent(reference, router.batch(requests))
            names = router.engine.shards._store.segment_names
        assert_no_segments(names)

    def test_concurrent_submissions_match_serial(self, small_community):
        from concurrent.futures import wait

        requests = mixed_requests(small_community.num_nodes)
        serial = Engine(TPA(s_iteration=4, t_iteration=8), small_community)
        reference = serial.batch(requests)
        with Router(
            TPA(s_iteration=4, t_iteration=8), small_community,
            num_shards=2, max_batch=8, max_wait_ms=0.5,
        ) as router:
            futures = [router.submit(request) for request in requests]
            wait(futures, timeout=120)
            results = [future.result(1) for future in futures]
        assert_results_equivalent(reference, results)

    def test_shared_cache_hits(self, small_community):
        with Router(
            TPA(s_iteration=4, t_iteration=8), small_community,
            num_shards=2, cache_size=64,
        ) as router:
            first = router.query(5, k=8)
            second = router.query(5, k=8)
            np.testing.assert_array_equal(first.top_nodes, second.top_nodes)
            assert router.cache.stats()["hits"] >= 1

    def test_submit_validates_before_enqueue(self, small_community):
        with Router(
            TPA(s_iteration=4, t_iteration=8), small_community, num_shards=2
        ) as router:
            for bad in (0, 2.5, True, "3"):
                with pytest.raises(ParameterError):
                    router.submit(QueryRequest(seed=0, k=bad))
            with pytest.raises(ValueError):
                router.submit(QueryRequest(seed=10**9, k=5))

    def test_close_is_idempotent_and_final(self, small_community):
        router = Router(
            TPA(s_iteration=4, t_iteration=8), small_community, num_shards=2
        )
        names = router.engine.shards._store.segment_names
        result = router.query(0, k=5)
        assert result.top_nodes.size == 5
        router.close()
        router.close()
        assert_no_segments(names)
        with pytest.raises(RuntimeError):
            router.submit(QueryRequest(seed=0, k=5))

    def test_stats_shape(self, small_community):
        with Router(
            TPA(s_iteration=4, t_iteration=8), small_community,
            num_shards=2, cache_size=16,
        ) as router:
            router.batch([QueryRequest(seed=s, k=5) for s in range(10)])
            stats = router.stats()
        assert stats["completed"] == 10
        assert stats["queries_served"] == 10
        assert stats["shards"]["num_shards"] == 2
        assert stats["shards"]["steps"] > 0
        assert "cache" in stats


class TestCrashRecovery:
    """Satellite: a SIGKILLed shard worker must not change results.

    The kill lands between two batches, so the next sweep (or the
    supervisor heartbeat, whichever gets there first) finds the corpse,
    respawns the worker against the live store, and the Router's
    answers stay bitwise identical to a serial ``Engine.batch`` — with
    zero ``/dev/shm`` orphans afterwards.
    """

    def test_sigkilled_worker_respawns_bitwise(self, small_community):
        # CPI drives a real multi-iteration sweep through the shard
        # workers on every batch (TPA's online phase answers graphs this
        # small from the in-memory CSR without touching the operator).
        # Two disjoint request sets: a repeat of the first would be
        # answered by the engine's score cache, sweeping nothing.
        before = [QueryRequest(seed=s, k=8) for s in range(16)]
        after = [QueryRequest(seed=s, k=8) for s in range(16, 32)]
        serial = Engine(CPIMethod(), small_community)
        with Router(
            CPIMethod(), small_community, num_shards=2,
            max_batch=16, heartbeat_ms=50,
        ) as router:
            assert_results_equivalent(
                serial.batch(before), router.batch(before, timeout=120)
            )
            victim = router.engine.shards.workers()[1]
            os.kill(victim.pid, signal.SIGKILL)
            assert_results_equivalent(
                serial.batch(after), router.batch(after, timeout=120)
            )
            stats = router.stats()
            assert stats["respawns"] >= 1
            assert stats["failures"] == 0
            assert stats["shards"]["generations"][1] >= 1
            names = router.engine.shards._store.segment_names
        assert_no_segments(names)
        assert reap_orphan_segments() == []


class TestCacheTokenShardComponent:
    def test_default_token_names_no_shard(self):
        assert ":shard-none:" in kernels.cache_token()

    def test_annotation_appears_in_token(self):
        plain = kernels.cache_token()
        previous = kernels.set_shard_annotation("1/4")
        try:
            assert ":shard-1/4:" in kernels.cache_token()
            assert kernels.cache_token() == plain.replace(
                ":shard-none:", ":shard-1/4:"
            )
        finally:
            kernels.set_shard_annotation(previous)
        assert ":shard-none:" in kernels.cache_token()
