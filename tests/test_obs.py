"""Tests for the observability layer (repro.obs) and its wiring.

Two load-bearing guarantees on top of the registry/trace unit behavior:

* **Zero distortion** — with metrics on and tracing active, every
  deployment still returns results bitwise identical to the serial
  engine, and the disabled-tracing fast path costs nanoseconds (held
  to a generous microsecond bound here so slow CI cannot flake).
* **Connected traces** — one traced request through the sharded Router
  yields a single connected span tree: root ``request`` →
  ``scheduler``/``dispatch`` → per-chunk ``sweep`` → per-shard
  ``sweep_shard`` shipped back over the pipe (surviving an injected
  worker kill with the retry visible as ``attempt=2``) → ``gather`` →
  ``select``.
"""

from __future__ import annotations

import json
import math
import threading
import time
from concurrent.futures import wait

import numpy as np
import pytest

from repro import kernels
from repro.core.tpa import TPA
from repro.dynamic import DynamicGraph
from repro.engine import Engine, QueryRequest
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.resilience import faults
from repro.serving import Server
from repro.sharding import Router


@pytest.fixture(autouse=True)
def clean_obs_state():
    """Every test gets a fresh registry, empty span buffer, and the
    env-derived default enablement (tracing off, metrics on)."""
    obs_metrics.get_registry().reset()
    obs_metrics.set_metrics_enabled(None)
    obs_trace.clear_spans()
    obs_trace.set_tracing(None)
    obs_trace.set_trace_sample(None)
    yield
    obs_metrics.get_registry().reset()
    obs_metrics.set_metrics_enabled(None)
    obs_trace.clear_spans()
    obs_trace.set_tracing(None)
    obs_trace.set_trace_sample(None)


@pytest.fixture
def fork_numpy():
    """NumPy backend so shard workers fork (fast startup)."""
    previous = kernels.get_backend()
    kernels.set_backend("numpy")
    yield "numpy"
    kernels.set_backend(previous)


@pytest.fixture(autouse=True)
def clean_fault_state(monkeypatch):
    monkeypatch.delenv(faults.FAULTS_ENV_VAR, raising=False)
    faults.reset_fault_plan()
    yield
    faults.reset_fault_plan()
    faults.set_scope("main", 0)


def tree_names(node: dict) -> dict:
    """``{name: [child names...]}`` flattening of one span-tree node."""
    return {
        node["span"]["name"]: [
            child["span"]["name"] for child in node["children"]
        ],
        **{
            key: value
            for child in node["children"]
            for key, value in tree_names(child).items()
        },
    }


# -- registry primitives -------------------------------------------------------


class TestRegistry:
    def test_counter_gauge_histogram(self):
        registry = obs_metrics.Registry()
        counter = registry.counter("repro_x_total", "x")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        with pytest.raises(ValueError):
            counter.inc(-1)
        gauge = registry.gauge("repro_depth")
        gauge.set(5)
        gauge.dec(2)
        assert gauge.value == 3.0
        hist = registry.histogram(
            "repro_t_seconds", buckets=(0.1, 1.0, 10.0)
        )
        for value in (0.05, 0.5, 0.5, 100.0):
            hist.observe(value)
        child = hist.labels()
        assert child.count == 4
        assert child.sum == pytest.approx(101.05)
        assert child.cumulative() == [1, 3, 3, 4]

    def test_get_or_create_and_kind_mismatch(self):
        registry = obs_metrics.Registry()
        first = registry.counter("repro_x_total")
        assert registry.counter("repro_x_total") is first
        with pytest.raises(ValueError):
            registry.gauge("repro_x_total")
        with pytest.raises(ValueError):
            registry.counter("repro_x_total", labelnames=("shard",))
        with pytest.raises(ValueError):
            registry.counter("0bad name")

    def test_labels(self):
        registry = obs_metrics.Registry()
        family = registry.counter(
            "repro_sweeps_total", labelnames=("shard", "backend")
        )
        family.labels(shard=0, backend="numba").inc()
        family.labels(shard=0, backend="numba").inc()
        family.labels(shard=1, backend="numba").inc()
        assert family.labels(shard="0", backend="numba").value == 2
        with pytest.raises(ValueError):
            family.labels(shard=0)  # missing label
        with pytest.raises(ValueError):
            family.inc()  # labeled family has no anonymous child

    def test_disabled_metrics_record_nothing(self):
        registry = obs_metrics.Registry()
        counter = registry.counter("repro_x_total")
        obs_metrics.set_metrics_enabled(False)
        counter.inc(5)
        obs_metrics.set_metrics_enabled(None)
        assert counter.value == 0

    def test_default_buckets_log_spaced(self):
        edges = obs_metrics.default_buckets()
        assert len(edges) == 20
        assert edges[0] == pytest.approx(1e-4)
        assert edges[-1] == pytest.approx(60.0)
        ratios = [b / a for a, b in zip(edges, edges[1:])]
        assert max(ratios) == pytest.approx(min(ratios))


class TestExposition:
    def fill(self, registry):
        registry.counter("repro_req_total", "Requests served.").inc(7)
        registry.gauge("repro_depth", "Queue depth.").set(3)
        sweeps = registry.histogram(
            "repro_sweep_seconds", "Sweep time.",
            labelnames=("shard", "backend"), buckets=(0.01, 0.1, 1.0),
        )
        sweeps.labels(shard="1", backend="numba").observe(0.05)
        sweeps.labels(shard="1", backend="numba").observe(5.0)
        registry.counter(
            "repro_odd_total", labelnames=("tag",)
        ).labels(tag='we"ird\nvalue').inc()

    def test_prometheus_round_trip(self):
        registry = obs_metrics.Registry()
        self.fill(registry)
        text = registry.expose()
        families = obs_metrics.parse_prometheus_text(text)
        assert families["repro_req_total"]["type"] == "counter"
        assert families["repro_req_total"]["help"] == "Requests served."
        assert families["repro_req_total"]["samples"] == [
            ("repro_req_total", {}, 7.0)
        ]
        assert families["repro_depth"]["samples"] == [
            ("repro_depth", {}, 3.0)
        ]
        sweep = families["repro_sweep_seconds"]
        assert sweep["type"] == "histogram"
        by_name = {}
        for name, labels, value in sweep["samples"]:
            by_name.setdefault(name, []).append((labels, value))
        labels = {"shard": "1", "backend": "numba"}
        assert (labels, 2.0) in by_name["repro_sweep_seconds_count"]
        assert by_name["repro_sweep_seconds_sum"][0][1] == pytest.approx(5.05)
        buckets = {
            lbl["le"]: value
            for lbl, value in by_name["repro_sweep_seconds_bucket"]
        }
        assert buckets["+Inf"] == 2.0
        assert buckets["1"] == 1.0
        # Escaped label values survive the round trip.
        (sample,) = families["repro_odd_total"]["samples"]
        assert sample[1] == {"tag": 'we"ird\nvalue'}

    def test_parser_rejects_malformed(self):
        for bad in (
            "repro_x_total",  # no value
            "repro_x_total{le=0.1} 1",  # unquoted label value
            "repro_x_total notanumber",
            "# TYPE repro_x_total weird",
        ):
            with pytest.raises(ValueError):
                obs_metrics.parse_prometheus_text(bad)

    def test_json_snapshot(self):
        registry = obs_metrics.Registry()
        self.fill(registry)
        snapshot = registry.snapshot()
        assert snapshot["schema"] == obs_metrics.METRICS_SCHEMA
        assert snapshot["families"]["repro_req_total"]["samples"][0][
            "value"
        ] == 7.0
        hist = snapshot["families"]["repro_sweep_seconds"]["samples"][0]
        assert hist["count"] == 2
        assert hist["counts"][-1] == 2
        json.dumps(snapshot)  # JSON-clean


# -- trace primitives ----------------------------------------------------------


class TestTrace:
    def test_disabled_by_default(self):
        assert obs_trace.new_trace_id() is None
        with obs_trace.span("anything") as opened:
            assert opened is None
        assert obs_trace.spans() == []

    def test_span_tree_and_format(self):
        obs_trace.set_tracing(True)
        trace_id = obs_trace.new_trace_id()
        with obs_trace.span("request", trace_id=trace_id, seed=7):
            with obs_trace.span("dispatch"):
                with obs_trace.span("sweep"):
                    pass
                with obs_trace.span("gather"):
                    pass
        retained = obs_trace.spans(trace_id)
        assert len(retained) == 4
        (root,) = obs_trace.span_tree(trace_id)
        shape = tree_names(root)
        assert shape["request"] == ["dispatch"]
        assert shape["dispatch"] == ["sweep", "gather"]
        rendered = obs_trace.format_trace(trace_id)
        assert "request" in rendered and "seed=7" in rendered

    def test_sampling_is_deterministic(self):
        obs_trace.set_tracing(True)
        obs_trace.set_trace_sample(0.5)
        minted = [obs_trace.new_trace_id() for _ in range(200)]
        kept = sum(1 for t in minted if t is not None)
        assert 50 < kept < 150
        obs_trace.set_trace_sample(0.0)
        assert obs_trace.new_trace_id() is None

    def test_ring_buffer_bounded(self):
        obs_trace.set_tracing(True)
        obs_trace.set_buffer_size(16)
        try:
            trace_id = obs_trace.new_trace_id()
            for index in range(100):
                obs_trace.start_span(
                    "s", trace_id, begin=float(index)
                ).finish(end=float(index))
            assert len(obs_trace.spans()) == 16
        finally:
            obs_trace.set_buffer_size(8192)

    def test_ingest_rebases_foreign_clock(self):
        obs_trace.set_tracing(True)
        arrival = time.perf_counter()
        obs_trace.ingest_spans(
            [{
                "trace_id": "t-x", "span_id": "s-x", "parent_id": None,
                "name": "sweep_shard", "begin": 1000.0, "end": 1000.25,
                "duration_ms": 250.0, "tags": {"pid": 1},
            }],
            rebase_end=arrival,
        )
        (adopted,) = obs_trace.spans("t-x")
        assert adopted["end"] == arrival
        assert adopted["begin"] == pytest.approx(arrival - 0.25)
        assert adopted["tags"]["clock"] == "rebased"

    def test_dump_traces(self, tmp_path):
        obs_trace.set_tracing(True)
        trace_id = obs_trace.new_trace_id()
        with obs_trace.span("request", trace_id=trace_id):
            pass
        path = tmp_path / "trace.json"
        document = obs_trace.dump_traces(str(path))
        assert document["schema"] == obs_trace.TRACE_SCHEMA
        loaded = json.loads(path.read_text())
        assert loaded["spans"][0]["name"] == "request"

    def test_phase_accounting(self):
        accumulator: dict = {}
        with obs_trace.collect_phases(accumulator):
            with obs_trace.phase("sweep"):
                pass
            obs_trace.add_phase("sweep", 1.0)
            obs_trace.add_phase("gather", 2.0)
        assert accumulator["sweep"] >= 1.0
        assert accumulator["gather"] == 2.0
        obs_trace.add_phase("late", 9.0)  # no accumulator installed: no-op
        assert "late" not in accumulator


class TestOverhead:
    """The disabled path must stay provably negligible.

    Bounds are *very* generous (microseconds per call against a real
    cost of nanoseconds) so a loaded CI host cannot flake this; what
    the test actually guards is someone accidentally making the
    disabled path allocate, lock, or read the environment per call.
    """

    def best_of(self, fn, loops=20_000, repeats=5):
        samples = []
        for _ in range(repeats):
            begin = time.perf_counter()
            for _ in range(loops):
                fn()
            samples.append((time.perf_counter() - begin) / loops)
        return min(samples)

    def test_disabled_trace_id_is_cheap(self):
        assert not obs_trace.tracing_enabled()
        per_call = self.best_of(obs_trace.new_trace_id)
        assert per_call < 5e-6

    def test_disabled_metrics_are_cheap(self):
        counter = obs_metrics.get_registry().counter("repro_x_total")
        obs_metrics.set_metrics_enabled(False)
        try:
            per_call = self.best_of(counter.inc)
        finally:
            obs_metrics.set_metrics_enabled(None)
        assert per_call < 5e-6

    def test_untraced_span_context_is_cheap(self):
        def once():
            with obs_trace.span("request"):
                pass

        assert self.best_of(once, loops=5_000) < 2e-5


# -- serving integration -------------------------------------------------------


def small_server(graph, **kwargs):
    kwargs.setdefault("workers", 2)
    kwargs.setdefault("max_batch", 8)
    kwargs.setdefault("max_wait_ms", 1.0)
    return Server(TPA(s_iteration=4, t_iteration=8), graph, **kwargs)


class TestServingIntegration:
    def test_registry_families_populated_by_serving(self, small_community):
        with small_server(small_community, cache_size=32) as server:
            server.batch([QueryRequest(seed=s, k=5) for s in range(12)])
            server.query(0, k=5)
            server.query(0, k=5)  # cache hit
        families = obs_metrics.get_registry().families()
        assert families["repro_requests_total"].value >= 12
        assert families["repro_request_seconds"].labels().count >= 12
        assert families["repro_cache_hits_total"].value >= 1
        phase = families["repro_phase_seconds"]
        phase_labels = {key[0] for key in phase.children()}
        assert {"queue", "dispatch", "select"} <= phase_labels
        served = families["repro_queries_served_total"]
        assert served.value >= 12
        # Engine.serve counts into the same family, once per row.
        engine = Engine(TPA(s_iteration=4, t_iteration=8), small_community)
        before = served.value
        engine.serve(np.arange(5), k=3)
        assert engine.stats()["queries_served"] == 5
        assert served.value == before + 5
        # The whole registry round-trips the strict parser.
        parsed = obs_metrics.parse_prometheus_text(
            obs_metrics.get_registry().expose()
        )
        assert set(parsed) == set(families)

    def test_latency_stats_phase_breakdown(self, small_community):
        with small_server(small_community) as server:
            server.batch([QueryRequest(seed=s, k=5) for s in range(8)])
            snapshot = server.stats()
        phases = snapshot["phases"]
        assert phases["queue"]["count"] == 8
        assert phases["dispatch"]["count"] >= 1
        assert phases["select"]["total_ms"] > 0
        assert phases["dispatch"]["mean_ms"] >= phases["select"]["mean_ms"]

    def test_server_and_router_stats_same_shape(
        self, small_community, fork_numpy
    ):
        with small_server(small_community, cache_size=16) as server:
            server.query(0, k=5)
            server_stats = server.stats()
        with Router(
            TPA(s_iteration=4, t_iteration=8), small_community,
            num_shards=2, cache_size=16,
        ) as router:
            router.query(0, k=5)
            router_stats = router.stats()
        assert set(server_stats) == set(router_stats)
        assert server_stats["shards"] is None
        assert router_stats["shards"]["num_shards"] == 2
        assert server_stats["cache"] is not None

    def test_router_stats_and_registry_carry_shard_counters(
        self, small_community, fork_numpy
    ):
        with Router(
            TPA(s_iteration=4, t_iteration=8), small_community,
            num_shards=2,
        ) as router:
            router.batch([QueryRequest(seed=s, k=5) for s in range(16)])
            shards = router.stats()["shards"]
        assert shards["respawns"] == 0
        assert shards["sweep_retries"] == 0
        assert shards["generations"] == [0, 0]
        snapshot = obs_metrics.get_registry().snapshot()
        assert snapshot["schema"] == obs_metrics.METRICS_SCHEMA
        assert "repro_sweep_seconds" in snapshot["families"]
        json.dumps(snapshot)

    def test_futures_carry_queue_vs_compute_split(self, small_community):
        """``dispatch_batch`` stamps ``future.repro_timing`` before the
        future resolves; the benchmark ladder's load generator reads it
        to split client-side latency into queue and compute time."""
        done_at: dict[int, float] = {}

        def stamp(future):
            done_at[id(future)] = time.perf_counter()

        submitted = []
        with small_server(small_community) as server:
            for seed in range(40):
                begin = time.perf_counter()
                future = server.submit(QueryRequest(seed=seed % 32, k=5))
                future.add_done_callback(stamp)
                submitted.append((begin, future))
            for _, future in submitted:
                future.result(timeout=60)
        gaps = []
        for begin, future in submitted:
            timing = future.repro_timing
            assert timing["queue_ms"] >= 0
            assert timing["compute_ms"] > 0
            split = timing["queue_ms"] + timing["compute_ms"]
            assert split <= timing["total_ms"] + 1e-6
            # The server-side total lies inside the client-observed one.
            client_ms = (done_at[id(future)] - begin) * 1e3
            assert timing["total_ms"] <= client_ms + 0.5
            gaps.append(client_ms - split)
        # The split accounts for nearly all of the client's wall time.
        assert float(np.median(gaps)) < 50.0

    def test_results_bitwise_with_instrumentation_active(
        self, small_community, fork_numpy
    ):
        requests = [
            QueryRequest(seed=s % 40, k=8) if s % 3 else QueryRequest(seed=s)
            for s in range(30)
        ]
        serial = Engine(TPA(s_iteration=4, t_iteration=8), small_community)
        reference = serial.batch(requests)
        obs_trace.set_tracing(True)
        with Router(
            TPA(s_iteration=4, t_iteration=8), small_community,
            num_shards=2, max_batch=8, max_wait_ms=0.5,
        ) as router:
            results = router.batch(requests)
        for expected, actual in zip(reference, results):
            if expected.scores is not None:
                np.testing.assert_array_equal(expected.scores, actual.scores)
            else:
                np.testing.assert_array_equal(
                    expected.top_nodes, actual.top_nodes
                )
                np.testing.assert_array_equal(
                    expected.top_scores, actual.top_scores
                )


# -- cross-process tracing -----------------------------------------------------


class TestCrossProcessTracing:
    def test_connected_span_tree_over_four_shards(
        self, small_community, fork_numpy
    ):
        obs_trace.set_tracing(True)
        with Router(
            TPA(s_iteration=4, t_iteration=8), small_community,
            num_shards=4,
        ) as router:
            result = router.query(3, k=5)
        assert result.top_nodes.size == 5
        trace_ids = obs_trace.trace_ids()
        assert len(trace_ids) == 1
        (trace_id,) = trace_ids
        roots = obs_trace.span_tree(trace_id)
        assert len(roots) == 1, [
            s["name"] for s in obs_trace.spans(trace_id)
        ]
        shape = tree_names(roots[0])
        assert set(shape["request"]) == {"scheduler", "dispatch"}
        assert "sweep" in shape["dispatch"]
        assert "gather" in shape["dispatch"]
        assert "select" in shape["dispatch"]
        retained = obs_trace.spans(trace_id)
        worker_spans = [
            s for s in retained if s["name"] == "sweep_shard"
        ]
        assert {s["tags"]["shard"] for s in worker_spans} == {0, 1, 2, 3}
        assert all(
            s["tags"]["clock"] == "rebased" for s in worker_spans
        )
        # Every sweep_shard hangs under a sweep of the same trace.
        sweep_ids = {
            s["span_id"] for s in retained if s["name"] == "sweep"
        }
        assert all(s["parent_id"] in sweep_ids for s in worker_spans)
        # Worker pids differ from ours: genuinely cross-process.
        import os

        assert any(s["tags"]["pid"] != os.getpid() for s in worker_spans)

    def test_trace_survives_injected_respawn(
        self, small_community, fork_numpy, monkeypatch
    ):
        # Visit 1 is the construction-time warm probe; the kill lands on
        # the first traced sweep, whose bounded retry must show up as an
        # attempt=2 sweep under the *same* trace id.
        monkeypatch.setenv(
            faults.FAULTS_ENV_VAR, "kill_mid_sweep@2:scope=shard1,gen=0"
        )
        faults.reset_fault_plan()
        obs_trace.set_tracing(True)
        serial = Engine(TPA(s_iteration=4, t_iteration=8), small_community)
        reference = serial.query(5, k=8)
        with Router(
            TPA(s_iteration=4, t_iteration=8), small_community,
            num_shards=2,
        ) as router:
            result = router.query(5, k=8)
            shard_stats = router.stats()["shards"]
        np.testing.assert_array_equal(reference.top_nodes, result.top_nodes)
        assert shard_stats["respawns"] == 1
        (trace_id,) = obs_trace.trace_ids()
        attempts = {
            s["tags"]["attempt"]
            for s in obs_trace.spans(trace_id)
            if s["name"] == "sweep"
        }
        assert attempts == {1, 2}
        retried = [
            s for s in obs_trace.spans(trace_id)
            if s["name"] == "sweep" and s["tags"].get("outcome") == "retried"
        ]
        assert len(retried) >= 1
        # The respawn is visible in the registry too.
        families = obs_metrics.get_registry().families()
        assert families["repro_shard_respawns_total"].labels(
            shard="1"
        ).value == 1
        assert families["repro_sweep_retries_total"].value >= 1
        # Across the respawn the request is still one connected tree,
        # with worker spans shipped back over the pipe.
        (root,) = obs_trace.span_tree(trace_id)
        assert root["span"]["name"] == "request"
        workers = [
            s for s in obs_trace.spans(trace_id) if s["name"] == "sweep_shard"
        ]
        assert workers
        assert all(s["tags"]["clock"] == "rebased" for s in workers)

    def test_trace_consistent_across_republish(
        self, small_community, fork_numpy
    ):
        obs_trace.set_tracing(True)
        dynamic = DynamicGraph(small_community)
        with Router(
            TPA(s_iteration=4, t_iteration=8), dynamic, num_shards=2,
        ) as router:
            router.query(1, k=5)
            before = set(obs_trace.trace_ids())
            dynamic.add_edges([(0, 399), (399, 0)])
            dynamic.compact()
            # The first sweep after the compaction republishes the store
            # to the new epoch; the traced request riding it must still
            # produce one connected tree.
            router.query(1, k=5)
            shard_stats = router.stats()["shards"]
        after = [t for t in obs_trace.trace_ids() if t not in before]
        assert shard_stats["republishes"] >= 1
        assert len(after) == 1
        roots = obs_trace.span_tree(after[0])
        assert len(roots) == 1
        shape = tree_names(roots[0])
        assert "sweep" in shape["dispatch"]
        # The registry saw the republish too.
        families = obs_metrics.get_registry().families()
        assert families["repro_republishes_total"].value >= 1

    def test_concurrent_submissions_no_span_bleed(
        self, small_community, fork_numpy
    ):
        obs_trace.set_tracing(True)
        with Router(
            TPA(s_iteration=4, t_iteration=8), small_community,
            num_shards=2, max_batch=4, max_wait_ms=0.5,
        ) as router:
            seeds = list(range(8))
            futures: dict[int, object] = {}
            barrier = threading.Barrier(8)

            def submit(seed):
                barrier.wait()
                futures[seed] = router.submit(QueryRequest(seed=seed, k=5))

            threads = [
                threading.Thread(target=submit, args=(seed,))
                for seed in seeds
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            wait(list(futures.values()), timeout=120)
            for future in futures.values():
                future.result(1)
        trace_ids = obs_trace.trace_ids()
        assert len(trace_ids) == 8
        seen_seeds = []
        for trace_id in trace_ids:
            retained = obs_trace.spans(trace_id)
            roots = [
                s for s in retained
                if s["name"] == "request" and s["parent_id"] is None
            ]
            assert len(roots) == 1  # exactly one root per trace
            seen_seeds.append(roots[0]["tags"]["seed"])
            # No span of another trace is parented under this trace.
            ids = {s["span_id"] for s in retained}
            for span_dict in retained:
                parent = span_dict["parent_id"]
                assert parent is None or parent in ids or span_dict[
                    "name"
                ] in ("scheduler", "dispatch")
        assert sorted(seen_seeds) == seeds


# -- sampling / env knobs ------------------------------------------------------


class TestEnvKnobs:
    def test_trace_env(self, monkeypatch):
        monkeypatch.setenv(obs_trace.TRACE_ENV_VAR, "1")
        obs_trace.set_tracing(None)
        assert obs_trace.tracing_enabled()
        monkeypatch.setenv(obs_trace.TRACE_ENV_VAR, "off")
        obs_trace.set_tracing(None)
        assert not obs_trace.tracing_enabled()

    def test_sample_env(self, monkeypatch):
        monkeypatch.setenv(obs_trace.TRACE_SAMPLE_ENV_VAR, "0.0")
        obs_trace.set_trace_sample(None)
        obs_trace.set_tracing(True)
        assert obs_trace.new_trace_id() is None

    def test_metrics_env(self, monkeypatch):
        monkeypatch.setenv(obs_metrics.METRICS_ENV_VAR, "0")
        obs_metrics.set_metrics_enabled(None)
        assert not obs_metrics.metrics_enabled()
        counter = obs_metrics.get_registry().counter("repro_x_total")
        counter.inc()
        assert counter.value == 0
        monkeypatch.delenv(obs_metrics.METRICS_ENV_VAR)
        obs_metrics.set_metrics_enabled(None)
        assert obs_metrics.metrics_enabled()
