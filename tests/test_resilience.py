"""Tests for the resilience layer (repro.resilience) and its wiring.

The load-bearing guarantee extends the serving/sharding suites': under
injected chaos — worker kills before/mid/after a sweep, poisoned
batches, delayed and dropped replies, hung shutdowns, dead server
threads — every request either completes **bitwise identical** to an
undisturbed serial run or fails with a *typed* error
(:class:`DeadlineExceeded`, :class:`ServerOverloaded`,
:class:`WorkerFailure`).  Nothing hangs, no worker process leaks, and
no ``/dev/shm`` segment outlives its owner.

Fault injection is deterministic (seed/occurrence driven, see
:mod:`repro.resilience.faults`), so every chaos test here is exactly
reproducible — a flaky kill would be a flaky test.
"""

from __future__ import annotations

import os
import pickle
import signal
import time

import numpy as np
import pytest

from repro import community_graph, create_method, kernels
from repro.dynamic import DynamicGraph
from repro.engine import Engine, QueryRequest
from repro.exceptions import (
    DeadlineExceeded,
    ParameterError,
    ServerOverloaded,
    WorkerFailure,
)
from repro.obs import metrics as obs_metrics
from repro.resilience import faults, reaper
from repro.resilience.faults import FaultClause, FaultPlan
from repro.resilience.retry import RetryPolicy, call_with_retry, is_retryable
from repro.resilience.supervisor import (
    Supervisor,
    heartbeat_interval_ms,
    missed_beat_threshold,
)
from repro.serving import LatencyStats, Server
from repro.serving.scheduler import PendingRequest
from repro.serving.server import dispatch_batch
from repro.sharding import Router, ShardPlan, ShardedOperator


@pytest.fixture(autouse=True)
def clean_fault_state():
    """Every test leaves the process's fault plan as it found it: unset,
    re-reading the (restored) environment on the next ``fire``."""
    yield
    faults.reset_fault_plan()
    faults.set_scope("main", 0)


@pytest.fixture
def fork_numpy():
    """Force the NumPy backend so shard workers fork (fast startup) —
    the chaos scenarios exercise the protocol, not the kernels."""
    previous = kernels.get_backend()
    kernels.set_backend("numpy")
    yield "numpy"
    kernels.set_backend(previous)


@pytest.fixture(scope="module")
def chaos_graph():
    return community_graph(240, avg_degree=6, seed=11)


def inject(monkeypatch, spec: str) -> None:
    """Arm ``spec`` for this process *and* future worker processes."""
    monkeypatch.setenv(faults.FAULTS_ENV_VAR, spec)
    faults.reset_fault_plan()


def assert_store_released(names) -> None:
    """The store's segments are gone and nothing reapable remains."""
    for name in names:
        assert not os.path.exists("/dev/shm/" + name.lstrip("/")), name
    assert reaper.reap_orphan_segments() == []


def wait_until(predicate, timeout: float = 10.0, what: str = "condition"):
    deadline = time.perf_counter() + timeout
    while time.perf_counter() < deadline:
        if predicate():
            return
        time.sleep(0.01)
    pytest.fail(f"timed out waiting for {what}")


# -- fault spec parsing and firing ---------------------------------------------


class TestFaultSpec:
    def test_occurrence_forms(self):
        plan = FaultPlan.from_spec("a@3; b@3+; c@2-5; d")
        by_point = {clause.point: clause for clause in plan.clauses}
        assert (by_point["a"].first, by_point["a"].last) == (3, 3)
        assert (by_point["b"].first, by_point["b"].last) == (3, None)
        assert (by_point["c"].first, by_point["c"].last) == (2, 5)
        assert (by_point["d"].first, by_point["d"].last) == (1, None)

    def test_parameters(self):
        plan = FaultPlan.from_spec(
            "delay_reply@2:ms=50,scope=shard1,gen=2,p=0.5,seed=9"
        )
        (clause,) = plan.clauses
        assert clause == FaultClause(
            point="delay_reply",
            first=2,
            last=2,
            probability=0.5,
            seed=9,
            scope="shard1",
            generation=2,
            params=(("ms", "50"),),
        )
        assert clause.param_dict() == {"ms": "50"}

    @pytest.mark.parametrize(
        "spec",
        ["@2", "boom@x", "boom@1-x", "boom:ms50", "boom:p=maybe", "boom:gen=x"],
    )
    def test_bad_specs(self, spec):
        with pytest.raises(ParameterError):
            FaultPlan.from_spec(spec)

    def test_occurrence_window_fires(self):
        plan = FaultPlan.from_spec("p@2-3")
        outcomes = [plan.fire("p", "main", 0) for _ in range(4)]
        assert outcomes[0] is None and outcomes[3] is None
        assert outcomes[1]["visit"] == "2"
        assert outcomes[2]["visit"] == "3"

    def test_scope_filter(self):
        plan = FaultPlan.from_spec("kill:scope=shard1")
        assert plan.fire("kill", "main", 0) is None
        assert plan.fire("kill", "shard0", 0) is None
        assert plan.fire("kill", "shard1", 0) is not None

    def test_generation_filter(self):
        plan = FaultPlan.from_spec("kill:gen=0")
        assert plan.fire("kill", "shard1", 1) is None
        assert plan.fire("kill", "shard1", 0) is not None

    def test_probabilistic_firing_is_deterministic(self):
        spec = "flake:p=0.5,seed=3"
        first = FaultPlan.from_spec(spec)
        second = FaultPlan.from_spec(spec)
        pattern = [
            first.fire("flake", "main", 0) is not None for _ in range(32)
        ]
        assert pattern == [
            second.fire("flake", "main", 0) is not None for _ in range(32)
        ]
        assert 0 < sum(pattern) < 32  # actually probabilistic

    def test_module_fire_reads_environment(self, monkeypatch):
        inject(monkeypatch, "boom@2")
        assert faults.fire("boom") is None
        assert faults.fire("boom") is not None
        faults.set_fault_plan(None)  # disables even the env spec
        assert faults.fire("boom") is None

    def test_fire_delay_sleeps_ms_param(self):
        faults.set_fault_plan("slow@1:ms=20")
        begin = time.perf_counter()
        faults.fire_delay("slow")
        assert time.perf_counter() - begin >= 0.015
        begin = time.perf_counter()
        faults.fire_delay("slow")  # visit 2: no longer fires
        assert time.perf_counter() - begin < 0.015


# -- retry policy --------------------------------------------------------------


class TestRetry:
    def test_validation(self):
        with pytest.raises(ParameterError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ParameterError):
            RetryPolicy(backoff_ms=-1.0)
        with pytest.raises(ParameterError):
            RetryPolicy(jitter=-0.1)

    def test_delays_deterministic_and_bounded(self):
        policy = RetryPolicy(
            backoff_ms=10.0, multiplier=2.0, jitter=0.5,
            max_backoff_ms=35.0, seed=5,
        )
        first = [policy.delay_ms(i, policy.rng()) for i in range(4)]
        second = [policy.delay_ms(i, policy.rng()) for i in range(4)]
        assert first == second
        for attempt, delay in enumerate(first):
            base = min(10.0 * 2.0 ** attempt, 35.0)
            assert base <= delay <= base * 1.5

    def test_exact_delays_without_jitter(self):
        policy = RetryPolicy(backoff_ms=10.0, jitter=0.0, max_backoff_ms=25.0)
        rng = policy.rng()
        assert [policy.delay_ms(i, rng) for i in range(3)] == [10.0, 20.0, 25.0]

    def test_is_retryable(self):
        assert is_retryable(ServerOverloaded(8, 8))
        assert is_retryable(WorkerFailure(0, "died"))
        assert not is_retryable(DeadlineExceeded(5.0, 7.0))
        assert not is_retryable(ValueError("plain bug"))

    def test_succeeds_after_retryable_failures(self):
        failures = [ServerOverloaded(8, 8), ServerOverloaded(8, 8)]
        retried, slept = [], []

        def flaky():
            if failures:
                raise failures.pop()
            return 42

        result = call_with_retry(
            flaky,
            RetryPolicy(max_attempts=3, backoff_ms=1.0, jitter=0.0),
            on_retry=lambda error, delay_ms: retried.append(delay_ms),
            sleep=slept.append,
        )
        assert result == 42
        assert retried == [1.0, 2.0]
        assert slept == [0.001, 0.002]

    def test_non_retryable_propagates_immediately(self):
        calls = []

        def broken():
            calls.append(1)
            raise ParameterError("nope")

        with pytest.raises(ParameterError):
            call_with_retry(broken, RetryPolicy(max_attempts=5), sleep=lambda s: None)
        assert len(calls) == 1

    def test_exhaustion_raises_last_failure(self):
        calls = []

        def always():
            calls.append(1)
            raise WorkerFailure(1, "died")

        with pytest.raises(WorkerFailure):
            call_with_retry(
                always,
                RetryPolicy(max_attempts=3, backoff_ms=0.0, jitter=0.0),
                sleep=lambda s: None,
            )
        assert len(calls) == 3


# -- typed failures ------------------------------------------------------------


class TestTypedFailures:
    def test_deadline_exceeded_fields_and_pickle(self):
        error = DeadlineExceeded(5.0, 7.25)
        clone = pickle.loads(pickle.dumps(error))
        assert (clone.deadline_ms, clone.waited_ms) == (5.0, 7.25)
        assert error.retryable is False

    def test_worker_failure_fields_and_pickle(self):
        error = WorkerFailure(2, "timeout", "no reply")
        clone = pickle.loads(pickle.dumps(error))
        assert (clone.shard, clone.kind, clone.detail) == (2, "timeout", "no reply")
        assert isinstance(error, RuntimeError)  # pre-resilience contract
        assert error.retryable is True


# -- orphan segment reaper -----------------------------------------------------


def _dead_pid() -> int:
    pid = 299_999
    while reaper.pid_alive(pid):  # pragma: no cover - crowded pid space
        pid -= 1
    return pid


class TestReaper:
    def test_owned_name_roundtrip(self):
        name = reaper.owned_segment_name()
        assert reaper.owner_pid(name) == os.getpid()
        assert reaper.owner_pid("psm_deadbeef") is None
        assert reaper.owner_pid("repro-shm-12-notahex!") is None

    def test_reaps_only_dead_owners(self, tmp_path):
        dead = tmp_path / f"repro-shm-{_dead_pid()}-abc123"
        alive = tmp_path / f"repro-shm-{os.getpid()}-abc123"
        foreign = tmp_path / "psm_someone_elses"
        for path in (dead, alive, foreign):
            path.write_bytes(b"x")
        reaped = reaper.reap_orphan_segments(str(tmp_path))
        assert reaped == [dead.name]
        assert not dead.exists()
        assert alive.exists() and foreign.exists()

    def test_missing_directory_is_noop(self):
        assert reaper.reap_orphan_segments("/no/such/dir") == []


# -- the generic supervisor ----------------------------------------------------


class TestSupervisor:
    def test_probe_repair_counters(self):
        broken, repaired = [7], []

        def repair(identity):
            repaired.append(identity)
            broken.clear()

        supervisor = Supervisor(lambda: list(broken), repair, interval_ms=10)
        try:
            wait_until(lambda: repaired, what="repair")
        finally:
            supervisor.close()
        stats = supervisor.stats()
        assert repaired == [7]
        assert stats["probes"] >= 1
        assert stats["detected"] >= 1
        assert stats["repairs"] >= 1
        assert stats["repair_failures"] == 0

    def test_failed_repair_counted_and_loop_survives(self):
        attempts = []

        def repair(identity):
            attempts.append(identity)
            if len(attempts) == 1:
                raise RuntimeError("injected repair failure")

        supervisor = Supervisor(lambda: [0], repair, interval_ms=10)
        try:
            wait_until(lambda: len(attempts) >= 2, what="second repair")
        finally:
            supervisor.close()
        stats = supervisor.stats()
        assert stats["repair_failures"] >= 1
        assert stats["repairs"] >= 1

    def test_close_is_idempotent(self):
        supervisor = Supervisor(lambda: (), lambda i: None, interval_ms=10)
        supervisor.close()
        supervisor.close()
        assert supervisor.closed

    def test_env_knobs(self, monkeypatch):
        monkeypatch.setenv("REPRO_HEARTBEAT_MS", "25")
        monkeypatch.setenv("REPRO_HEARTBEAT_MISSES", "2")
        assert heartbeat_interval_ms() == 25.0
        assert missed_beat_threshold() == 2
        monkeypatch.setenv("REPRO_HEARTBEAT_MS", "-5")  # floored
        monkeypatch.setenv("REPRO_HEARTBEAT_MISSES", "0")
        assert heartbeat_interval_ms() == 10.0
        assert missed_beat_threshold() == 1
        monkeypatch.setenv("REPRO_HEARTBEAT_MS", "junk")  # defaulted
        assert heartbeat_interval_ms() == 1000.0


# -- deadlines -----------------------------------------------------------------


class TestDeadlines:
    def test_expired_requests_fail_fast_typed(self, chaos_graph):
        engine = Engine(
            create_method("tpa", s_iteration=4, t_iteration=8), chaos_graph
        )
        metrics = LatencyStats()
        now = time.perf_counter()
        expired = PendingRequest(
            request=QueryRequest(seed=0, k=5, deadline_ms=1.0),
            submitted_at=now - 0.1,
            deadline_at=now - 0.099,
        )
        live = PendingRequest(
            request=QueryRequest(seed=1, k=5), submitted_at=now
        )
        dispatch_batch(engine, metrics, [expired, live])
        with pytest.raises(DeadlineExceeded) as excinfo:
            expired.future.result(timeout=0)
        assert excinfo.value.deadline_ms == 1.0
        assert excinfo.value.waited_ms >= 0.0
        # The batch that started in time still completes, bitwise equal
        # to a serial run of the same request.
        (expected,) = engine.batch([live.request])
        result = live.future.result(timeout=0)
        np.testing.assert_array_equal(expected.top_nodes, result.top_nodes)
        assert metrics.snapshot()["deadlines_exceeded"] == 1

    def test_server_enforces_request_deadline(self, chaos_graph):
        method = create_method("tpa", s_iteration=4, t_iteration=8)
        with Server(method, chaos_graph, workers=1, supervise=False) as server:
            future = server.submit(
                QueryRequest(seed=0, k=5, deadline_ms=0.0)
            )
            with pytest.raises(DeadlineExceeded):
                future.result(timeout=10)
            assert server.stats()["deadlines_exceeded"] >= 1
            # Undeadlined traffic is unaffected.
            assert server.query(1, k=5).top_nodes is not None


# -- dispatch retry ------------------------------------------------------------


class _FlakyEngine:
    """Engine stand-in whose first ``failures`` batches die retryably."""

    def __init__(self, engine, failures: int):
        self._engine = engine
        self._failures = failures

    def batch(self, requests):
        if self._failures > 0:
            self._failures -= 1
            raise WorkerFailure(0, "died", "injected")
        return self._engine.batch(requests)


class TestDispatchRetry:
    def test_retryable_batch_failures_are_absorbed(self, chaos_graph):
        engine = Engine(
            create_method("tpa", s_iteration=4, t_iteration=8), chaos_graph
        )
        metrics = LatencyStats()
        pending = PendingRequest(
            request=QueryRequest(seed=0, k=5),
            submitted_at=time.perf_counter(),
        )
        dispatch_batch(
            _FlakyEngine(engine, failures=2),
            metrics,
            [pending],
            retry=RetryPolicy(max_attempts=3, backoff_ms=0.0, jitter=0.0),
        )
        (expected,) = engine.batch([pending.request])
        result = pending.future.result(timeout=0)
        np.testing.assert_array_equal(expected.top_nodes, result.top_nodes)
        snapshot = metrics.snapshot()
        assert snapshot["retries"] == 2
        assert snapshot["failures"] == 0

    def test_exhausted_retries_fail_every_future(self, chaos_graph):
        engine = Engine(
            create_method("tpa", s_iteration=4, t_iteration=8), chaos_graph
        )
        metrics = LatencyStats()
        batch = [
            PendingRequest(
                request=QueryRequest(seed=seed, k=5),
                submitted_at=time.perf_counter(),
            )
            for seed in range(3)
        ]
        dispatch_batch(
            _FlakyEngine(engine, failures=99),
            metrics,
            batch,
            retry=RetryPolicy(max_attempts=2, backoff_ms=0.0, jitter=0.0),
        )
        for pending in batch:
            with pytest.raises(WorkerFailure):
                pending.future.result(timeout=0)
        snapshot = metrics.snapshot()
        assert snapshot["failures"] == 3
        assert snapshot["retries"] == 1


# -- server thread supervision -------------------------------------------------


class TestServerSupervision:
    def test_crashed_worker_thread_is_revived(self, chaos_graph):
        # A Router is a Server with one worker thread: its worker is
        # supervised and revived the same way.
        for front, options in ((Server, {"workers": 2}), (Router, {})):
            faults.set_fault_plan("server_worker_crash@1")
            method = create_method("tpa", s_iteration=4, t_iteration=8)
            with front(
                method, chaos_graph, heartbeat_ms=20, **options
            ) as server:
                wait_until(
                    lambda: server.stats()["respawns"] >= 1,
                    what=f"{front.__name__} thread revival",
                )
                faults.set_fault_plan(None)
                # The revived pool still serves, identically to a serial
                # run.
                (expected,) = server.engine.batch(
                    [QueryRequest(seed=3, k=5)]
                )
                result = server.query(3, k=5)
                np.testing.assert_array_equal(
                    expected.top_nodes, result.top_nodes
                )


# -- sharded chaos: the operator under injected process faults -----------------


def _operator(graph, **kwargs) -> ShardedOperator:
    kwargs.setdefault("supervise", False)
    return ShardedOperator(
        graph, ShardPlan.uniform(graph.num_nodes, 2), **kwargs
    )


def _panel(graph) -> np.ndarray:
    rng = np.random.default_rng(17)
    x = rng.random((graph.num_nodes, 3))
    return x / x.sum(axis=0)


class TestShardChaos:
    """Injected process faults against the live sweep protocol.

    Every scenario asserts the full contract: the propagate result is
    bitwise identical to the undisturbed in-process operator, the
    failure was recovered the intended way (respawn vs in-place retry),
    and close() releases every shared-memory segment.
    """

    @pytest.mark.parametrize(
        "point", ["kill_before_sweep", "kill_mid_sweep"]
    )
    def test_kill_during_sweep_recovers_bitwise(
        self, chaos_graph, fork_numpy, monkeypatch, point
    ):
        # Visit 1 is the construction-time warm probe; the kill lands on
        # the first real sweep.  gen=0 keeps the respawned worker (whose
        # visit counter restarts) from being re-killed.
        inject(monkeypatch, f"{point}@2:scope=shard1,gen=0")
        x = _panel(chaos_graph)
        expected = chaos_graph.propagate(x)
        operator = _operator(chaos_graph)
        names = list(operator._store.segment_names)
        try:
            np.testing.assert_array_equal(operator.propagate(x), expected)
            stats = operator.shard_stats()
            assert stats["respawns"] == 1
            assert stats["sweep_retries"] >= 1
            assert stats["generations"] == [0, 1]
            # The deployment keeps serving on the replacement worker.
            np.testing.assert_array_equal(operator.propagate(x), expected)
        finally:
            operator.close()
        assert_store_released(names)

    def test_kill_after_sweep_detected_on_next(
        self, chaos_graph, fork_numpy, monkeypatch
    ):
        inject(monkeypatch, "kill_after_sweep@2:scope=shard0,gen=0")
        x = _panel(chaos_graph)
        expected = chaos_graph.propagate(x)
        operator = _operator(chaos_graph)
        names = list(operator._store.segment_names)
        try:
            # The killed worker replied first, so this sweep is clean...
            np.testing.assert_array_equal(operator.propagate(x), expected)
            # ...and the next one finds the corpse and respawns inline.
            np.testing.assert_array_equal(operator.propagate(x), expected)
            assert operator.shard_stats()["respawns"] == 1
        finally:
            operator.close()
        assert_store_released(names)

    def test_slow_reply_within_timeout_tolerated(
        self, chaos_graph, fork_numpy, monkeypatch
    ):
        inject(monkeypatch, "delay_reply@2:ms=40,scope=shard1")
        x = _panel(chaos_graph)
        expected = chaos_graph.propagate(x)
        operator = _operator(chaos_graph)
        names = list(operator._store.segment_names)
        try:
            np.testing.assert_array_equal(operator.propagate(x), expected)
            assert operator.shard_stats()["respawns"] == 0
        finally:
            operator.close()
        assert_store_released(names)

    def test_hung_worker_times_out_and_respawns(
        self, chaos_graph, fork_numpy, monkeypatch
    ):
        inject(monkeypatch, "delay_reply@2:ms=30000,scope=shard1,gen=0")
        x = _panel(chaos_graph)
        expected = chaos_graph.propagate(x)
        operator = _operator(chaos_graph, step_timeout=0.5)
        names = list(operator._store.segment_names)
        try:
            np.testing.assert_array_equal(operator.propagate(x), expected)
            stats = operator.shard_stats()
            assert stats["respawns"] == 1
            assert stats["generations"] == [0, 1]
        finally:
            operator.close()
        assert_store_released(names)

    def test_poisoned_batch_retries_without_respawn(
        self, chaos_graph, fork_numpy, monkeypatch
    ):
        inject(monkeypatch, "poison_batch@2:scope=shard0")
        x = _panel(chaos_graph)
        expected = chaos_graph.propagate(x)
        operator = _operator(chaos_graph)
        names = list(operator._store.segment_names)
        try:
            np.testing.assert_array_equal(operator.propagate(x), expected)
            stats = operator.shard_stats()
            # An "error" reply means the process is healthy: the sweep
            # retried in place, no respawn.
            assert stats["respawns"] == 0
            assert stats["sweep_retries"] == 1
        finally:
            operator.close()
        assert_store_released(names)

    def test_persistent_poison_raises_typed_after_bounded_retries(
        self, chaos_graph, fork_numpy, monkeypatch
    ):
        inject(monkeypatch, "poison_batch@2+:scope=shard0")
        operator = _operator(chaos_graph)
        names = list(operator._store.segment_names)
        try:
            with pytest.raises(WorkerFailure) as excinfo:
                operator.propagate(_panel(chaos_graph))
            assert excinfo.value.kind == "error"
        finally:
            operator.close()
        assert_store_released(names)

    def test_supervisor_respawns_idle_death(
        self, chaos_graph, fork_numpy
    ):
        x = _panel(chaos_graph)
        expected = chaos_graph.propagate(x)
        operator = _operator(chaos_graph, supervise=True, heartbeat_ms=25)
        names = list(operator._store.segment_names)
        try:
            os.kill(operator.workers()[1].pid, signal.SIGKILL)
            # No sweep is running: only the heartbeat can notice.
            wait_until(
                lambda: operator.shard_stats()["respawns"] >= 1,
                what="supervisor respawn",
            )
            np.testing.assert_array_equal(operator.propagate(x), expected)
            supervisor = operator.shard_stats()["supervisor"]
            assert supervisor["repairs"] >= 1
        finally:
            operator.close()
        assert_store_released(names)

    def test_hang_on_stop_escalates_to_kill(
        self, chaos_graph, fork_numpy, monkeypatch
    ):
        inject(monkeypatch, "hang_on_stop:scope=shard0,seconds=30")
        operator = _operator(chaos_graph)
        names = list(operator._store.segment_names)
        worker = operator.workers()[0]
        begin = time.perf_counter()
        worker.stop(timeout=0.3)
        # stop → (ignored) SIGTERM → SIGKILL, well under the 30 s hang.
        assert time.perf_counter() - begin < 10.0
        assert not worker.alive
        operator.close()
        assert_store_released(names)

    def test_dropped_remap_ack_respawns_onto_new_store(
        self, chaos_graph, fork_numpy, monkeypatch
    ):
        inject(monkeypatch, "drop_remap_ack@1:scope=shard1,gen=0")
        dynamic = DynamicGraph(chaos_graph)
        operator = ShardedOperator(
            dynamic,
            ShardPlan.uniform(dynamic.num_nodes, 2),
            supervise=False,
            step_timeout=1.0,
        )
        old_names = list(operator._store.segment_names)
        new_names: list = []
        try:
            assert dynamic.add_edges([(0, 50), (3, 97), (120, 7)]) > 0
            dynamic.compact()
            x = _panel(dynamic)
            expected = dynamic.propagate(x)
            # The republish remap loses shard 1's ack; recovery respawns
            # it bound directly to the republished store.
            np.testing.assert_array_equal(operator.propagate(x), expected)
            stats = operator.shard_stats()
            assert stats["respawns"] == 1
            assert stats["republishes"] == 1
            new_names = list(operator._store.segment_names)
            assert new_names != old_names
        finally:
            operator.close()
        assert_store_released(old_names)
        assert_store_released(new_names)


# -- end to end: Router under chaos --------------------------------------------

#: Registry counters a worker kill mid-sweep must raise.
_RESPAWN_FAMILIES = ("repro_shard_respawns_total", "repro_sweep_retries_total")


def _registry_totals() -> dict[str, float]:
    """Each respawn family's value summed over its label sets."""
    families = obs_metrics.get_registry().families()
    return {
        name: sum(
            child.value for child in families[name].children().values()
        ) if name in families else 0.0
        for name in _RESPAWN_FAMILIES
    }


class TestRouterChaos:
    def test_worker_kill_mid_batch_bitwise_and_counted(
        self, chaos_graph, monkeypatch
    ):
        # CPI drives a real multi-iteration sweep per batch through the
        # shard workers (TPA's online phase answers small graphs from
        # the in-memory CSR without touching the operator).  warm=False
        # so the kill's visit window lands inside client traffic.
        inject(monkeypatch, "kill_mid_sweep@5:scope=shard1,gen=0")
        requests = [
            QueryRequest(seed=seed, k=8) if seed % 3 else QueryRequest(seed=seed)
            for seed in range(12)
        ]
        reference = Engine(create_method("cpi"), chaos_graph).batch(requests)
        router = Router(
            create_method("cpi"),
            chaos_graph,
            num_shards=2,
            max_batch=16,
            warm=False,
            step_timeout=60.0,
        )
        names = list(router.engine.shards._store.segment_names)
        before = _registry_totals()
        try:
            results = router.batch(requests, timeout=120)
            for expected, actual in zip(reference, results):
                if expected.scores is not None:
                    np.testing.assert_array_equal(
                        expected.scores, actual.scores
                    )
                else:
                    np.testing.assert_array_equal(
                        expected.top_nodes, actual.top_nodes
                    )
                    np.testing.assert_array_equal(
                        expected.top_scores, actual.top_scores
                    )
            stats = router.stats()
            assert stats["respawns"] >= 1
            assert stats["failures"] == 0
            assert stats["shards"]["generations"][1] >= 1
            # The kill is visible in the metrics registry as well.
            after = _registry_totals()
            for name in _RESPAWN_FAMILIES:
                assert after[name] >= before[name] + 1, name
        finally:
            router.close()
        assert_store_released(names)
