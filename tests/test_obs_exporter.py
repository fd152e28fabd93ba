"""Tests for the operational surface: the live HTTP exporter, the
cross-process sampling profiler, and structured logging.

The load-bearing guarantees:

* **Scrape correctness under fire** — eight threads hammering
  ``/metrics`` and ``/snapshot`` during a fault-injected (worker-kill +
  respawn) shard bench get strictly parseable exposition on every
  response, counters stay monotonic, and the respawn shows up.
* **Leave nothing behind** — ``close()`` joins the listener thread and
  releases the port, the same contract the shm store gives /dev/shm.
* **Cross-process profiles** — a profiled sharded run merges samples
  from the router *and* every worker pid, shipped on step replies.
"""

from __future__ import annotations

import io
import json
import logging
import os
import signal
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.engine import Engine, QueryRequest
from repro.core.tpa import TPA
from repro.obs import exporter as obs_exporter
from repro.obs import logs as obs_logs
from repro.obs import metrics as obs_metrics
from repro.obs import profile as obs_profile
from repro.obs import trace as obs_trace
from repro.obs.exporter import EXPORTER_THREAD_NAME, ObsExporter, start_exporter
from repro.resilience import faults
from repro.serving import Server
from repro.sharding import Router


@pytest.fixture(autouse=True)
def clean_obs_state(monkeypatch):
    """Fresh registry/spans/profiler, no obs env leakage, and whatever
    env exporter singleton a test created is torn down after it."""
    monkeypatch.delenv(obs_exporter.OBS_PORT_ENV_VAR, raising=False)
    monkeypatch.delenv(obs_profile.PROFILE_ENV_VAR, raising=False)
    monkeypatch.delenv(obs_profile.PROFILE_HZ_ENV_VAR, raising=False)
    monkeypatch.delenv(obs_logs.LOG_ENV_VAR, raising=False)
    obs_metrics.get_registry().reset()
    obs_metrics.set_metrics_enabled(None)
    obs_trace.clear_spans()
    obs_trace.set_tracing(None)
    obs_profile.reset()
    obs_profile.set_profiling(None)
    obs_profile.set_profile_hz(None)
    yield
    obs_profile.reset()
    obs_profile.set_profiling(None)
    obs_profile.set_profile_hz(None)
    obs_metrics.get_registry().reset()
    obs_metrics.set_metrics_enabled(None)
    obs_trace.clear_spans()
    obs_trace.set_tracing(None)
    with obs_exporter._env_lock:
        if obs_exporter._env_exporter is not None:
            obs_exporter._env_exporter.close()
            obs_exporter._env_exporter = None
    obs_logs.logging_setup(force=True)


@pytest.fixture(autouse=True)
def clean_fault_state(monkeypatch):
    monkeypatch.delenv(faults.FAULTS_ENV_VAR, raising=False)
    faults.reset_fault_plan()
    yield
    faults.reset_fault_plan()
    faults.set_scope("main", 0)


def get(url: str, timeout: float = 10.0):
    """(status, body-bytes) without raising on 4xx/5xx."""
    try:
        with urllib.request.urlopen(url, timeout=timeout) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as error:
        return error.code, error.read()


def exporter_threads() -> list[threading.Thread]:
    return [
        thread for thread in threading.enumerate()
        if thread.name == EXPORTER_THREAD_NAME
    ]


def assert_port_released(port: int) -> None:
    probe = socket.socket()
    probe.settimeout(1.0)
    try:
        with pytest.raises(OSError):
            probe.connect(("127.0.0.1", port))
    finally:
        probe.close()


# -- exporter unit behaviour ---------------------------------------------------


class TestObsExporter:
    def test_metrics_endpoint_parses_strictly(self):
        obs_metrics.get_registry().counter(
            "repro_test_total", "help me").inc(3)
        with ObsExporter(0) as exporter:
            status, body = get(exporter.url("/metrics"))
        assert status == 200
        families = obs_metrics.parse_prometheus_text(body.decode())
        assert families["repro_test_total"]["samples"][0][2] == 3.0

    def test_snapshot_endpoint_is_schema_stamped_json(self):
        with ObsExporter(0) as exporter:
            status, body = get(exporter.url("/snapshot"))
        assert status == 200
        assert json.loads(body)["schema"] == obs_metrics.METRICS_SCHEMA

    def test_traces_endpoint_serves_trace_schema(self):
        with ObsExporter(0) as exporter:
            status, body = get(exporter.url("/traces"))
        assert status == 200
        assert json.loads(body)["schema"] == obs_trace.TRACE_SCHEMA

    def test_profile_endpoint_serves_profile_schema(self):
        with ObsExporter(0) as exporter:
            status, body = get(exporter.url("/profile"))
        assert status == 200
        assert json.loads(body)["schema"] == obs_profile.PROFILE_SCHEMA

    def test_unknown_path_404_lists_endpoints(self):
        with ObsExporter(0) as exporter:
            status, body = get(exporter.url("/nope"))
        assert status == 404
        assert "/metrics" in json.loads(body)["paths"]

    def test_health_follows_registered_checks(self):
        with ObsExporter(0) as exporter:
            status, body = get(exporter.url("/health"))
            assert status == 200
            assert json.loads(body)["ready"] is True
            exporter.add_check("down", lambda: {"ready": False, "why": "x"})
            status, body = get(exporter.url("/health"))
            assert status == 503
            document = json.loads(body)
            assert document["ready"] is False
            assert document["checks"]["down"]["why"] == "x"
            exporter.remove_check("down")
            status, _ = get(exporter.url("/health"))
            assert status == 200

    def test_raising_check_means_unready_not_500(self):
        def broken():
            raise RuntimeError("too broken to introspect")

        with ObsExporter(0) as exporter:
            exporter.add_check("broken", broken)
            status, body = get(exporter.url("/health"))
        assert status == 503
        assert "RuntimeError" in json.loads(body)["checks"]["broken"]["error"]

    def test_collectors_refresh_before_scrape(self):
        gauge = obs_metrics.get_registry().gauge("repro_fresh", "scrape-time")
        calls = []
        with ObsExporter(0) as exporter:
            exporter.add_collector(
                "fresh", lambda: (calls.append(1), gauge.set(len(calls)))
            )
            _, body = get(exporter.url("/metrics"))
            families = obs_metrics.parse_prometheus_text(body.decode())
            assert families["repro_fresh"]["samples"][0][2] == 1.0
            _, body = get(exporter.url("/snapshot"))
            assert len(calls) == 2

    def test_close_releases_thread_and_port(self):
        exporter = ObsExporter(0)
        port = exporter.port
        assert exporter_threads()
        exporter.close()
        exporter.close()  # idempotent
        assert exporter.closed
        assert not exporter_threads()
        assert_port_released(port)

    def test_start_exporter_env_unset_is_none(self):
        assert start_exporter(None) == (None, False)

    def test_start_exporter_env_is_process_singleton(self, monkeypatch):
        monkeypatch.setenv(obs_exporter.OBS_PORT_ENV_VAR, "0")
        first, owned_first = start_exporter(None)
        second, owned_second = start_exporter(None)
        assert first is second
        assert (owned_first, owned_second) == (False, False)

    def test_start_exporter_explicit_port_is_owned(self):
        exporter, owned = start_exporter(0)
        try:
            assert owned is True
        finally:
            exporter.close()


# -- deployment wiring ---------------------------------------------------------


class TestDeploymentExporters:
    def test_engine_obs_port_serves_and_closes(self, small_community):
        engine = Engine(TPA(s_iteration=3, t_iteration=6), small_community,
                        obs_port=0)
        try:
            engine.query(0, k=5)
            status, _ = get(engine.exporter.url("/health"))
            assert status == 200
            _, body = get(engine.exporter.url("/metrics"))
            obs_metrics.parse_prometheus_text(body.decode())
            port = engine.exporter.port
        finally:
            engine.close()
        assert engine.exporter is None
        assert_port_released(port)

    def test_server_health_reflects_thread_liveness(self, small_community):
        with Server(TPA(s_iteration=3, t_iteration=6), small_community,
                    workers=2, supervise=False, obs_port=0) as server:
            status, body = get(server.exporter.url("/health"))
            assert status == 200
            detail = json.loads(body)["checks"][server._obs_name]
            assert detail["workers_alive"] == 2

    def test_env_port_shares_one_listener_across_deployments(
        self, small_community, monkeypatch
    ):
        monkeypatch.setenv(obs_exporter.OBS_PORT_ENV_VAR, "0")
        method = TPA(s_iteration=3, t_iteration=6)
        with Server(method, small_community, workers=1,
                    supervise=False) as server:
            engine = Engine(TPA(s_iteration=3, t_iteration=6),
                            small_community)
            try:
                assert engine.exporter is server.exporter
                status, body = get(server.exporter.url("/health"))
                assert status == 200
                checks = json.loads(body)["checks"]
                assert server._obs_name in checks
                assert engine._obs_name in checks
            finally:
                engine.close()
            # The engine's departure removed only its own check.
            _, body = get(server.exporter.url("/health"))
            assert engine._obs_name not in json.loads(body)["checks"]
        # close() never shuts the shared env listener down.
        assert exporter_threads()

    def test_router_serves_all_endpoints_under_load(
        self, small_community
    ):
        with Router(TPA(s_iteration=3, t_iteration=6), small_community,
                    num_shards=4, supervise=False,
                    obs_port=0) as router:
            stop = threading.Event()

            def client():
                while not stop.is_set():
                    router.batch(
                        [QueryRequest(seed=s, k=5) for s in range(8)]
                    )

            thread = threading.Thread(target=client, daemon=True)
            thread.start()
            try:
                for path in ("/metrics", "/health", "/snapshot", "/traces"):
                    status, body = get(router.exporter.url(path))
                    assert status == 200, path
                    assert body
                _, body = get(router.exporter.url("/metrics"))
                families = obs_metrics.parse_prometheus_text(body.decode())
                assert "repro_shard_workers_alive" in families
                assert "repro_shard_generation" in families
            finally:
                stop.set()
                thread.join(timeout=30)
            port = router.exporter.port
        assert not exporter_threads()
        assert_port_released(port)

    def test_worker_counters_fold_into_router_registry(
        self, small_community
    ):
        # Batches wide enough that the online phase leaves the sparse
        # gather fast path and actually sweeps through the workers.
        with Router(TPA(s_iteration=6, t_iteration=12), small_community,
                    num_shards=2, supervise=False) as router:
            for _ in range(2):
                router.batch([QueryRequest(seed=s, k=5) for s in range(16)])
            families = obs_metrics.get_registry().families()
        steps = families["repro_worker_steps_total"]
        shards_seen = {key[0] for key in steps.children()}
        assert shards_seen == {"0", "1"}
        assert all(
            child.value > 0 for child in steps.children().values()
        )
        assert "repro_worker_step_seconds_total" in families

    def test_health_503_while_worker_down_then_recovers(
        self, small_community
    ):
        with Router(TPA(s_iteration=6, t_iteration=12), small_community,
                    num_shards=2, supervise=False,
                    obs_port=0) as router:
            url = router.exporter.url("/health")
            status, _ = get(url)
            assert status == 200
            victim = router.engine.shards.workers()[0]
            os.kill(victim.pid, signal.SIGKILL)
            deadline = time.perf_counter() + 10.0
            while victim.alive and time.perf_counter() < deadline:
                time.sleep(0.01)
            status, body = get(url)
            assert status == 503
            document = json.loads(body)
            assert document["ready"] is False
            # The next sweeping batch's in-sweep recovery (pipe EOF ->
            # bounded retry) respawns the worker.
            router.batch([QueryRequest(seed=s, k=5) for s in range(16)])
            status, _ = get(url)
            assert status == 200
            assert router.engine.shards.shard_stats()["respawns"] == 1

    def test_scrape_hammer_during_fault_injected_bench(
        self, small_community, monkeypatch
    ):
        """Eight scrape threads against a router whose shard worker is
        killed mid-sweep: every response parses strictly, counters never
        move backwards, the respawn is visible, close leaves nothing."""
        monkeypatch.setenv(faults.FAULTS_ENV_VAR, "kill_mid_sweep@2:scope=shard1,gen=0")
        faults.reset_fault_plan()
        with Router(TPA(s_iteration=6, t_iteration=12), small_community,
                    num_shards=2, supervise=False,
                    obs_port=0) as router:
            metrics_url = router.exporter.url("/metrics")
            snapshot_url = router.exporter.url("/snapshot")
            stop = threading.Event()
            errors: list[str] = []

            def scraper(index: int) -> None:
                url = metrics_url if index % 2 == 0 else snapshot_url
                # Monotonicity is checked within this thread's own
                # ordered scrape sequence — responses from different
                # threads are sampled at uncomparable instants.
                floor: dict[tuple, float] = {}
                while not stop.is_set():
                    try:
                        status, body = get(url)
                        if status != 200:
                            errors.append(f"status {status} on {url}")
                            continue
                        if url is metrics_url:
                            families = obs_metrics.parse_prometheus_text(
                                body.decode()
                            )
                            for name, family in families.items():
                                if family["type"] != "counter":
                                    continue
                                for sample in family["samples"]:
                                    key = (name, sample[0],
                                           tuple(sorted(sample[1].items())))
                                    value = sample[2]
                                    if value < floor.get(key, 0.0):
                                        errors.append(
                                            f"{key} went "
                                            f"{floor[key]} -> {value}"
                                        )
                                    else:
                                        floor[key] = value
                        else:
                            document = json.loads(body)
                            if document["schema"] != obs_metrics.METRICS_SCHEMA:
                                errors.append("bad snapshot schema")
                    except Exception as error:  # noqa: BLE001
                        errors.append(repr(error))

            threads = [
                threading.Thread(target=scraper, args=(i,), daemon=True)
                for i in range(8)
            ]
            for thread in threads:
                thread.start()
            try:
                for round_index in range(6):
                    router.batch(
                        [QueryRequest(seed=s, k=5) for s in range(16)]
                    )
            finally:
                stop.set()
                for thread in threads:
                    thread.join(timeout=30)
            assert errors == []
            assert router.engine.shards.shard_stats()["respawns"] >= 1
            _, body = get(metrics_url)
            families = obs_metrics.parse_prometheus_text(body.decode())
            assert "repro_shard_respawns_total" in families
            port = router.exporter.port
        assert not exporter_threads()
        assert_port_released(port)


# -- the sampling profiler -----------------------------------------------------


def spin(seconds: float) -> None:
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        sum(range(500))


class TestProfiler:
    def test_disabled_by_default_and_arm_is_noop(self):
        assert obs_profile.profiling_enabled() is False
        assert obs_profile.arm() is False
        assert obs_profile.running() is False

    def test_samples_local_stacks(self):
        obs_profile.set_profiling(True)
        obs_profile.set_profile_hz(500)
        assert obs_profile.arm() is True
        spin(0.2)
        obs_profile.stop()
        assert obs_profile.running() is False
        collapsed = obs_profile.collapsed()
        assert collapsed
        assert obs_profile.pids() == [os.getpid()]
        snapshot = obs_profile.profile_snapshot()
        assert snapshot["schema"] == obs_profile.PROFILE_SCHEMA
        assert snapshot["samples"] == sum(
            count
            for line in collapsed.splitlines()
            for count in [int(line.rsplit(" ", 1)[1])]
        )
        # Every stack is rooted at this process's pid frame.
        assert all(
            line.startswith(f"pid:{os.getpid()};")
            for line in collapsed.splitlines()
        )

    def test_hz_env_and_clamp(self, monkeypatch):
        monkeypatch.setenv(obs_profile.PROFILE_HZ_ENV_VAR, "250")
        obs_profile.set_profile_hz(None)
        assert obs_profile.sample_hz() == 250.0
        with pytest.raises(ValueError):
            obs_profile.set_profile_hz(0)
        obs_profile.set_profile_hz(1e9)
        assert obs_profile.sample_hz() == 2000.0

    def test_ingest_merges_and_rejects_junk(self):
        obs_profile.ingest({"pid:1;a:b": 2, "pid:1;c:d": "3"})
        obs_profile.ingest({"pid:1;a:b": 1, "junk": -5, "bad": "x"})
        samples = obs_profile.folded_samples()
        assert samples["pid:1;a:b"] == 3
        assert samples["pid:1;c:d"] == 3
        assert "junk" not in samples and "bad" not in samples

    def test_profiled_shard_run_spans_multiple_pids(
        self, small_community, monkeypatch
    ):
        monkeypatch.setenv(obs_profile.PROFILE_ENV_VAR, "1")
        monkeypatch.setenv(obs_profile.PROFILE_HZ_ENV_VAR, "500")
        obs_profile.set_profiling(None)
        with Router(TPA(s_iteration=8, t_iteration=16), small_community,
                    num_shards=2, supervise=False) as router:
            worker_pids = {
                worker.pid for worker in router.engine.shards.workers()
            }
            deadline = time.perf_counter() + 30.0
            while time.perf_counter() < deadline:
                router.batch([QueryRequest(seed=s, k=5) for s in range(32)])
                time.sleep(0.05)
                seen = set(obs_profile.pids())
                if seen & worker_pids and os.getpid() in seen:
                    break
        obs_profile.stop()
        pids = set(obs_profile.pids())
        assert os.getpid() in pids
        assert pids & worker_pids, "no worker samples shipped"
        assert len(pids) >= 2
        # Kernel-level attribution: some worker stack reaches the
        # kernels package (the sweep's spmm/spmv call sites).
        assert any(
            "repro.kernels" in stack or "repro.sharding.worker" in stack
            for stack in obs_profile.folded_samples()
        )


# -- structured logging --------------------------------------------------------


class TestLogging:
    def test_silent_by_default(self, capsys):
        logger = obs_logs.logging_setup(force=True)
        logger.warning("should vanish")
        obs_logs.get_logger("serving").warning("this too")
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out == ""

    def test_json_lines_carry_component_and_pid(self):
        stream = io.StringIO()
        obs_logs.logging_setup("json", stream=stream, force=True)
        obs_logs.get_logger("sharding.worker").warning("w %d died", 3)
        line = stream.getvalue().strip()
        document = json.loads(line)
        assert document["component"] == "sharding.worker"
        assert document["message"] == "w 3 died"
        assert document["pid"] == os.getpid()
        assert document["level"] == "WARNING"
        assert "ts" in document

    def test_json_exception_rendering(self):
        stream = io.StringIO()
        obs_logs.logging_setup("json", stream=stream, force=True)
        try:
            raise ValueError("boom")
        except ValueError:
            obs_logs.get_logger("supervisor").warning(
                "probe failed", exc_info=True
            )
        document = json.loads(stream.getvalue().strip())
        assert "ValueError: boom" in document["exc"]

    def test_text_mode_and_env_resolution(self, monkeypatch):
        stream = io.StringIO()
        monkeypatch.setenv(obs_logs.LOG_ENV_VAR, "text")
        obs_logs.logging_setup(stream=stream, force=True)
        obs_logs.get_logger("resilience.reaper").warning("reaped 2")
        line = stream.getvalue()
        assert "repro.resilience.reaper" in line
        assert "reaped 2" in line

    def test_supervisor_failures_route_through_logger(self, monkeypatch):
        from repro.resilience.supervisor import Supervisor

        stream = io.StringIO()
        obs_logs.logging_setup("json", stream=stream, force=True)

        def probe():
            raise RuntimeError("probe exploded")

        supervisor = Supervisor(probe, lambda identity: None,
                                interval_ms=10.0)
        try:
            deadline = time.perf_counter() + 5.0
            while (
                "probe exploded" not in stream.getvalue()
                and time.perf_counter() < deadline
            ):
                time.sleep(0.01)
        finally:
            supervisor.close()
        lines = [json.loads(line) for line in
                 stream.getvalue().strip().splitlines()]
        assert any(
            entry["component"] == "supervisor"
            and "probe" in entry["message"]
            for entry in lines
        )
