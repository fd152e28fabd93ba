"""Tests for repro.tune: fingerprinting, probing, profiles, precedence,
and the invariance contracts the autotuner leans on.

The perf *numbers* a tuned profile produces are machine-specific and are
asserted in CI's multi-core ``tune-smoke`` job; what this file pins down
is everything that must hold on any machine:

* fingerprints round-trip and key structurally (any field change is a
  new cache file);
* profiles round-trip the on-disk cache, and ``autotune`` reads the
  cache on the second call instead of re-measuring;
* the precedence contract — explicit argument > environment variable >
  tuned profile > static default — at every site that accepts ``tune=``;
* results are bitwise identical across kernel thread counts and between
  pinned and unpinned deployments (so no tuned knob can change answers).
"""

from __future__ import annotations

import json
import os
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import (
    Engine,
    QueryRequest,
    Router,
    Server,
    community_graph,
    create_method,
    kernels,
)
from repro.exceptions import ParameterError
from repro.tune import (
    MachineFingerprint,
    PinningWarning,
    TuneProfile,
    autotune,
    cache_path,
    derive_profile,
    load_cached,
    machine_fingerprint,
    probe_measurements,
)
from repro.tune.profile import PROFILE_SCHEMA


@pytest.fixture(autouse=True)
def isolated_tune_state(monkeypatch, tmp_path):
    """Every test gets its own profile cache and leaves the process-global
    kernel knob (thread count) as it found it."""
    monkeypatch.setenv("REPRO_TUNE_CACHE", str(tmp_path / "tune-cache"))
    monkeypatch.delenv("REPRO_KERNEL_THREADS", raising=False)
    threads = kernels.kernel_threads()
    yield
    kernels.set_num_threads(threads)


@pytest.fixture(scope="module")
def probe_graph():
    return community_graph(800, avg_degree=8, num_communities=8, seed=5)


def _measurements(**overrides):
    """A synthetic probe result with a known-best cell per grid."""
    base = {
        # Per-column cost: 64 wins (0.9/64 < 0.5/32 < 2.4/128).
        "spmm_block_seconds": {"32": 0.5, "64": 0.9, "128": 2.4},
        "spmm_thread_seconds": {"1": 4.0, "2": 1.5, "4": 2.0},
        "spmv_seconds": 0.01,
    }
    base.update(overrides)
    return base


def _fingerprint(**overrides):
    fields = dict(
        cpu_model="test-cpu",
        cpu_count=8,
        affinity=tuple(range(8)),
        numa={0: (0, 1, 2, 3), 1: (4, 5, 6, 7)},
        cgroup_quota=None,
        backend="numpy",
        dtype="float64",
        numba_version=None,
        numpy_version="2.0.0",
    )
    fields.update(overrides)
    return MachineFingerprint(**fields)


class TestMachineFingerprint:
    def test_live_fingerprint_round_trips(self):
        fp = machine_fingerprint()
        clone = MachineFingerprint.from_dict(fp.to_dict())
        assert clone == fp
        assert clone.key() == fp.key()

    def test_key_is_stable_and_structural(self):
        a, b = _fingerprint(), _fingerprint()
        assert a.key() == b.key()
        assert a.key() != _fingerprint(backend="numba").key()
        assert a.key() != _fingerprint(affinity=(0, 1)).key()
        assert a.key() != _fingerprint(numpy_version="1.26").key()

    def test_dict_is_json_serializable(self):
        json.dumps(machine_fingerprint().to_dict())

    def test_effective_cpus_capped_by_quota(self):
        assert _fingerprint().effective_cpus() == 8
        assert _fingerprint(cgroup_quota=1.5).effective_cpus() == 1
        assert _fingerprint(cgroup_quota=4.0).effective_cpus() == 4
        assert _fingerprint(affinity=(0, 1)).effective_cpus() == 2

    def test_backend_override(self):
        assert machine_fingerprint(backend="numpy").backend == "numpy"
        assert machine_fingerprint(dtype="float32").dtype == "float32"


class TestProbe:
    def test_measurements_on_live_graph(self, probe_graph):
        result = probe_measurements(
            probe_graph, block_grid=(16, 32), repeats=1
        )
        assert result["graph"]["nodes"] == probe_graph.num_nodes
        assert result["graph"]["scaled_standin"] is False
        assert result["spmv_seconds"] > 0
        assert result["topk_seconds"] > 0
        assert set(result["spmm_block_seconds"]) == {"16", "32"}
        assert all(v > 0 for v in result["spmm_block_seconds"].values())

    def test_thread_sweep_runs_on_every_backend(self, probe_graph):
        two_cores = _fingerprint(
            cpu_count=2, affinity=(0, 1), numa={0: (0, 1)}
        )
        before = kernels.kernel_threads()
        result = probe_measurements(
            probe_graph, block_grid=(16,), repeats=1,
            fingerprint=two_cores,
        )
        sweep = result["spmm_thread_seconds"]
        assert sweep and set(sweep) <= {"1", "2"}
        assert all(seconds > 0 for seconds in sweep.values())
        assert kernels.kernel_threads() == before  # policy restored
        profile = derive_profile(two_cores, result, 0.0)
        # 2 cores over 2 shards: the per-shard share clamps the pick.
        assert profile.kernel_threads == 1

    def test_synthetic_graph_when_none_given(self):
        result = probe_measurements(
            None, nodes=500, avg_degree=6,
            block_grid=(16,), repeats=1,
        )
        assert result["graph"]["nodes"] == 500

    def test_measurements_json_serializable(self):
        result = probe_measurements(
            None, nodes=400, avg_degree=6,
            block_grid=(16,), repeats=1,
        )
        json.dumps(result)


class TestDeriveProfile:
    def test_picks_fastest_cells(self):
        profile = derive_profile(_fingerprint(), _measurements(), 1.0)
        assert profile.stream_block == 64  # per-column argmin, not total
        assert profile.max_batch == 64

    def test_placement_from_numa_topology(self):
        profile = derive_profile(_fingerprint(), _measurements(), 1.0)
        assert profile.shards == 2  # one per NUMA node
        assert profile.workers == 4

    def test_single_node_uses_core_count(self):
        fp = _fingerprint(numa={0: tuple(range(8))})
        assert derive_profile(fp, _measurements(), 1.0).shards == 4
        tiny = _fingerprint(numa={}, affinity=(0,))
        assert derive_profile(tiny, _measurements(), 1.0).shards == 1

    def test_kernel_threads_clamped_to_core_share(self):
        profile = derive_profile(_fingerprint(), _measurements(), 1.0)
        # Measured best is 2 threads; 8 cores / 2 shards leaves 4 — keep 2.
        assert profile.kernel_threads == 2
        starved = _fingerprint(affinity=(0, 1))
        assert derive_profile(
            starved, _measurements(), 1.0
        ).kernel_threads == 1

    def test_wait_clamped_to_sane_window(self):
        slow = _measurements(
            spmm_block_seconds={"32": 5.0, "64": 9.0, "128": 20.0}
        )
        profile = derive_profile(_fingerprint(), slow, 1.0)
        assert profile.max_wait_ms == 8.0  # clamped at the ceiling
        fast = _measurements(
            spmm_block_seconds={"32": 1e-6, "64": 3e-6, "128": 9e-6}
        )
        assert derive_profile(_fingerprint(), fast, 1.0).max_wait_ms == 0.5

    def test_empty_measurements_fall_back_to_defaults(self):
        profile = derive_profile(_fingerprint(), {}, 0.0)
        assert profile.stream_block == 128
        assert profile.kernel_threads is None


class TestProfileCache:
    def test_round_trip_through_disk(self):
        profile = derive_profile(_fingerprint(), _measurements(), 1.0)
        path = profile.save()
        assert path == cache_path(_fingerprint())
        assert TuneProfile.load(path) == profile
        # A file cached before the tile knob was deleted still loads:
        # the stale key is simply not read.
        stale = dict(profile.to_dict(), tile_rows=4096)
        assert TuneProfile.from_dict(stale) == profile
        path.write_text(json.dumps(stale))
        assert load_cached(_fingerprint()) == profile

    def test_schema_mismatch_rejected(self):
        payload = derive_profile(_fingerprint(), _measurements(), 1.0).to_dict()
        payload["schema"] = "repro-tune-profile/0"
        with pytest.raises(ParameterError, match="schema"):
            TuneProfile.from_dict(payload)

    def test_load_cached_misses(self, tmp_path):
        fp = _fingerprint()
        assert load_cached(fp) is None  # no file
        cache_path(fp).parent.mkdir(parents=True, exist_ok=True)
        cache_path(fp).write_text("{not json")
        assert load_cached(fp) is None  # corrupt file

    def test_renamed_file_cannot_smuggle_stale_knobs(self):
        other = _fingerprint(backend="numba")
        profile = derive_profile(other, _measurements(), 1.0)
        # Write the numba-measured profile where the numpy fingerprint
        # would look for its own.
        profile.save(cache_path(_fingerprint()))
        assert load_cached(_fingerprint()) is None

    def test_autotune_reads_cache_on_second_call(self):
        kwargs = dict(
            nodes=400, avg_degree=6, block_grid=(16,), repeats=1,
        )
        first = autotune(**kwargs)
        assert cache_path(first.fingerprint).exists()
        second = autotune(**kwargs)
        assert second == first  # byte-identical payload: no re-measure
        forced = autotune(force=True, **kwargs)
        assert forced.fingerprint == first.fingerprint

    def test_autotune_save_false_leaves_no_file(self):
        profile = autotune(
            save=False, nodes=400, avg_degree=6,
            block_grid=(16,), repeats=1,
        )
        assert not cache_path(profile.fingerprint).exists()


class TestApplyPrecedence:
    def test_apply_sets_global_knobs(self):
        profile = derive_profile(_fingerprint(), _measurements(), 1.0)
        applied = profile.apply()
        assert applied == {"kernel_threads": 2}
        assert kernels.kernel_threads() == 2

    def test_env_variable_beats_profile(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_THREADS", "1")
        before = kernels.kernel_threads()
        profile = derive_profile(_fingerprint(), _measurements(), 1.0)
        applied = profile.apply()
        assert applied["kernel_threads"] == "env-override"
        assert kernels.kernel_threads() == before

    def test_explicit_engine_argument_beats_profile(self, probe_graph):
        profile = derive_profile(_fingerprint(), _measurements(), 1.0)
        method = create_method("tpa", s_iteration=4, t_iteration=8)
        engine = Engine(method, probe_graph, stream_block=48, tune=profile)
        assert engine.stream_block == 48

    def test_profile_fills_engine_default(self, probe_graph):
        profile = derive_profile(_fingerprint(), _measurements(), 1.0)
        method = create_method("tpa", s_iteration=4, t_iteration=8)
        engine = Engine(method, probe_graph, tune=profile)
        assert engine.stream_block == profile.stream_block


class TestServingWithTune:
    def _profile(self):
        # workers/shards forced to 1 so the tests stay cheap; pin knobs
        # exercised separately.
        return derive_profile(
            _fingerprint(numa={}, affinity=(0,)), _measurements(), 1.0
        )

    def test_server_resolves_knobs_from_profile(self, small_community):
        profile = self._profile()
        method = create_method("tpa", s_iteration=4, t_iteration=8)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PinningWarning)
            with Server(
                method, small_community, tune=profile, pin=False
            ) as server:
                stats = server.stats()
                assert server.workers == profile.workers
                assert stats["max_batch"] == profile.max_batch
                assert stats["max_wait_ms"] == profile.max_wait_ms
                assert server.query(0, k=5).top_nodes.shape == (5,)

    def test_server_explicit_arguments_win(self, small_community):
        profile = self._profile()
        method = create_method("tpa", s_iteration=4, t_iteration=8)
        with Server(
            method, small_community, workers=2, max_batch=16,
            max_wait_ms=1.0, tune=profile, pin=False,
        ) as server:
            stats = server.stats()
            assert server.workers == 2
            assert stats["max_batch"] == 16
            assert stats["max_wait_ms"] == 1.0

    def test_router_resolves_knobs_from_profile(self, small_community):
        profile = self._profile()
        method = create_method("tpa", s_iteration=4, t_iteration=8)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PinningWarning)
            with Router(
                method, small_community, tune=profile, pin=False
            ) as router:
                stats = router.stats()
                assert router.num_shards == profile.shards
                assert stats["max_batch"] == profile.max_batch
                assert router.query(0, k=5).top_nodes.shape == (5,)

    def test_router_explicit_shards_win(self, small_community):
        profile = self._profile()
        method = create_method("tpa", s_iteration=4, t_iteration=8)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PinningWarning)
            with Router(
                method, small_community, num_shards=2,
                tune=profile, pin=False,
            ) as router:
                assert router.num_shards == 2


class TestKernelThreadKnob:
    def test_profile_apply_round_trips_on_numpy(self):
        for count in (1, 3):
            profile = derive_profile(
                _fingerprint(),
                _measurements(spmm_thread_seconds={str(count): 1.0}),
                1.0,
            )
            assert profile.apply()["kernel_threads"] == count
            assert kernels.num_threads() == count
        kernels.set_num_threads(None)
        assert kernels.num_threads() == len(os.sched_getaffinity(0))

    def test_set_and_reset(self):
        previous = kernels.set_num_threads(1)
        try:
            assert kernels.kernel_threads() == 1
        finally:
            kernels.set_num_threads(previous)
        kernels.set_num_threads(None)
        assert kernels.kernel_threads() is None

    def test_invalid_count_rejected(self):
        with pytest.raises(ParameterError):
            kernels.set_num_threads(0)

    def test_env_parse(self, monkeypatch):
        from repro.kernels import backend as kernel_backend

        monkeypatch.setenv("REPRO_KERNEL_THREADS", "3")
        assert kernel_backend._resolve_env_threads() == 3
        monkeypatch.setenv("REPRO_KERNEL_THREADS", "auto")
        assert kernel_backend._resolve_env_threads() is None
        monkeypatch.setenv("REPRO_KERNEL_THREADS", "banana")
        with pytest.warns(UserWarning, match="REPRO_KERNEL_THREADS"):
            assert kernel_backend._resolve_env_threads() is None

    def test_thread_count_not_in_cache_token(self):
        previous = kernels.set_num_threads(1)
        try:
            token_one = kernels.cache_token()
        finally:
            kernels.set_num_threads(previous)
        # Thread count must not invalidate cached vectors: results are
        # bitwise thread-count-invariant, so the token ignores it.
        assert token_one == kernels.cache_token()


_THREAD_COUNTS = (1, 2, 3, 8)


def _hub_matrix(rows: int, cols: int, rng) -> sp.csr_array:
    """Row 0 holds ~90% of the nonzeros (so nnz-balanced cuts coincide
    and leave an all-empty stripe between them), every third row is
    empty, and the tail rows are all empty."""
    dense = np.zeros((rows, cols))
    dense[0] = rng.standard_normal(cols)
    for row in range(1, rows - 3):
        if row % 3:
            dense[row, rng.integers(0, cols)] = rng.standard_normal()
    return sp.csr_array(dense)


@pytest.mark.parametrize("backend_name", [kernels.get_backend()])
class TestThreadCountBitwiseInvariance:
    """Results are bitwise identical at every thread count — the
    invariant that keeps the count out of ``cache_token``.  The work
    floor is lifted so the small fixtures actually split into stripes;
    ``backend_name`` only stamps the backend into the test ids."""

    @pytest.fixture(autouse=True)
    def _backend(self, backend_name, monkeypatch):
        from repro.kernels import _numpy_backend

        monkeypatch.setattr(_numpy_backend, "WORK_FLOOR", 0)
        dtype = kernels.compute_dtype()
        yield
        kernels.set_compute_dtype(dtype)

    @staticmethod
    def _at_each_count(compute):
        results = []
        for count in _THREAD_COUNTS:
            kernels.set_num_threads(count)
            results.append(compute())
        return results

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_products_identical_across_thread_counts(self, probe_graph, dtype):
        operator = probe_graph.decayed_operator(0.85, dtype=dtype)
        n = probe_graph.num_nodes
        rng = np.random.default_rng(3)
        mat = rng.random((n, 16)).astype(dtype)
        vec = np.ascontiguousarray(mat[:, 0])

        def compute():
            supplied = np.full((n, 16), np.nan, dtype=dtype)
            assert kernels.spmm(operator, mat, out=supplied) is supplied
            return (
                kernels.spmv(operator, vec),
                kernels.spmm(operator, mat),
                supplied,
            )

        first, *rest = self._at_each_count(compute)
        assert all(result.dtype == dtype for result in first)
        if kernels.get_backend() == "numpy":
            np.testing.assert_array_equal(first[0], operator @ vec)
            np.testing.assert_array_equal(first[1], operator @ mat)
        for other in rest:
            for got, want in zip(other, first):
                np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("rows", [1, 2, 5, 40])
    def test_degenerate_row_layouts(self, rows):
        # Fewer rows than threads, rows without nonzeros, stripes that
        # come out empty, an all-zero operator.
        rng = np.random.default_rng(rows)
        for matrix in (
            _hub_matrix(rows, 30, rng),
            sp.csr_array((rows, 30), dtype=np.float64),
        ):
            mat = rng.random((30, 4))

            def compute():
                return (
                    kernels.spmv(matrix, mat[:, 0].copy()),
                    kernels.spmm(matrix, mat),
                )

            first, *rest = self._at_each_count(compute)
            np.testing.assert_allclose(first[1], matrix @ mat, atol=1e-12)
            for other in rest:
                for got, want in zip(other, first):
                    np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("layout", ["rows", "panel"])
    def test_selection_identical_across_thread_counts(self, layout):
        rng = np.random.default_rng(9)
        scores = rng.random((5, 300)).round(2)  # rounding forces ties
        if layout == "panel":  # the transposed view iterate loops return
            scores = np.ascontiguousarray(scores.T).T
        banned = rng.random((5, 300)) < 0.1

        def compute():
            supplied = np.empty((5, 7), dtype=np.int64)
            kernels.select_top_k_many(scores, 7, banned=banned, out=supplied)
            return supplied, kernels.select_top_k_many(scores, 400)

        first, *rest = self._at_each_count(compute)
        for row in range(5):
            np.testing.assert_array_equal(
                first[0][row],
                kernels.select_top_k(scores[row], 7, banned[row]),
            )
        for other in rest:
            for got, want in zip(other, first):
                np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_engine_results_identical_across_thread_counts(
        self, probe_graph, dtype
    ):
        kernels.set_compute_dtype(dtype)
        seeds = np.arange(24)
        requests = [QueryRequest(seed=int(s)) for s in seeds[:6]]

        def compute():
            engine = Engine(
                create_method("tpa", s_iteration=4, t_iteration=8),
                probe_graph,
            )
            full = np.stack([r.scores for r in engine.batch(requests)])
            return engine.serve(seeds, k=10), full

        first, *rest = self._at_each_count(compute)
        for other in rest:
            for got, want in zip(other, first):
                np.testing.assert_array_equal(got, want)

    @settings(max_examples=25, deadline=None,
              suppress_health_check=list(HealthCheck))
    @given(
        rows=st.integers(1, 24), cols=st.integers(1, 24),
        width=st.integers(1, 5), density=st.floats(0.0, 0.6),
        threads=st.sampled_from(_THREAD_COUNTS), seed=st.integers(0, 2**16),
        heavy_tail=st.booleans(),
    )
    def test_spmm_matches_operator_product(
        self, rows, cols, width, density, threads, seed, heavy_tail
    ):
        rng = np.random.default_rng(seed)
        if heavy_tail:
            # Zipf row degrees: a few rows hold most nonzeros and many
            # hold none, so nnz-balanced cuts coincide and the empty
            # stripes between them are dropped.
            degrees = np.minimum(rng.zipf(1.5, rows) - 1, cols)
            indptr = np.concatenate([[0], np.cumsum(degrees)])
            indices = np.concatenate(
                [np.sort(rng.choice(cols, d, replace=False)) for d in degrees]
            )
            matrix = sp.csr_array(
                (rng.standard_normal(indices.size), indices, indptr),
                shape=(rows, cols),
            )
        else:
            matrix = sp.csr_array(sp.random_array(
                (rows, cols), density=density, format="csr", rng=rng,
            ))
        mat = rng.standard_normal((cols, width))
        kernels.set_num_threads(threads)
        got = kernels.spmm(matrix, mat)
        if kernels.get_backend() == "numpy":
            np.testing.assert_array_equal(got, matrix @ mat)
        else:
            np.testing.assert_allclose(got, matrix @ mat, atol=1e-12)


class TestPinnedBitwiseInvariance:
    """Pinned and unpinned deployments return identical results (on the
    active backend — CI runs this file under both)."""

    def test_sharded_pinned_matches_serial(self, small_community):
        method = create_method("tpa", s_iteration=4, t_iteration=8)
        engine = Engine(method, small_community)
        seeds = np.arange(32)
        serial = engine.serve(seeds, k=10)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PinningWarning)
            with engine.shard(num_shards=2, pin=True) as sharded:
                pinned = sharded.serve(seeds, k=10)
        np.testing.assert_array_equal(serial, pinned)

    def test_tuned_server_matches_serial_batch(self, small_community):
        profile = autotune(
            save=False, nodes=400, avg_degree=6,
            block_grid=(16,), repeats=1,
        )
        method = create_method("tpa", s_iteration=4, t_iteration=8)
        engine = Engine(
            create_method("tpa", s_iteration=4, t_iteration=8),
            small_community,
        )
        seeds = np.arange(16)
        serial = engine.serve(seeds, k=8)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PinningWarning)
            with Server(method, small_community, tune=profile) as server:
                results = server.batch(
                    [QueryRequest(seed=int(s), k=8) for s in seeds]
                )
        tuned = np.stack([r.top_nodes for r in results])
        np.testing.assert_array_equal(serial, tuned)


class TestTuneCLI:
    def test_measure_then_cache(self, capsys):
        from repro.cli import main

        argv = ["tune", "--nodes", "400", "--repeats", "1"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "profile         measured" in first
        assert "fingerprint" in first
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "profile         cached" in second

    def test_json_output(self, capsys, tmp_path):
        from repro.cli import main

        out = tmp_path / "profile.json"
        assert main([
            "tune", "--nodes", "400", "--repeats", "1",
            "--json", str(out),
        ]) == 0
        payload = json.loads(out.read_text())
        assert payload["schema"] == PROFILE_SCHEMA
        assert payload["fingerprint_key"] == machine_fingerprint().key()

    def test_json_stdout(self, capsys):
        from repro.cli import main

        assert main(["tune", "--nodes", "400", "--repeats", "1",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == PROFILE_SCHEMA
