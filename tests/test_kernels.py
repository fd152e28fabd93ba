"""The compiled sparse-kernel layer: backends, equivalence, and policy.

The kernel layer's contract has three legs, each asserted here:

* the NumPy fallback is *bitwise identical* to the pre-kernel
  ``operator @ x`` code path (property-tested on random CSR matrices);
* the Numba backend, when installed, agrees with the fallback to
  ``<= 1e-12`` and is exercised through the same dispatchers;
* global numeric policy (backend + compute dtype) is visible to caches
  via ``cache_token`` and never leaks between tests (fixtures restore).

Plus the satellites that ride on the layer: retained-workspace byte
accounting, the Engine's dtype/backend-aware LRU key, and the SlashBurn
locality reordering fast path.
"""

import os
import sys

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import kernels
from repro.core.cpi import CPIMethod, cpi, cpi_many
from repro.core.tpa import TPA
from repro.engine import Engine, create_method
from repro.exceptions import ParameterError
from repro.graph.generators import community_graph
from repro.kernels import Workspace, backend, locality_reordering

_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)


@pytest.fixture(autouse=True)
def _restore_kernel_policy():
    """Backend and compute dtype are process-global; never leak them."""
    backend_before = kernels.get_backend()
    dtype_before = kernels.compute_dtype()
    yield
    kernels.set_backend(backend_before)
    kernels.set_compute_dtype(dtype_before)


def _random_csr(rng: np.random.Generator, rows: int, cols: int, density: float):
    matrix = sp.random_array(
        (rows, cols), density=density, format="csr", rng=rng,
        data_sampler=lambda size: rng.standard_normal(size),
    )
    return sp.csr_array(matrix)


class TestNumpyFallbackBitwise:
    """The fallback must reproduce ``A @ x`` bit for bit — it IS the old
    code path, reached through the new dispatcher."""

    @_SETTINGS
    @given(
        rows=st.integers(1, 80),
        cols=st.integers(1, 80),
        density=st.floats(0.0, 0.6),
        batch=st.integers(1, 9),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_spmv_and_spmm_match_scipy(self, rows, cols, density, batch, seed):
        kernels.set_backend("numpy")
        rng = np.random.default_rng(seed)
        matrix = _random_csr(rng, rows, cols, density)
        x = rng.standard_normal(cols)
        np.testing.assert_array_equal(kernels.spmv(matrix, x), matrix @ x)
        big = rng.standard_normal((cols, batch))
        np.testing.assert_array_equal(kernels.spmm(matrix, big), matrix @ big)

    @_SETTINGS
    @given(seed=st.integers(0, 2**32 - 1))
    def test_out_buffer_does_not_change_results(self, seed):
        kernels.set_backend("numpy")
        rng = np.random.default_rng(seed)
        matrix = _random_csr(rng, 60, 60, 0.1)
        x = rng.standard_normal(60)
        out = np.full(60, np.nan)  # stale garbage must be overwritten
        np.testing.assert_array_equal(
            kernels.spmv(matrix, x, out=out), matrix @ x
        )
        big = rng.standard_normal((60, 5))
        out2 = np.full((60, 5), np.nan)
        np.testing.assert_array_equal(
            kernels.spmm(matrix, big, out=out2), matrix @ big
        )

    def test_graph_propagate_is_bitwise_unchanged(self, small_community, rng):
        kernels.set_backend("numpy")
        x = rng.random(small_community.num_nodes)
        np.testing.assert_array_equal(
            small_community.propagate(x),
            small_community.transition_transpose @ x,
        )
        big = rng.random((small_community.num_nodes, 7))
        np.testing.assert_array_equal(
            small_community.propagate(big),
            small_community.transition_transpose @ big,
        )

    def test_out_contract_enforced(self, rng):
        matrix = _random_csr(np.random.default_rng(0), 20, 20, 0.2)
        x = rng.random(20)
        with pytest.raises(ParameterError):
            kernels.spmv(matrix, x, out=np.empty(21))
        with pytest.raises(ParameterError):
            kernels.spmv(matrix, x, out=np.empty(20, dtype=np.float32))
        with pytest.raises(ParameterError):
            kernels.spmv(matrix, x, out=x)
        with pytest.raises(ParameterError):
            kernels.spmm(matrix, rng.random((20, 4)), out=np.empty((4, 20)).T)


# The interpreted-twin fixture ``numba_source_namespace`` lives in
# conftest.py now — the top-k suite uses it too.


class TestCompiledKernelLogic:
    """Interpreted execution of the numba kernels against the references."""

    def test_spmv_spmm_match_scipy_in_both_dtypes(
        self, numba_source_namespace
    ):
        rng = np.random.default_rng(3)
        for dtype in (np.float64, np.float32):
            matrix = _random_csr(rng, 50, 50, 0.3).astype(dtype)
            x = rng.random(50).astype(dtype)
            big = np.ascontiguousarray(rng.random((50, 6)).astype(dtype))
            out_v = np.empty(50, dtype)
            out_m = np.empty((50, 6), dtype)
            numba_source_namespace["_spmv"](
                matrix.indptr, matrix.indices, matrix.data, x, out_v
            )
            numba_source_namespace["_spmm"](
                matrix.indptr, matrix.indices, matrix.data, big, out_m
            )
            # Bitwise: the loops accumulate in the same order and dtype
            # as scipy's csr kernels (stronger than the 1e-12 contract).
            np.testing.assert_array_equal(out_v, matrix @ x)
            np.testing.assert_array_equal(out_m, matrix @ big)

    @pytest.mark.parametrize("seed", [0, 5])
    def test_push_loops_match_reference(
        self, numba_source_namespace, small_community, seed
    ):
        from repro.baselines.backward_push import backward_push
        from repro.baselines.forward_push import forward_push

        graph = small_community
        ref = forward_push(graph, seed, rmax=1e-4)
        indptr = graph.adjacency.indptr
        indices = graph.adjacency.indices
        degree = (indptr[1:] - indptr[:-1]).astype(np.int64)
        threshold = 1e-4 * np.maximum(degree, 1).astype(np.float64)
        estimate = np.zeros(graph.num_nodes)
        residual = np.zeros(graph.num_nodes)
        residual[seed] = 1.0
        pushes = numba_source_namespace["_forward_push"](
            indptr, indices, threshold, 0.15, seed, 50_000_000,
            estimate, residual,
        )
        assert pushes == ref.pushes
        np.testing.assert_array_equal(estimate, ref.estimate)
        np.testing.assert_array_equal(residual, ref.residual)

        back_ref = backward_push(graph, seed, rmax=1e-4)
        operator = graph.transition_transpose
        estimate = np.zeros(graph.num_nodes)
        residual = np.zeros(graph.num_nodes)
        residual[seed] = 1.0
        pushes = numba_source_namespace["_backward_push"](
            operator.indptr, operator.indices, operator.data, 1e-4, 0.15,
            seed, 50_000_000, estimate, residual,
        )
        assert pushes == back_ref.pushes
        np.testing.assert_array_equal(estimate, back_ref.estimate)
        np.testing.assert_array_equal(residual, back_ref.residual)

    def test_push_loop_single_node_self_loop(self, numba_source_namespace):
        """n=1 ring-buffer edge case: the write cursor must wrap to 0."""
        from repro.graph.graph import Graph

        graph = Graph(1, [0], [0], keep_self_loops=True)
        from repro.baselines.forward_push import forward_push

        ref = forward_push(graph, 0, rmax=1e-4)
        indptr = graph.adjacency.indptr
        estimate = np.zeros(1)
        residual = np.ones(1)
        pushes = numba_source_namespace["_forward_push"](
            indptr, graph.adjacency.indices, np.array([1e-4]), 0.15, 0,
            50_000_000, estimate, residual,
        )
        assert pushes == ref.pushes
        np.testing.assert_array_equal(estimate, ref.estimate)

    def test_max_pushes_overrun_returns_sentinel(
        self, numba_source_namespace, small_community
    ):
        graph = small_community
        indptr = graph.adjacency.indptr
        indices = graph.adjacency.indices
        degree = (indptr[1:] - indptr[:-1]).astype(np.int64)
        threshold = 1e-9 * np.maximum(degree, 1).astype(np.float64)
        estimate = np.zeros(graph.num_nodes)
        residual = np.zeros(graph.num_nodes)
        residual[0] = 1.0
        assert numba_source_namespace["_forward_push"](
            indptr, indices, threshold, 0.15, 0, 10, estimate, residual
        ) == -1


@pytest.mark.skipif(
    not kernels.numba_available(), reason="numba not installed"
)
class TestNumbaBackend:
    """Compiled kernels agree with the fallback to <= 1e-12."""

    @_SETTINGS
    @given(
        rows=st.integers(1, 60),
        cols=st.integers(1, 60),
        density=st.floats(0.0, 0.5),
        batch=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_agrees_with_numpy_fallback(self, rows, cols, density, batch, seed):
        rng = np.random.default_rng(seed)
        matrix = _random_csr(rng, rows, cols, density)
        x = rng.standard_normal(cols)
        big = rng.standard_normal((cols, batch))
        kernels.set_backend("numpy")
        ref_v, ref_m = kernels.spmv(matrix, x), kernels.spmm(matrix, big)
        kernels.set_backend("numba")
        np.testing.assert_allclose(
            kernels.spmv(matrix, x), ref_v, rtol=0, atol=1e-12
        )
        np.testing.assert_allclose(
            kernels.spmm(matrix, big), ref_m, rtol=0, atol=1e-12
        )

    def test_push_loops_match_reference(self, small_community):
        from repro.baselines.backward_push import backward_push
        from repro.baselines.forward_push import forward_push

        kernels.set_backend("numpy")
        fwd_ref = forward_push(small_community, 3, rmax=1e-4)
        bwd_ref = backward_push(small_community, 5, rmax=1e-4)
        kernels.set_backend("numba")
        fwd = forward_push(small_community, 3, rmax=1e-4)
        bwd = backward_push(small_community, 5, rmax=1e-4)
        assert fwd.pushes == fwd_ref.pushes
        assert bwd.pushes == bwd_ref.pushes
        np.testing.assert_array_equal(fwd.estimate, fwd_ref.estimate)
        np.testing.assert_array_equal(fwd.residual, fwd_ref.residual)
        np.testing.assert_array_equal(bwd.estimate, bwd_ref.estimate)
        np.testing.assert_array_equal(bwd.residual, bwd_ref.residual)

    def test_query_results_close_to_fallback(self, small_community):
        kernels.set_backend("numpy")
        method = TPA(s_iteration=4, t_iteration=8)
        method.preprocess(small_community)
        reference = method.query_many(np.array([0, 7, 33]))
        kernels.set_backend("numba")
        method2 = TPA(s_iteration=4, t_iteration=8)
        method2.preprocess(small_community)
        np.testing.assert_allclose(
            method2.query_many(np.array([0, 7, 33])), reference,
            rtol=0, atol=1e-12,
        )


class TestForcedFallback:
    """Behavior when Numba is absent (simulated via the detection flag)."""

    def test_set_backend_numba_raises_without_numba(self, monkeypatch):
        monkeypatch.setattr(backend, "_NUMBA_INSTALLED", False)
        with pytest.raises(ParameterError, match="not installed"):
            kernels.set_backend("numba")

    def test_auto_selection_falls_back_to_numpy(self, monkeypatch):
        monkeypatch.setattr(backend, "_NUMBA_INSTALLED", False)
        kernels.set_backend("auto")
        assert kernels.get_backend() == "numpy"
        assert kernels.available_backends() == ("numpy",)
        assert not kernels.numba_available()

    def test_env_request_for_numba_warns_and_falls_back(self, monkeypatch):
        monkeypatch.setattr(backend, "_NUMBA_INSTALLED", False)
        monkeypatch.setenv("REPRO_KERNEL", "numba")
        with pytest.warns(UserWarning, match="NumPy fallback"):
            assert backend._resolve_env_backend() == "numpy"

    def test_push_loops_unavailable_on_numpy_backend(self):
        kernels.set_backend("numpy")
        assert kernels.forward_push_loop() is None
        assert kernels.backward_push_loop() is None

    def test_queries_still_exact_on_fallback(self, small_community):
        kernels.set_backend("numpy")
        method = CPIMethod()
        method.preprocess(small_community)
        batched = method.query_many(np.array([1, 2, 3]))
        stacked = np.stack([method.query(s) for s in (1, 2, 3)])
        np.testing.assert_array_equal(batched, stacked)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ParameterError, match="unknown kernel backend"):
            kernels.set_backend("cuda")


class TestComputeDtypePolicy:
    def test_default_is_float64(self):
        assert kernels.compute_dtype() is np.float64
        # backend:shard:graph:dtype — nothing else is a tier.
        assert kernels.cache_token().split(":") == [
            kernels.get_backend(), "shard-none", "graph-static", "float64",
        ]

    def test_float32_opt_in_changes_result_dtype(self, small_community):
        double = kernels.cache_token()
        kernels.set_compute_dtype("float32")
        assert kernels.cache_token().endswith(":float32")
        assert kernels.cache_token().split(":")[:3] == double.split(":")[:3]
        result = cpi(small_community, 3)
        assert result.scores.dtype == np.float32

    def test_float32_error_within_documented_bound(self, small_community):
        reference = cpi(small_community, 3).scores
        kernels.set_compute_dtype("float32")
        low = cpi(small_community, 3).scores
        # The repro.kernels docstring documents <= ~1e-5 observed L1 gap
        # (unit-tested here at 5e-5).
        assert float(np.abs(low - reference).sum()) < 5e-5

    def test_float32_batch_matches_float32_single(self, small_community):
        kernels.set_compute_dtype("float32")
        method = TPA(s_iteration=4, t_iteration=8)
        method.preprocess(small_community)
        batched = method.query_many(np.array([0, 5, 9]))
        stacked = np.stack([method.query(s) for s in (0, 5, 9)])
        np.testing.assert_array_equal(batched, stacked)

    def test_invalid_dtype_rejected(self):
        with pytest.raises(ParameterError, match="float32 or float64"):
            kernels.set_compute_dtype("float16")


class TestWorkspace:
    def test_buffers_are_reused(self):
        ws = Workspace()
        first = ws.request("iterate", (16, 4))
        again = ws.request("iterate", (16, 4))
        assert first is again
        assert ws.nbytes() == 16 * 4 * 8

    def test_shape_change_reallocates_without_leaking(self):
        ws = Workspace()
        ws.request("iterate", (16, 4))
        bigger = ws.request("iterate", (16, 8))
        assert bigger.shape == (16, 8)
        assert ws.nbytes() == 16 * 8 * 8  # old buffer dropped, not retained

    def test_pair_returns_distinct_buffers(self):
        ws = Workspace()
        a, b = ws.pair("pingpong", (10,))
        assert a is not b
        a2, b2 = ws.pair("pingpong", (10,))
        assert a is a2 and b is b2

    def test_clear(self):
        ws = Workspace()
        ws.request("x", (8,))
        ws.clear()
        assert ws.nbytes() == 0

    def test_workspace_does_not_change_cpi_results(self, small_community):
        ws = Workspace()
        plain = cpi_many(small_community, np.array([2, 4, 6])).scores
        with_ws = cpi_many(
            small_community, np.array([2, 4, 6]), workspace=ws
        ).scores
        np.testing.assert_array_equal(plain, with_ws)
        assert ws.nbytes() > 0
        # Second call at the same batch shape reuses, not grows.
        before = ws.nbytes()
        cpi_many(small_community, np.array([1, 3, 5]), workspace=ws)
        assert ws.nbytes() == before


class TestRetainedBytesAccounting:
    """preprocessed_bytes must count the buffers the online phase keeps."""

    def test_tpa_counts_stranger_plus_retained_buffers(self, small_community):
        method = TPA(s_iteration=4, t_iteration=8)
        method.preprocess(small_community)
        n = small_community.num_nodes
        # Post-preprocess: exactly the stranger vector (preprocessing uses
        # throwaway buffers) — the Figure 1(a) figure.
        assert method.preprocessed_bytes() == n * 8
        method.query_many(np.array([0, 1, 2, 3]))
        grown = method.preprocessed_bytes()
        assert grown == n * 8 + method._workspace.nbytes()
        assert grown > n * 8
        # Stable across repeat queries at the same batch shape.
        method.query_many(np.array([4, 5, 6, 7]))
        assert method.preprocessed_bytes() == grown

    def test_cpi_counts_retained_buffers(self, small_community):
        method = CPIMethod()
        method.preprocess(small_community)
        assert method.preprocessed_bytes() == 0
        method.query(0)
        single = method.preprocessed_bytes()
        assert single == 2 * small_community.num_nodes * 8  # ping-pong pair
        method.query_many(np.array([0, 1, 2]))
        assert method.preprocessed_bytes() > single


class TestEngineCacheToken:
    """A float32 run must never be served a cached float64 vector."""

    def test_dtype_switch_bypasses_cache(self, small_community):
        engine = Engine(
            create_method("tpa", s_iteration=4, t_iteration=8),
            small_community, cache_size=8,
        )
        full = engine.query(3)
        assert full.scores.dtype == np.float64
        assert engine.query(3).cached is True
        kernels.set_compute_dtype("float32")
        low = engine.query(3)
        assert low.cached is False  # distinct cache key, recomputed
        assert low.scores.dtype == np.float32
        # Switching back serves the original float64 entry again.
        kernels.set_compute_dtype("float64")
        back = engine.query(3)
        assert back.cached is True
        assert back.scores.dtype == np.float64
        np.testing.assert_array_equal(back.scores, full.scores)

    def test_backend_switch_bypasses_cache(self, small_community, monkeypatch):
        engine = Engine(
            create_method("tpa", s_iteration=4, t_iteration=8),
            small_community, cache_size=8,
        )
        engine.query(1)
        stats = engine.stats()
        assert stats["cache_misses"] == 1
        # A different token (any backend rename) must miss.
        monkeypatch.setattr(
            kernels.backend, "_active_backend", "other-backend"
        )
        engine.query(1)
        assert engine.stats()["cache_misses"] == 2


class TestLocalityReordering:
    def test_roundtrip_maps(self, medium_community):
        reordering = locality_reordering(medium_community)
        n = medium_community.num_nodes
        np.testing.assert_array_equal(
            reordering.to_original[reordering.to_reordered], np.arange(n)
        )
        assert reordering.graph.num_nodes == n
        assert reordering.graph.num_edges == medium_community.num_edges
        assert 0 < reordering.num_hubs < n

    def test_engine_reorder_matches_plain_scores(self, medium_community):
        plain = Engine(
            create_method("tpa", s_iteration=4, t_iteration=8),
            medium_community,
        )
        reordered = Engine(
            create_method("tpa", s_iteration=4, t_iteration=8),
            medium_community, reorder="slashburn",
        )
        for seed in (0, 17, 123):
            np.testing.assert_allclose(
                reordered.query(seed).scores, plain.query(seed).scores,
                rtol=1e-9, atol=1e-12,
            )

    def test_engine_reorder_top_k_in_original_ids(self, medium_community):
        plain = Engine(
            create_method("tpa", s_iteration=4, t_iteration=8),
            medium_community,
        )
        reordered = Engine(
            create_method("tpa", s_iteration=4, t_iteration=8),
            medium_community, reorder="slashburn",
        )
        a = plain.query(42, k=10, exclude_neighbors=True)
        b = reordered.query(42, k=10, exclude_neighbors=True)
        np.testing.assert_array_equal(a.top_nodes, b.top_nodes)
        np.testing.assert_allclose(a.top_scores, b.top_scores, rtol=1e-9)

    def test_engine_reorder_serve_maps_and_pads(self, tiny_ring):
        engine = Engine(create_method("cpi"), tiny_ring, reorder="slashburn")
        rankings = engine.serve([0], k=50)
        assert rankings.shape == (1, 50)
        assert (rankings[0, :9] >= 0).all()
        assert (rankings[0, 9:] == -1).all()  # padding untouched by the map
        plain = Engine(create_method("cpi"), tiny_ring)
        np.testing.assert_array_equal(
            plain.serve([0], k=50), rankings
        )

    def test_reorder_requires_graph(self, small_community):
        method = create_method("tpa", s_iteration=4, t_iteration=8)
        method.preprocess(small_community)
        with pytest.raises(ParameterError, match="reorder requires"):
            Engine(method, reorder="slashburn")

    def test_unknown_reorder_rejected(self, small_community):
        with pytest.raises(ParameterError, match="unknown reorder"):
            Engine(
                create_method("cpi"), small_community, reorder="rcm"
            )

    def test_engine_graph_property_is_original(self, medium_community):
        engine = Engine(
            create_method("cpi"), medium_community, reorder="slashburn"
        )
        assert engine.graph is medium_community
        assert engine.reordering is not None
        assert engine.method.graph is engine.reordering.graph


def _fork_child(conn, operator, operand):
    """Body of the forked child: an above-floor product on its own pool."""
    from repro.kernels import _numpy_backend

    product = kernels.spmm(operator, operand)
    conn.send((product, _numpy_backend._cores._workers,
               _numpy_backend._cores.held))
    conn.close()


class TestStripePool:
    """Lifecycle and concurrency of the NumPy backend's stripe threads:
    fork and spawn safety, the idle-core ledger, failure propagation,
    and a clean shutdown.  Every test runs under a hard alarm so a hang
    fails instead of stalling the suite."""

    @pytest.fixture(autouse=True)
    def _numpy_two_threads(self):
        import signal

        from repro.kernels import _numpy_backend

        def expired(signum, frame):
            raise TimeoutError("stripe-pool test exceeded its hard timeout")

        handler = signal.signal(signal.SIGALRM, expired)
        signal.alarm(120)
        kernels.set_backend("numpy")
        threads = kernels.set_num_threads(2)
        try:
            yield _numpy_backend
        finally:
            kernels.set_num_threads(threads)
            signal.alarm(0)
            signal.signal(signal.SIGALRM, handler)

    @pytest.fixture(scope="class")
    def above_floor(self):
        """An operator and a 64-wide operand whose product (2.3 M
        multiply-adds) is above the work floor, plus the reference."""
        graph = community_graph(3000, avg_degree=12, num_communities=6, seed=2)
        operator = graph.decayed_operator(0.85)
        operand = np.random.default_rng(1).random((graph.num_nodes, 64))
        return operator, operand, operator @ operand

    def test_above_floor_call_splits_below_floor_does_not(
        self, _numpy_two_threads, above_floor, monkeypatch
    ):
        backend_module = _numpy_two_threads
        operator, operand, reference = above_floor
        assert operator.nnz * 64 >= backend_module.WORK_FLOOR
        monkeypatch.setattr(backend_module, "_cores", backend_module._Cores())
        kernels.spmm(operator, operand[:, :8].copy())  # 0.3 M: serial
        assert backend_module._cores._workers == 0
        np.testing.assert_array_equal(kernels.spmm(operator, operand), reference)
        assert backend_module._cores._workers == 1
        assert backend_module._cores.held == 0

    def test_one_thread_starts_no_pool(
        self, _numpy_two_threads, above_floor, monkeypatch
    ):
        backend_module = _numpy_two_threads
        operator, operand, reference = above_floor
        monkeypatch.setattr(backend_module, "_cores", backend_module._Cores())
        kernels.set_num_threads(1)
        np.testing.assert_array_equal(kernels.spmm(operator, operand), reference)
        assert backend_module._cores._workers == 0

    @pytest.mark.skipif(
        len(os.sched_getaffinity(0)) < 2, reason="needs two usable CPUs"
    )
    def test_woken_stripe_leaves_the_callers_cpu(self, _numpy_two_threads):
        backend_module = _numpy_two_threads
        allowed = os.sched_getaffinity(0)
        here = backend_module._getcpu()
        backend_module._leave(here)
        assert backend_module._getcpu() != here
        assert os.sched_getaffinity(0) == allowed  # free to move again

    def test_forked_child_gets_a_fresh_pool(self, above_floor):
        import multiprocessing

        operator, operand, reference = above_floor
        kernels.spmm(operator, operand)  # the parent's pool is live
        context = multiprocessing.get_context("fork")
        receiver, sender = context.Pipe(duplex=False)
        child = context.Process(
            target=_fork_child, args=(sender, operator, operand)
        )
        child.start()
        sender.close()
        try:
            assert receiver.poll(60), "forked child never answered"
            product, workers, held = receiver.recv()
        finally:
            child.join(30)
            if child.is_alive():
                child.kill()
        assert child.exitcode == 0
        np.testing.assert_array_equal(product, reference)
        assert workers == 1 and held == 0

    def test_spawned_shard_workers_match_serial(self):
        graph = community_graph(6000, avg_degree=12, num_communities=8, seed=4)
        engine = Engine(CPIMethod(tol=1e-4), graph)
        seeds = np.arange(0, 6000, 94)  # 64 seeds: 2.3 M per shard stripe
        serial = engine.serve(seeds, k=10)
        with engine.shard(num_shards=2, start_method="spawn") as sharded:
            np.testing.assert_array_equal(sharded.serve(seeds, k=10), serial)

    def test_concurrent_callers_share_the_cores(
        self, _numpy_two_threads, above_floor, monkeypatch
    ):
        import threading

        backend_module = _numpy_two_threads
        operator, operand, reference = above_floor
        cores = backend_module._Cores()
        monkeypatch.setattr(backend_module, "_cores", cores)
        claim = cores.claim
        granted, peak = [], []

        def recording_claim():
            stripes = claim()
            granted.append(stripes)
            peak.append(cores.held)
            return stripes

        monkeypatch.setattr(cores, "claim", recording_claim)
        results, failures = {}, []

        def caller(slot):
            try:
                for _ in range(40):
                    results[slot] = kernels.spmm(operator, operand)
            except BaseException as error:  # noqa: BLE001 - reported below
                failures.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            callers = [
                threading.Thread(target=caller, args=(slot,), daemon=True)
                for slot in range(2)
            ]
            for thread in callers:
                thread.start()
            for thread in callers:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in callers)
        assert not failures
        for product in results.values():
            np.testing.assert_array_equal(product, reference)
        # A call never takes more than the ceiling, and a second caller
        # only ever adds its own thread on top of it.
        assert max(granted) <= 2 and min(granted) >= 1
        assert max(peak) <= kernels.num_threads() + 1
        assert cores._workers <= kernels.num_threads() - 1
        assert cores.held == 0

    def test_caller_keeps_its_core_between_kernel_calls(
        self, _numpy_two_threads, monkeypatch
    ):
        import threading

        backend_module = _numpy_two_threads
        cores = backend_module._Cores()
        other = threading.Thread(target=cores.touch, daemon=True)
        other.start()  # a small kernel call on another thread
        other.join(30)
        # That thread is between two kernel calls, not idle ...
        monkeypatch.setattr(backend_module, "CORE_LINGER", 3600.0)
        assert cores.claim() == 1
        cores.release(1)
        # ... until it has stayed away for the linger time.
        monkeypatch.setattr(backend_module, "CORE_LINGER", 0.0)
        assert cores.claim() == 2
        cores.release(2)
        assert cores.held == 0
        # A caller's own last call never counts against it.
        alone = backend_module._Cores()
        monkeypatch.setattr(backend_module, "CORE_LINGER", 3600.0)
        alone.touch()
        assert alone.claim() == 2
        alone.release(2)
        assert alone.claim() == 2

    @pytest.mark.parametrize("failing", ["caller stripe", "pool stripe"])
    def test_stripe_failure_propagates_and_frees_cores(
        self, _numpy_two_threads, above_floor, monkeypatch, failing
    ):
        backend_module = _numpy_two_threads
        operator, operand, reference = above_floor
        tile = backend_module._tile

        def broken(matrix, x, out, r0, r1):
            if (r0 == 0) == (failing == "caller stripe"):
                raise RuntimeError(f"boom in the {failing}")
            tile(matrix, x, out, r0, r1)

        monkeypatch.setattr(backend_module, "_tile", broken)
        with pytest.raises(RuntimeError, match=failing):
            kernels.spmm(operator, operand)
        assert backend_module._cores.held == 0
        monkeypatch.setattr(backend_module, "_tile", tile)
        np.testing.assert_array_equal(kernels.spmm(operator, operand), reference)

    def test_router_close_leaves_nothing_behind(
        self, _numpy_two_threads, small_community, monkeypatch
    ):
        import glob
        import threading

        from repro.engine import QueryRequest
        from repro.sharding import Router

        monkeypatch.setattr(_numpy_two_threads, "WORK_FLOOR", 0)
        method = create_method("tpa", s_iteration=4, t_iteration=8)
        with Router(method, small_community, num_shards=2) as router:
            answers = router.batch(
                [QueryRequest(seed=seed, k=5) for seed in range(8)]
            )
        assert len(answers) == 8
        assert not glob.glob(f"/dev/shm/repro-shm-{os.getpid()}-*")
        lingering = [
            thread.name for thread in threading.enumerate()
            if thread is not threading.main_thread() and not thread.daemon
        ]
        assert not lingering
