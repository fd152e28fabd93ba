"""Warm-restart contracts: ``cpi``/``cpi_many`` ``x0=`` guesses, the
method-layer gate (:attr:`PPRMethod.supports_warm_start`), TPA's warm
re-preprocess on dynamic graphs, and the Engine's ``warm_start`` flag.

The documented accuracy tier under test: a warm run from any finite
guess lands within ``2 * tol / c`` (L1) of the cold run — both runs
stop when the residual mass drops below ``tol``, and the residual bounds
the remaining score mass by ``1/c`` — and a **zero** guess reproduces
the cold run bitwise (the residual restart computes exactly the cold
first iterate when ``x0 == 0``).
"""

import numpy as np
import pytest

from repro import (
    CPIMethod,
    Engine,
    ParameterError,
    TPA,
    community_graph,
    cpi,
    cpi_many,
    kernels,
)
from repro.dynamic import DynamicGraph

#: The kernel backend's name, stamped into the test ids.
BACKENDS = (kernels.get_backend(),)


@pytest.fixture(scope="module")
def graph():
    return community_graph(400, avg_degree=8, num_communities=4, seed=11)


C = 0.15
TOL = 1e-9
WARM_BOUND = 2 * TOL / C


class TestCPIWarmStart:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_zero_guess_is_bitwise_cold(self, graph, backend):
        cold = cpi(graph, seeds=3, c=C, tol=TOL)
        warm = cpi(
            graph, seeds=3, c=C, tol=TOL,
            x0=np.zeros(graph.num_nodes),
        )
        assert np.array_equal(cold.scores, warm.scores)
        assert warm.iterations == cold.iterations

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_converged_guess_restarts_instantly(
        self, graph, backend
    ):
        cold = cpi(graph, seeds=3, c=C, tol=TOL)
        warm = cpi(graph, seeds=3, c=C, tol=TOL, x0=cold.scores)
        assert warm.iterations < cold.iterations
        assert np.abs(warm.scores - cold.scores).sum() <= WARM_BOUND

    def test_stale_guess_still_lands_in_tolerance(self, graph):
        # A guess from a *different* (perturbed) graph: still converges,
        # still within the documented band of the cold answer.
        dyn = DynamicGraph(graph)
        stale = cpi(dyn, seeds=7, c=C, tol=TOL).scores
        dyn.add_edges([(7, 350), (350, 7), (12, 300)])
        dyn.compact()
        cold = cpi(dyn, seeds=7, c=C, tol=TOL)
        warm = cpi(dyn, seeds=7, c=C, tol=TOL, x0=stale)
        assert warm.iterations <= cold.iterations
        assert np.abs(warm.scores - cold.scores).sum() <= WARM_BOUND

    def test_x0_rejects_partial_series(self, graph):
        x0 = np.zeros(graph.num_nodes)
        with pytest.raises(ParameterError):
            cpi(graph, seeds=0, start_iteration=2, x0=x0)
        with pytest.raises(ParameterError):
            cpi(graph, seeds=0, terminal_iteration=5, x0=x0)

    def test_x0_rejects_wrong_shape(self, graph):
        with pytest.raises(ParameterError):
            cpi(graph, seeds=0, x0=np.zeros(graph.num_nodes - 1))


class TestCPIManyWarmStart:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_zero_panel_is_bitwise_cold(self, graph, backend):
        seeds = [0, 5, 9]
        cold = cpi_many(graph, seeds, c=C, tol=TOL)
        warm = cpi_many(
            graph, seeds, c=C, tol=TOL,
            # x0 rides in the (n, B) iteration layout.
            x0=np.zeros((graph.num_nodes, len(seeds))),
        )
        assert np.array_equal(cold.scores, warm.scores)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_converged_panel_within_band(self, graph, backend):
        seeds = [0, 5, 9]
        cold = cpi_many(graph, seeds, c=C, tol=TOL)
        warm = cpi_many(graph, seeds, c=C, tol=TOL, x0=cold.scores.T.copy())
        per_seed = np.abs(warm.scores - cold.scores).sum(axis=1)
        assert float(per_seed.max()) <= WARM_BOUND

    def test_x0_rejects_wrong_layout(self, graph):
        seeds = [0, 5, 9]
        with pytest.raises(ParameterError):
            # (B, n) is the method-layer layout, not cpi_many's.
            cpi_many(graph, seeds, x0=np.zeros((3, graph.num_nodes)))
        with pytest.raises(ParameterError):
            cpi_many(graph, seeds, terminal_iteration=4,
                     x0=np.zeros((graph.num_nodes, 3)))


class TestMethodLayerGate:
    def test_cpi_method_accepts_row_major_guesses(self, graph):
        method = CPIMethod(c=C, tol=TOL)
        method.preprocess(graph)
        assert method.supports_warm_start
        seeds = np.array([2, 4])
        cold = method.query_many(seeds)
        warm = method.query_many(seeds, x0=cold)
        per_seed = np.abs(warm - cold).sum(axis=1)
        assert float(per_seed.max()) <= WARM_BOUND

    def test_cpi_method_rejects_wrong_shape(self, graph):
        method = CPIMethod(c=C, tol=TOL)
        method.preprocess(graph)
        with pytest.raises(ParameterError):
            method.query_many(np.array([2, 4]), x0=np.zeros((2, 10)))

    def test_tpa_rejects_warm_queries(self, graph):
        method = TPA(s_iteration=4, t_iteration=8, c=C)
        method.preprocess(graph)
        assert not method.supports_warm_start
        with pytest.raises(ParameterError):
            method.query_many(
                np.array([0]), x0=np.zeros((1, graph.num_nodes))
            )


class TestTPAWarmRePreprocess:
    def test_warm_re_preprocess_matches_fresh(self, graph):
        dyn = DynamicGraph(graph)
        method = TPA(s_iteration=4, t_iteration=8, c=C, tol=TOL)
        method.preprocess(dyn)
        assert method._pagerank is not None  # retained on dynamic graphs
        dyn.add_edges([(1, 399), (399, 1), (20, 340)])
        dyn.compact()
        method.preprocess(dyn)  # warm path: restarts from the retained iterate

        fresh = TPA(s_iteration=4, t_iteration=8, c=C, tol=TOL)
        fresh.preprocess(dyn)
        assert np.abs(method._stranger - fresh._stranger).sum() <= WARM_BOUND
        got = method.query(0)
        want = fresh.query(0)
        assert np.abs(got - want).sum() <= WARM_BOUND

    def test_static_graph_keeps_minimal_footprint(self, graph):
        method = TPA(s_iteration=4, t_iteration=8, c=C)
        method.preprocess(graph)
        # No epoch_token on the frozen graph: nothing retained beyond the
        # stranger vector, exactly the pre-dynamic footprint.
        assert method._pagerank is None


class TestEngineWarmStartFlag:
    def test_disabled_warm_start_is_cold_bitwise(self, graph):
        dyn = DynamicGraph(graph)
        engine = Engine(
            CPIMethod(c=C, tol=TOL), dyn, cache_size=8, warm_start=False
        )
        seed = 6
        engine.query(seed)            # caches the pre-mutation vector
        dyn.add_edges([(6, 390)])
        got = engine.query(seed).scores
        want = cpi(dyn, seeds=seed, c=C, tol=TOL).scores
        assert np.array_equal(got, want)

    def test_enabled_warm_start_within_band(self, graph):
        dyn = DynamicGraph(graph)
        engine = Engine(CPIMethod(c=C, tol=TOL), dyn, cache_size=8)
        seed = 6
        engine.query(seed)
        dyn.add_edges([(6, 390)])
        got = engine.query(seed).scores
        want = cpi(dyn, seeds=seed, c=C, tol=TOL).scores
        assert np.abs(got - want).sum() <= WARM_BOUND
