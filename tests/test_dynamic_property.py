"""Property-based equivalence of the dynamic overlay against a
rebuild-from-scratch oracle.

Random interleavings of ``add_edges`` / ``remove_edges`` / query /
``compact`` run against a :class:`~repro.dynamic.DynamicGraph` while a
mirrored edge set rebuilds the mutated graph from scratch at every
checkpoint.  While mutations are pending the overlay product must agree
with the oracle inside the documented ``~overlay-1e-12`` accuracy tier
(amplified through CPI's convergent series); immediately after
``compact`` the CSR — and therefore every score — must be **bitwise**
identical to the from-scratch build.

A deterministic interleaving additionally runs through the Engine under
both compute dtypes (float64 / float32).
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import CPIMethod, Engine, Graph, community_graph, cpi, kernels
from repro.dynamic import DynamicGraph

#: The kernel backend's name, stamped into the test ids.
BACKENDS = (kernels.get_backend(),)

#: Pending-overlay score tolerance: OVERLAY_TOLERANCE per entry,
#: amplified by the 1/c series factor and n accumulations.
OVERLAY_SCORE_TOL = 1e-8


@pytest.fixture
def dtype_restore():
    previous = kernels.compute_dtype()
    yield
    kernels.set_compute_dtype(previous)


def _base_graph(n, seed):
    # Rebuilt under the "uniform" dangling policy so deletions that empty
    # a row stay legal mid-interleaving.
    generated = community_graph(n, avg_degree=4, num_communities=3, seed=seed)
    src, dst = generated.edges()
    return Graph(n, src, dst, dangling="uniform")


def _mirror(graph):
    src, dst = graph.edges()
    return set(zip(src.tolist(), dst.tolist()))


def _oracle(n, edge_set):
    pairs = np.asarray(sorted(edge_set), dtype=np.int64)
    return Graph(n, pairs[:, 0], pairs[:, 1], dangling="uniform")


_OPS = st.lists(
    st.tuples(
        st.sampled_from(["add", "remove", "query", "compact"]),
        st.integers(min_value=0, max_value=79),
        st.integers(min_value=0, max_value=79),
    ),
    min_size=4,
    max_size=24,
)


class TestRandomInterleavings:
    @pytest.mark.parametrize("backend", BACKENDS)
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow,
                               HealthCheck.function_scoped_fixture],
    )
    @given(ops=_OPS, n=st.integers(min_value=30, max_value=80),
           seed=st.integers(min_value=0, max_value=999))
    def test_interleaving_matches_rebuild_oracle(
        self, backend, ops, n, seed
    ):
        base = _base_graph(n, seed)
        dyn = DynamicGraph(base)
        mirror = _mirror(base)
        for verb, a, b in ops:
            a %= n
            b %= n
            if verb == "add":
                applied = dyn.add_edges([(a, b)])
                if a != b and (a, b) not in mirror:
                    assert applied == 1
                    mirror.add((a, b))
                else:
                    assert applied == 0
            elif verb == "remove":
                if len(mirror) <= 1:
                    continue
                applied = dyn.remove_edges([(a, b)])
                if (a, b) in mirror:
                    assert applied == 1
                    mirror.discard((a, b))
                else:
                    assert applied == 0
            elif verb == "query":
                want = cpi(_oracle(n, mirror), seeds=a).scores
                got = cpi(dyn, seeds=a).scores
                assert np.abs(got - want).sum() <= OVERLAY_SCORE_TOL
            else:  # compact
                dyn.compact()
                oracle = _oracle(n, mirror)
                adjacency = dyn.base_graph.adjacency
                assert np.array_equal(adjacency.indptr, oracle.adjacency.indptr)
                assert np.array_equal(
                    adjacency.indices, oracle.adjacency.indices
                )
                x = np.linspace(0.0, 1.0, n)
                assert np.array_equal(
                    dyn.propagate(x), oracle.propagate(x)
                )
        # Terminal checkpoint: compact once more and demand bitwise.
        dyn.compact()
        oracle = _oracle(n, mirror)
        got = cpi(dyn, seeds=0).scores
        want = cpi(oracle, seeds=0).scores
        assert np.array_equal(got, want)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_engine_deterministic_interleaving(backend, dtype, dtype_restore):
    """One fixed add/remove/query/compact tape through the Engine under
    each compute dtype."""
    kernels.set_compute_dtype(dtype)
    tol = 5e-8 if dtype == "float64" else 5e-4
    n = 120
    base = _base_graph(n, seed=23)
    dyn = DynamicGraph(base)
    mirror = _mirror(base)
    engine = Engine(CPIMethod(), dyn, cache_size=16)

    def check(seed):
        oracle_engine = Engine(CPIMethod(), _oracle(n, mirror), cache_size=0)
        got = engine.query(seed).scores
        want = oracle_engine.query(seed).scores
        assert np.abs(got - want).sum() <= tol

    check(0)
    for s, t in [(0, 60), (60, 0), (5, 100), (100, 5)]:
        assert dyn.add_edges([(s, t)]) == 1
        mirror.add((s, t))
    check(0)
    check(7)
    dyn.compact()
    check(0)
    victims = [(5, 100), (0, 60)]
    for s, t in victims:
        assert dyn.remove_edges([(s, t)]) == 1
        mirror.discard((s, t))
    check(7)
    dyn.compact()
    check(7)
    # The same seed twice post-compact: second hit must come from cache.
    before = engine.stats()["cache_hits"]
    engine.query(7)
    assert engine.stats()["cache_hits"] == before + 1
