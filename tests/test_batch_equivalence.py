"""Batch-vs-single equivalence: ``query_many`` must reproduce ``query``.

Property-style checks over every registry method on a small community
graph: the rows of one batched call equal the stacked single-seed queries
of an identically-constructed fresh instance (fresh, so stochastic methods
consume their RNG streams the same way in both runs).  The vectorized
overrides (TPA, CPI, BRPPR/RPPR, NB_LIN, BEAR, BePI) are additionally held
to near-bitwise tolerance.

Also covers the seed-dtype normalization regression: every entry point
accepts NumPy integer seeds and rejects floats/bools uniformly.
"""

import numpy as np
import pytest

from repro.engine import available_methods, create_method
from repro.exceptions import ParameterError
from repro.method import select_top_k

#: Constructor overrides keeping the slow stochastic methods tractable on
#: the 400-node fixture; everything else runs with registry defaults.
FAST_PARAMS: dict[str, dict] = {
    "tpa": dict(s_iteration=4, t_iteration=8),
    "nblin": dict(rank=20, seed=0),
    "hubppr": dict(seed=0, max_walks=5_000, refine_top=30),
    "fora": dict(seed=0),
    "bippr": dict(seed=0, max_walks=10_000),
    "fastppr": dict(seed=0, max_walks=10_000),
}

#: Methods whose ``_query_many`` is a true vectorized override; their
#: batched rows must match single-seed queries to float-roundoff levels.
VECTORIZED = ("tpa", "cpi", "brppr", "rppr", "nblin", "bear", "bepi")

SEEDS = np.array([0, 7, 33, 250, 7, 399], dtype=np.int64)


def _make(name):
    return create_method(name, **FAST_PARAMS.get(name, {}))


@pytest.mark.parametrize("name", available_methods())
def test_query_many_matches_single_queries(name, small_community):
    batched = _make(name)
    batched.preprocess(small_community)
    matrix = batched.query_many(SEEDS)
    assert matrix.shape == (SEEDS.size, small_community.num_nodes)

    looped = _make(name)
    looped.preprocess(small_community)
    stacked = np.stack([looped.query(int(seed)) for seed in SEEDS])
    np.testing.assert_allclose(matrix, stacked, rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("name", VECTORIZED)
def test_vectorized_overrides_are_exact(name, small_community):
    """The power-iteration methods propagate the whole seed matrix; their
    batched arithmetic is engineered to match the single-seed run bit for
    bit (NB_LIN's dense BLAS path is allowed last-ulp drift)."""
    method = _make(name)
    method.preprocess(small_community)
    matrix = method.query_many(SEEDS)
    stacked = np.stack([method.query(int(seed)) for seed in SEEDS])
    if name == "nblin":
        np.testing.assert_allclose(matrix, stacked, rtol=0, atol=1e-14)
    else:
        np.testing.assert_array_equal(matrix, stacked)


def test_query_many_on_disk_graph(small_community, tmp_path):
    """Batched queries work on duck-typed substrates without an in-memory
    CSR transition (regression: the gather fast paths must not assume
    Graph internals)."""
    from repro.graph.diskgraph import DiskGraph

    disk = DiskGraph.build(small_community, tmp_path / "disk",
                           rows_per_stripe=64)
    method = _make("tpa")
    method.preprocess(disk)
    matrix = method.query_many(SEEDS[:3])
    stacked = np.stack([method.query(int(seed)) for seed in SEEDS[:3]])
    np.testing.assert_allclose(matrix, stacked, rtol=1e-12, atol=1e-15)

    reference = _make("tpa")
    reference.preprocess(small_community)
    np.testing.assert_allclose(
        matrix, reference.query_many(SEEDS[:3]), rtol=1e-9, atol=1e-12
    )


def test_query_many_empty_batch(small_community):
    method = _make("tpa")
    method.preprocess(small_community)
    result = method.query_many([])
    assert result.shape == (0, small_community.num_nodes)


def test_top_k_many_matches_top_k(small_community):
    method = _make("tpa")
    method.preprocess(small_community)
    seeds = [3, 11, 3]
    rankings = method.top_k_many(seeds, 20, exclude_neighbors=True)
    assert rankings.shape == (3, 20)
    for row, seed in zip(rankings, seeds):
        expected = method.top_k(seed, 20, exclude_neighbors=True)
        np.testing.assert_array_equal(row[: expected.size], expected)
        assert (row[expected.size:] == -1).all()


def test_top_k_many_pads_with_minus_one(tiny_ring):
    method = _make("cpi")
    method.preprocess(tiny_ring)
    rankings = method.top_k_many([0], 50)
    assert rankings.shape == (1, 50)
    # 10-node ring, seed excluded: 9 real entries then padding.
    assert (rankings[0, :9] >= 0).all()
    assert (rankings[0, 9:] == -1).all()


class TestTopKSelection:
    """select_top_k must reproduce the stable full-argsort ranking."""

    def test_matches_stable_argsort(self, rng):
        scores = rng.random(500)
        scores[100:120] = scores[100]  # force ties
        reference = np.argsort(-scores, kind="stable")[:50]
        np.testing.assert_array_equal(select_top_k(scores, 50), reference)

    def test_banned_filtering(self, rng):
        scores = rng.random(300)
        banned = np.zeros(300, dtype=bool)
        banned[scores.argmax()] = True
        banned[:50] = True
        picks = select_top_k(scores, 40, banned)
        assert not banned[picks].any()
        reference = [i for i in np.argsort(-scores, kind="stable")
                     if not banned[i]][:40]
        np.testing.assert_array_equal(picks, reference)

    def test_k_larger_than_available(self):
        scores = np.array([0.5, 0.1, 0.9])
        banned = np.array([False, True, False])
        picks = select_top_k(scores, 10, banned)
        np.testing.assert_array_equal(picks, [2, 0])

    def test_everything_banned(self):
        scores = np.array([0.5, 0.1])
        picks = select_top_k(scores, 3, np.array([True, True]))
        assert picks.size == 0


class TestSeedNormalization:
    """Regression: seed dtype handling is uniform across all baselines."""

    @pytest.fixture(scope="class")
    def method(self, small_community):
        method = _make("tpa")
        method.preprocess(small_community)
        return method

    @pytest.mark.parametrize("dtype", [np.int8, np.int32, np.int64,
                                       np.uint8, np.uint32])
    def test_numpy_integer_scalars_accepted(self, method, dtype):
        expected = method.query(5)
        np.testing.assert_array_equal(method.query(dtype(5)), expected)
        assert method.top_k(dtype(5), 3).size == 3

    def test_numpy_integer_scalars_accepted_everywhere(self, small_community):
        for name in ("brppr", "fora", "bear", "bepi"):
            method = _make(name)
            method.preprocess(small_community)
            np.testing.assert_array_equal(
                method.query(np.int32(4)), method.query(4)
            )

    @pytest.mark.parametrize("bad", [1.5, np.float64(2.0), "3", None, True,
                                     np.bool_(True)])
    def test_non_integer_scalars_rejected(self, method, bad):
        with pytest.raises(TypeError):
            method.query(bad)

    def test_integer_array_dtypes_accepted(self, method):
        expected = method.query_many(np.array([1, 2], dtype=np.int64))
        for dtype in (np.int16, np.int32, np.uint16):
            got = method.query_many(np.array([1, 2], dtype=dtype))
            np.testing.assert_array_equal(got, expected)

    def test_float_and_bool_arrays_rejected(self, method):
        with pytest.raises(TypeError):
            method.query_many(np.array([1.0, 2.0]))
        with pytest.raises(TypeError):
            method.query_many(np.array([True, False]))

    def test_out_of_range_batch_rejected(self, method, small_community):
        n = small_community.num_nodes
        with pytest.raises(ParameterError):
            method.query_many([0, n])
        with pytest.raises(ParameterError):
            method.query_many([-1, 0])

    def test_two_dimensional_batch_rejected(self, method):
        with pytest.raises(ParameterError):
            method.query_many(np.array([[1, 2], [3, 4]]))

    def test_cpi_many_rejects_float_seeds(self, small_community):
        """The low-level batched CPI enforces the same dtype rules — no
        silent float truncation through the public cpi_many export."""
        from repro.core.cpi import cpi_many

        with pytest.raises(ParameterError, match="integer"):
            cpi_many(small_community, [1.9])
        with pytest.raises(ParameterError, match="integer"):
            cpi_many(small_community, np.array([True, False]))


class TestServedRowsOwnTheirMemory:
    """TPA hands the engine one C-contiguous ``(B, n)`` block.  Rows that
    outlive the call must be copies (a view would pin the whole block),
    and every serving surface must still reproduce the serial
    single-seed online phase bit for bit."""

    K = 10

    @pytest.fixture
    def striped(self, monkeypatch):
        # Lift the work floor so the fixture-sized kernels really split.
        from repro.kernels import _numpy_backend

        monkeypatch.setattr(_numpy_backend, "WORK_FLOOR", 0)

    @pytest.fixture(scope="class")
    def serial(self, small_community):
        """Per-seed scores and rankings from the single-seed path on one
        kernel thread — the execution every release before the stripes
        had."""
        from repro import kernels

        previous = kernels.set_num_threads(1)
        try:
            method = _make("tpa")
            method.preprocess(small_community)
            scores = {int(s): method.query(int(s)) for s in set(SEEDS.tolist())}
        finally:
            kernels.set_num_threads(previous)
        top = {}
        for seed, vector in scores.items():
            banned = np.zeros(vector.size, dtype=bool)
            banned[seed] = True
            top[seed] = select_top_k(vector, self.K, banned)
        return scores, top

    def test_query_many_block_is_contiguous(self, small_community):
        method = _make("tpa")
        method.preprocess(small_community)
        block = method.query_many(SEEDS)
        assert block.flags.c_contiguous and block.flags.owndata

    @pytest.mark.parametrize("cache_size", [0, 8])
    def test_full_vector_results_do_not_pin_the_block(
        self, small_community, serial, cache_size
    ):
        from repro.engine import Engine, QueryRequest

        engine = Engine(_make("tpa"), small_community, cache_size=cache_size)
        results = engine.batch([QueryRequest(seed=int(s)) for s in SEEDS])
        for result in results:
            assert result.scores.base is None
            assert result.scores.nbytes == 8 * small_community.num_nodes
            np.testing.assert_array_equal(
                result.scores, serial[0][result.seed]
            )
        if cache_size:
            for seed in set(SEEDS.tolist()):
                entry = engine.cache.get(seed)
                assert entry is not None and entry.base is None

    def test_every_surface_matches_the_serial_reference(
        self, small_community, serial, striped
    ):
        from repro.engine import Engine, QueryRequest
        from repro.serving import Server
        from repro.sharding import Router

        scores, top = serial
        requests = [QueryRequest(seed=int(s), k=self.K) for s in SEEDS]

        def check(results):
            for result in results:
                np.testing.assert_array_equal(
                    result.top_nodes, top[result.seed]
                )
                np.testing.assert_array_equal(
                    result.top_scores, scores[result.seed][top[result.seed]]
                )

        engine = Engine(_make("tpa"), small_community)
        check(engine.batch(requests))
        served = engine.serve(SEEDS, self.K)
        for row, seed in zip(served, SEEDS.tolist()):
            np.testing.assert_array_equal(row, top[seed])
        with Server(_make("tpa"), small_community, workers=2) as server:
            check(server.batch(requests))
        with Router(_make("tpa"), small_community, num_shards=2) as router:
            check(router.batch(requests))
