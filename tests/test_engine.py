"""Tests for the batched query engine (repro.engine.Engine)."""

import numpy as np
import pytest

from repro.core.tpa import TPA
from repro.engine import Engine, QueryRequest, create_method
from repro.exceptions import ParameterError


@pytest.fixture(scope="module")
def engine(small_community):
    return Engine(
        create_method("tpa", s_iteration=4, t_iteration=8), small_community
    )


class TestLifecycle:
    def test_constructor_preprocesses(self, small_community):
        method = create_method("tpa")
        assert not method.is_preprocessed
        engine = Engine(method, small_community)
        assert method.is_preprocessed
        assert engine.preprocess_seconds > 0
        assert engine.graph is small_community

    def test_adopts_preprocessed_method(self, small_community):
        method = TPA(s_iteration=3, t_iteration=6)
        method.preprocess(small_community)
        engine = Engine(method)
        assert engine.preprocess_seconds == 0.0
        assert engine.graph is small_community

    def test_requires_graph_or_preprocessed_method(self):
        with pytest.raises(ParameterError):
            Engine(create_method("tpa"))

    def test_negative_cache_size_rejected(self, small_community):
        with pytest.raises(ParameterError):
            Engine(create_method("tpa"), small_community, cache_size=-1)


class TestQueryResults:
    def test_full_vector_result(self, engine, small_community):
        result = engine.query(5)
        assert result.scores.shape == (small_community.num_nodes,)
        assert result.top_nodes is None
        assert result.seed == 5
        assert result.method == "TPA"
        assert result.seconds > 0
        assert result.preprocessed_bytes == engine.method.preprocessed_bytes()
        assert result.cached is False

    def test_matches_direct_query(self, engine):
        np.testing.assert_array_equal(
            engine.query(9).scores, engine.method.query(9)
        )

    def test_error_bound_forwarded(self, engine):
        result = engine.query(0)
        assert result.error_bound == pytest.approx(engine.method.error_bound())

    def test_no_error_bound_methods_report_none(self, small_community):
        engine = Engine(create_method("bear"), small_community)
        assert engine.query(0).error_bound is None

    def test_top_k_result(self, engine):
        result = engine.query(5, k=7)
        assert result.scores is None
        assert result.top_nodes.shape == (7,)
        np.testing.assert_array_equal(
            result.top_nodes, engine.method.top_k(5, 7)
        )
        full = engine.method.query(5)
        np.testing.assert_array_equal(result.top_scores,
                                      full[result.top_nodes])

    def test_top_k_exclusion_flags(self, engine):
        included = engine.query(5, k=3, exclude_seed=False)
        assert included.top_nodes[0] == 5  # the seed ranks first in its RWR
        excluded = engine.query(5, k=3)
        assert 5 not in excluded.top_nodes

    def test_invalid_k_rejected(self, engine):
        # Non-integral and bool k are errors, never truncated to an int.
        for bad in (0, -1, 2.5, 3.0, True, "3"):
            with pytest.raises(ParameterError):
                engine.query(0, k=bad)
            with pytest.raises(ParameterError):
                engine.serve([0], k=bad)

    def test_invalid_k_rejected_before_compute(self, engine):
        """A malformed request fails fast: no online pass runs, no stats
        half-update happens."""
        before = engine.stats()
        for bad in (0, 2.5, True):
            with pytest.raises(ParameterError):
                engine.batch(
                    [QueryRequest(seed=1), QueryRequest(seed=2, k=bad)]
                )
        assert engine.stats() == before

    def test_out_of_range_seed_rejected(self, engine, small_community):
        with pytest.raises(ParameterError):
            engine.query(small_community.num_nodes)


class TestBatch:
    def test_empty_batch(self, engine):
        assert engine.batch([]) == []

    def test_order_preserved(self, engine):
        seeds = [9, 2, 5, 2]
        results = engine.batch([QueryRequest(seed=s) for s in seeds])
        assert [r.seed for r in results] == seeds

    def test_duplicate_seeds_share_compute(self, engine):
        results = engine.batch(
            [QueryRequest(seed=4), QueryRequest(seed=4), QueryRequest(seed=4)]
        )
        assert results[0].cached is False
        assert results[1].cached is True and results[1].seconds == 0.0
        np.testing.assert_array_equal(results[0].scores, results[1].scores)

    def test_mixed_request_shapes(self, engine):
        results = engine.batch(
            [QueryRequest(seed=1), QueryRequest(seed=2, k=5)]
        )
        assert results[0].scores is not None
        assert results[1].top_nodes.shape == (5,)

    def test_batch_matches_query_many(self, engine):
        seeds = np.array([1, 2, 3])
        results = engine.batch([QueryRequest(seed=int(s)) for s in seeds])
        matrix = engine.method.query_many(seeds)
        for row, result in zip(matrix, results):
            np.testing.assert_array_equal(result.scores, row)


class TestCache:
    def test_cache_hit_and_eviction(self, small_community):
        engine = Engine(
            create_method("tpa", s_iteration=3, t_iteration=6),
            small_community, cache_size=2,
        )
        first = engine.query(1)
        again = engine.query(1)
        assert first.cached is False and again.cached is True
        assert again.seconds == 0.0
        np.testing.assert_array_equal(first.scores, again.scores)

        engine.query(2)
        engine.query(3)  # evicts seed 1 (LRU capacity 2)
        assert engine.query(1).cached is False
        stats = engine.stats()
        assert stats["cache_hits"] == 1
        assert stats["cache_entries"] == 2

    def test_cached_vectors_are_read_only(self, small_community):
        engine = Engine(
            create_method("tpa", s_iteration=3, t_iteration=6),
            small_community, cache_size=2,
        )
        result = engine.query(1)
        with pytest.raises(ValueError):
            result.scores[0] = 99.0

    def test_cache_serves_top_k_requests(self, small_community):
        engine = Engine(
            create_method("tpa", s_iteration=3, t_iteration=6),
            small_community, cache_size=4,
        )
        full = engine.query(6)
        top = engine.query(6, k=5)
        assert top.cached is True
        np.testing.assert_array_equal(
            top.top_nodes, engine.method.top_k(6, 5)
        )
        assert full.scores is not None

    def test_clear_cache(self, small_community):
        engine = Engine(
            create_method("tpa", s_iteration=3, t_iteration=6),
            small_community, cache_size=2,
        )
        engine.query(1)
        engine.clear_cache()
        assert engine.query(1).cached is False


class TestServe:
    def test_shape_and_agreement(self, engine):
        seeds = [0, 5, 9]
        rankings = engine.serve(seeds, k=10)
        assert rankings.shape == (3, 10)
        assert rankings.dtype == np.int64
        for seed, row in zip(seeds, rankings):
            np.testing.assert_array_equal(row, engine.method.top_k(seed, 10))

    def test_stats_accumulate(self, small_community):
        engine = Engine(
            create_method("tpa", s_iteration=3, t_iteration=6),
            small_community,
        )
        engine.serve([0, 1], k=3)
        engine.query(2)
        stats = engine.stats()
        assert stats["queries_served"] == 3
        assert stats["online_seconds"] > 0


class TestAdaptiveStreamBlock:
    def test_fixed_default(self, engine):
        assert engine.stream_block == 128
        assert engine.memory_budget_bytes is None

    def test_auto_derives_from_budget_and_dtype(self, small_community):
        from repro import kernels

        budget = 1 << 20
        auto = Engine(
            create_method("tpa", s_iteration=3, t_iteration=6),
            small_community, stream_block="auto",
            memory_budget_bytes=budget,
        )
        n = small_community.num_nodes
        itemsize = np.dtype(kernels.compute_dtype()).itemsize
        expected = max(1, min(budget // (n * (3 * itemsize + 1)), 4096))
        assert auto.stream_block == expected
        assert auto.memory_budget_bytes == budget

    def test_budget_alone_implies_auto(self, small_community):
        tight = Engine(
            create_method("tpa", s_iteration=3, t_iteration=6),
            small_community, memory_budget_bytes=1,
        )
        assert tight.stream_block == 1  # floor: always at least one seed

    def test_auto_default_budget(self, small_community):
        auto = Engine(
            create_method("tpa", s_iteration=3, t_iteration=6),
            small_community, stream_block="auto",
        )
        assert auto.memory_budget_bytes == 64 << 20
        assert 1 <= auto.stream_block <= 4096

    def test_invalid_values_rejected(self, small_community):
        from repro.exceptions import ParameterError

        method = create_method("tpa", s_iteration=3, t_iteration=6)
        with pytest.raises(ParameterError):
            Engine(method, small_community, stream_block="huge")
        with pytest.raises(ParameterError):
            Engine(method, small_community, stream_block=0)
        with pytest.raises(ParameterError):
            Engine(method, small_community, memory_budget_bytes=0)
        with pytest.raises(ParameterError):
            # A fixed width and a budget contradict each other.
            Engine(
                method, small_community,
                stream_block=64, memory_budget_bytes=1 << 20,
            )

    def test_auto_streamed_results_match_fixed(self, small_community):
        method = create_method("tpa", s_iteration=3, t_iteration=6)
        method.preprocess(small_community)
        requests = [
            QueryRequest(seed=seed % 40, k=7) for seed in range(120)
        ]
        fixed = Engine(method, stream_block=16).batch(requests)
        # A tight budget forces multi-block streaming on the same data.
        auto = Engine(
            method, stream_block="auto",
            memory_budget_bytes=32 * small_community.num_nodes,
        ).batch(requests)
        for a, b in zip(fixed, auto):
            np.testing.assert_array_equal(a.top_nodes, b.top_nodes)
            np.testing.assert_array_equal(a.top_scores, b.top_scores)


class TestSharedCacheParameter:
    def test_cache_object_and_size_are_exclusive(self, small_community):
        from repro.exceptions import ParameterError
        from repro.serving import ScoreCache

        with pytest.raises(ParameterError):
            Engine(
                create_method("tpa", s_iteration=3, t_iteration=6),
                small_community, cache_size=4, cache=ScoreCache(4),
            )

    def test_shared_cache_across_engines(self, small_community):
        from repro.serving import ScoreCache

        shared = ScoreCache(8)
        method = create_method("tpa", s_iteration=3, t_iteration=6)
        method.preprocess(small_community)
        first = Engine(method, cache=shared)
        second = Engine(method.replicate(), cache=shared)
        assert first.query(3).cached is False
        assert second.query(3).cached is True  # hit via the shared cache
        assert shared.stats()["hits"] == 1
