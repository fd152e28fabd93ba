"""The blocked ranking pipeline: panel transposition + fused top-k.

Contracts asserted here:

* ``rows_from_panel`` equals the contiguous transpose and hands a fused
  epilogue every row exactly once;
* ``select_top_k_many`` matches the looped ``select_top_k`` reference
  including ban masks and tie ordering;
* the Engine's streamed top-k paths (``batch`` column blocks, chunked
  ``serve``) return exactly what the materialized paths return.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import kernels
from repro.engine import Engine, QueryRequest, create_method
from repro.exceptions import ParameterError
from repro.kernels import select_top_k, select_top_k_many
from repro.method import banned_mask, banned_mask_many

_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)


class TestRowsFromPanel:
    """The cache-blocked ``(n, B)`` → ``(B, n)`` transposition copies
    values exactly, whatever the tile height divides into."""

    @pytest.mark.parametrize(
        "shape", [(1, 1), (7, 3), (20_001, 1), (5_000, 64), (300, 2_000)]
    )
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_equals_contiguous_transpose(self, shape, dtype):
        panel = np.random.default_rng(0).random(shape).astype(dtype)
        rows = kernels.rows_from_panel(panel)
        assert rows.flags.c_contiguous and rows.dtype == dtype
        np.testing.assert_array_equal(rows, panel.T)

    def test_fused_epilogue_sees_every_row_once(self):
        panel = np.random.default_rng(1).random((5_000, 48))
        shift = np.arange(5_000, dtype=np.float64)
        seen = []

        def fuse(tile, r0, r1, scratch):
            seen.append((r0, r1))
            assert scratch.shape == tile.shape
            np.add(tile, shift[r0:r1, np.newaxis], out=scratch)
            return scratch

        rows = kernels.rows_from_panel(panel, fuse=fuse)
        np.testing.assert_array_equal(rows, (panel + shift[:, None]).T)
        assert seen[0][0] == 0 and seen[-1][1] == 5_000
        assert all(a[1] == b[0] for a, b in zip(seen, seen[1:]))


class TestSelectTopKMany:
    """The public dispatcher (numpy fallback in this environment)."""

    @_SETTINGS
    @given(
        n=st.integers(1, 120),
        k=st.integers(1, 140),
        batch=st.integers(0, 6),
        ban_fraction=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_looped_select_top_k(
        self, n, k, batch, ban_fraction, seed
    ):
        rng = np.random.default_rng(seed)
        scores = rng.integers(0, 6, size=(batch, n)).astype(np.float64)
        banned = rng.random((batch, n)) < ban_fraction
        result = select_top_k_many(scores, k, banned=banned)
        assert result.shape == (batch, k) and result.dtype == np.int64
        for row in range(batch):
            picks = select_top_k(scores[row], k, banned[row])
            np.testing.assert_array_equal(result[row, : picks.size], picks)
            assert (result[row, picks.size:] == -1).all()

    def test_transposed_scores_accepted(self, rng):
        """cpi_many returns transposed iterate buffers; selection must
        not choke on (or copy) non-contiguous rows."""
        base = np.asfortranarray(rng.random((5, 40)))
        assert not base.flags.c_contiguous
        result = select_top_k_many(base, 3)
        for row in range(5):
            np.testing.assert_array_equal(
                result[row], select_top_k(base[row], 3)
            )

    def test_out_buffer_contract(self, rng):
        scores = rng.random((3, 20))
        out = np.empty((3, 4), dtype=np.int64)
        assert select_top_k_many(scores, 4, out=out) is out
        with pytest.raises(ParameterError):
            select_top_k_many(scores, 4, out=np.empty((3, 5), dtype=np.int64))
        with pytest.raises(ParameterError):
            select_top_k_many(scores, 4, out=np.empty((3, 4), dtype=np.int32))
        with pytest.raises(ParameterError):
            select_top_k_many(scores, 0)
        with pytest.raises(ParameterError):
            select_top_k_many(scores[0], 4)
        with pytest.raises(ParameterError):
            select_top_k_many(scores, 4, banned=np.zeros((3, 19), dtype=bool))

    def test_scratch_does_not_change_select_top_k(self, rng):
        scores = rng.random(200)
        banned = rng.random(200) < 0.3
        scratch = np.full(200, np.nan)
        np.testing.assert_array_equal(
            select_top_k(scores, 17, banned, scratch=scratch),
            select_top_k(scores, 17, banned),
        )


class TestBannedMasks:
    def test_banned_mask_out_reuse(self, small_community):
        out = np.ones(small_community.num_nodes, dtype=bool)
        mask = banned_mask(small_community, 3, True, True, out=out)
        assert mask is out
        reference = banned_mask(small_community, 3, True, True)
        np.testing.assert_array_equal(mask, reference)
        # Stale contents from a previous request are fully cleared.
        mask2 = banned_mask(small_community, 5, True, False, out=out)
        assert mask2 is out
        np.testing.assert_array_equal(
            mask2, banned_mask(small_community, 5, True, False)
        )

    def test_banned_mask_many_matches_per_row(self, small_community):
        seeds = np.array([0, 9, 17, 9], dtype=np.int64)
        many = banned_mask_many(small_community, seeds, True, True)
        for row, seed in enumerate(seeds.tolist()):
            np.testing.assert_array_equal(
                many[row], banned_mask(small_community, seed, True, True)
            )
        assert banned_mask_many(small_community, seeds, False, False) is None

    def test_huge_mask_not_retained_by_top_k_many(
        self, small_community, monkeypatch
    ):
        """Over the retain limit, the (B, n) mask is transient: a one-off
        wide batch must not pin batch-sized memory (or distort
        preprocessed_bytes) for the method's lifetime."""
        import repro.method as method_module
        from repro.engine import create_method

        method = create_method("cpi")
        method.preprocess(small_community)
        monkeypatch.setattr(method_module, "_RANK_MASK_RETAIN_LIMIT", 0)
        rankings = method.top_k_many([0, 1, 2], 5, exclude_neighbors=True)
        assert rankings.shape == (3, 5)
        assert "rank.banned_many" not in method._workspace._buffers
        # Under the limit the buffer is retained and reused.
        monkeypatch.setattr(
            method_module, "_RANK_MASK_RETAIN_LIMIT", 1 << 26
        )
        method.top_k_many([0, 1, 2], 5, exclude_neighbors=True)
        first = method._workspace._buffers["rank.banned_many"]
        method.top_k_many([3, 4, 5], 5, exclude_neighbors=True)
        assert method._workspace._buffers["rank.banned_many"] is first

    def test_banned_mask_many_out_reuse(self, small_community):
        seeds = np.array([2, 4], dtype=np.int64)
        out = np.ones((2, small_community.num_nodes), dtype=bool)
        many = banned_mask_many(small_community, seeds, True, False, out=out)
        assert many is out
        assert int(many.sum()) == 2


class TestEngineStreaming:
    @pytest.fixture(scope="class")
    def engines(self, medium_community):
        def build(**kwargs):
            return Engine(
                create_method("tpa", s_iteration=4, t_iteration=8),
                medium_community, **kwargs,
            )
        return build

    def test_streamed_batch_matches_materialized(self, engines):
        rng = np.random.default_rng(11)
        seeds = rng.choice(1500, size=40, replace=True)
        requests = [
            QueryRequest(seed=int(s), k=10, exclude_neighbors=(i % 3 == 0))
            for i, s in enumerate(seeds)
        ]
        materialized = engines(stream_block=10_000).batch(requests)
        streamed = engines(stream_block=7).batch(requests)
        for a, b in zip(materialized, streamed):
            assert a.seed == b.seed and a.cached == b.cached
            assert a.scores is None and b.scores is None
            np.testing.assert_array_equal(a.top_nodes, b.top_nodes)
            np.testing.assert_array_equal(a.top_scores, b.top_scores)

    def test_fused_homogeneous_batch_matches_materialized(self, engines):
        """Uniform (k, exclusion) requests take the fused per-block
        select_top_k_many branch — results must still be identical."""
        rng = np.random.default_rng(23)
        seeds = rng.choice(1500, size=30, replace=True)
        requests = [
            QueryRequest(seed=int(s), k=12, exclude_neighbors=True)
            for s in seeds
        ]
        materialized = engines(stream_block=10_000).batch(requests)
        streamed = engines(stream_block=9).batch(requests)
        for a, b in zip(materialized, streamed):
            np.testing.assert_array_equal(a.top_nodes, b.top_nodes)
            np.testing.assert_array_equal(a.top_scores, b.top_scores)
            assert a.cached == b.cached

    def test_streamed_batch_counts_distinct_seeds(self, engines):
        engine = engines(stream_block=4)
        requests = [QueryRequest(seed=s, k=5) for s in (1, 2, 3, 1, 2, 4, 5, 6)]
        results = engine.batch(requests)
        stats = engine.stats()
        assert stats["cache_misses"] == 6  # distinct seeds
        assert stats["queries_served"] == 8
        assert [r.cached for r in results] == [
            False, False, False, True, True, False, False, False,
        ]

    def test_full_vector_requests_never_stream(self, engines):
        engine = engines(stream_block=1)
        requests = [QueryRequest(seed=s) for s in (0, 1, 2)]
        results = engine.batch(requests)
        assert all(r.scores is not None for r in results)

    def test_cached_engine_never_streams(self, engines, medium_community):
        engine = Engine(
            create_method("tpa", s_iteration=4, t_iteration=8),
            medium_community, cache_size=16, stream_block=1,
        )
        requests = [QueryRequest(seed=s, k=5) for s in (0, 1, 2, 0)]
        engine.batch(requests)
        assert engine.stats()["cache_entries"] == 3

    def test_serve_chunked_matches_single_block(self, engines):
        rng = np.random.default_rng(2)
        seeds = rng.choice(1500, size=33, replace=False)
        one_block = engines(stream_block=10_000).serve(seeds, k=9)
        chunked = engines(stream_block=5).serve(seeds, k=9)
        np.testing.assert_array_equal(one_block, chunked)

    def test_stream_block_validated(self, engines):
        with pytest.raises(ParameterError, match="stream_block"):
            engines(stream_block=0)
