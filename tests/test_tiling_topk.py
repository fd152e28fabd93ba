"""The blocked ranking pipeline: hub-aware tiled SpMM + fused top-k.

Contracts asserted here:

* ``spmm_tiled`` is **bitwise identical** to ``spmm`` on the numpy
  backend for arbitrary tilings (property-tested), and the compiled
  tiled kernel — run as its interpreted twin — reproduces ``A @ x``
  exactly too;
* ``select_top_k_many`` matches the looped ``select_top_k`` reference
  including ban masks and tie ordering, on both the numpy fallback and
  the (interpreted / compiled) bounded-heap kernel;
* ``row_tiling`` produces well-formed, hub-pinned, block-aligned
  boundaries and the configuration knobs (``REPRO_KERNEL_TILE`` /
  ``set_tile_rows``) reach ``cache_token``;
* the Engine's streamed top-k paths (``batch`` column blocks, chunked
  ``serve``) return exactly what the materialized paths return, and
  a SlashBurn reordering attaches a tiling to the serving graph.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import kernels
from repro.engine import Engine, QueryRequest, create_method
from repro.exceptions import GraphFormatError, ParameterError
from repro.kernels import (
    RowTiling,
    row_tiling,
    select_top_k,
    select_top_k_many,
    set_tile_rows,
)
from repro.kernels import tiling as tiling_module
from repro.method import banned_mask, banned_mask_many

_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)


@pytest.fixture(autouse=True)
def _restore_tile_policy():
    """The tile height is process-global; never leak it between tests."""
    before = tiling_module._tile_rows
    yield
    tiling_module._tile_rows = before


def _random_csr(rng: np.random.Generator, rows: int, cols: int, density: float):
    matrix = sp.random_array(
        (rows, cols), density=density, format="csr", rng=rng,
        data_sampler=lambda size: rng.standard_normal(size),
    )
    return sp.csr_array(matrix)


class TestRowTiling:
    def test_boundaries_partition_the_rows(self):
        tiling = row_tiling(1000, num_hubs=37, tile_height=100)
        bounds = tiling.boundaries
        assert bounds[0] == 0 and bounds[-1] == 1000
        assert (np.diff(bounds) > 0).all()
        assert (np.diff(bounds) <= 100).all()
        # The hub/spoke frontier is always a tile boundary.
        assert 37 in bounds

    def test_block_alignment_prefers_block_frontiers(self):
        starts = np.array([20, 180, 260, 430])
        tiling = row_tiling(
            500, num_hubs=20, tile_height=100, block_starts=starts
        )
        # Every block start within reach became a cut; no tile exceeds
        # the height.
        for cut in (20, 180, 260):
            assert cut in tiling.boundaries
        assert (np.diff(tiling.boundaries) <= 100).all()

    def test_oversized_blocks_are_split(self):
        tiling = row_tiling(
            400, num_hubs=0, tile_height=50,
            block_starts=np.array([300]),  # one 300-row block
        )
        assert (np.diff(tiling.boundaries) <= 50).all()
        assert 300 in tiling.boundaries

    def test_all_hubs_and_single_tile_edges(self):
        assert row_tiling(10, num_hubs=10, tile_height=4).num_rows == 10
        assert row_tiling(10, tile_height=1000).num_tiles == 1

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ParameterError):
            row_tiling(0)
        with pytest.raises(ParameterError):
            row_tiling(10, num_hubs=11)
        with pytest.raises(ParameterError):
            row_tiling(10, tile_height=0)
        with pytest.raises(ParameterError):
            RowTiling(boundaries=np.array([0, 5, 5, 10]))
        with pytest.raises(ParameterError):
            RowTiling(boundaries=np.array([1, 10]))

    def test_tile_rows_config_roundtrip(self):
        previous = set_tile_rows(512)
        try:
            assert kernels.tile_rows() == 512
            assert "tile-512" in kernels.cache_token()
        finally:
            set_tile_rows(previous)
        set_tile_rows(None)
        assert kernels.tile_rows() == kernels.DEFAULT_TILE_ROWS
        assert "tile-auto" in kernels.cache_token()
        with pytest.raises(ParameterError):
            set_tile_rows(0)

    def test_env_resolution(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_TILE", "2048")
        assert tiling_module._resolve_env_tile() == 2048
        monkeypatch.setenv("REPRO_KERNEL_TILE", "auto")
        assert tiling_module._resolve_env_tile() is None
        monkeypatch.setenv("REPRO_KERNEL_TILE", "banana")
        with pytest.warns(UserWarning, match="REPRO_KERNEL_TILE"):
            assert tiling_module._resolve_env_tile() is None


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


class TestTiledSpmmNumpyBitwise:
    """Tiled == untiled, bit for bit, on the fallback backend."""

    @_SETTINGS
    @given(
        rows=st.integers(1, 120),
        cols=st.integers(1, 80),
        density=st.floats(0.0, 0.5),
        batch=st.integers(1, 7),
        height=st.integers(1, 140),
        hub_fraction=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bitwise_identical_to_spmm(
        self, rows, cols, density, batch, height, hub_fraction, seed
    ):
        previous = kernels.set_backend("numpy")
        try:
            rng = np.random.default_rng(seed)
            matrix = _random_csr(rng, rows, cols, density)
            x = rng.standard_normal((cols, batch))
            tiling = row_tiling(
                rows, num_hubs=int(hub_fraction * rows), tile_height=height
            )
            np.testing.assert_array_equal(
                kernels.spmm_tiled(matrix, x, tiling=tiling),
                kernels.spmm(matrix, x),
            )
        finally:
            kernels.set_backend(previous)

    def test_out_buffer_and_row_mismatch(self, rng):
        matrix = _random_csr(np.random.default_rng(0), 30, 30, 0.2)
        x = rng.random((30, 4))
        out = np.full((30, 4), np.nan)
        np.testing.assert_array_equal(
            kernels.spmm_tiled(matrix, x, out=out), matrix @ x
        )
        with pytest.raises(ParameterError, match="tiling covers"):
            kernels.spmm_tiled(matrix, x, tiling=row_tiling(29))


class TestInterpretedCompiledKernels:
    """The numba kernels, exec'd as plain Python (see conftest)."""

    def test_tiled_spmm_matches_scipy_bitwise(self, numba_source_namespace):
        rng = np.random.default_rng(7)
        for dtype in (np.float64, np.float32):
            matrix = _random_csr(rng, 90, 90, 0.2).astype(dtype)
            x = np.ascontiguousarray(rng.random((90, 5)).astype(dtype))
            out = np.empty((90, 5), dtype)
            bounds = row_tiling(90, num_hubs=11, tile_height=17).boundaries
            numba_source_namespace["_spmm_tiled"](
                matrix.indptr, matrix.indices, matrix.data, x, out, bounds
            )
            np.testing.assert_array_equal(out, matrix @ x)

    @_SETTINGS
    @given(
        n=st.integers(1, 150),
        k=st.integers(1, 170),
        pool=st.integers(1, 8),
        ban_fraction=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_heap_selection_matches_looped_reference(
        self, numba_source_namespace, n, k, pool, ban_fraction, seed
    ):
        """Bans and ties: integer-valued scores force heavy tie traffic,
        and the ban mask must never leak a banned id into a row."""
        rng = np.random.default_rng(seed)
        scores = rng.integers(0, pool, size=(3, n)).astype(np.float64)
        banned = rng.random((3, n)) < ban_fraction
        out = np.empty((3, k), dtype=np.int64)
        numba_source_namespace["_select_top_k_many"](
            scores, banned, True, k, out
        )
        for row in range(3):
            picks = select_top_k(scores[row], k, banned[row])
            np.testing.assert_array_equal(out[row, : picks.size], picks)
            assert (out[row, picks.size:] == -1).all()

    def test_heap_selection_without_bans(self, numba_source_namespace):
        rng = np.random.default_rng(5)
        scores = rng.random((4, 64))
        scores[:, 10:20] = scores[:, [10]]  # tie plateau
        out = np.empty((4, 12), dtype=np.int64)
        numba_source_namespace["_select_top_k_many"](
            scores, np.empty((0, 0), dtype=np.bool_), False, 12, out
        )
        for row in range(4):
            np.testing.assert_array_equal(
                out[row], select_top_k(scores[row], 12)
            )


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


@pytest.mark.skipif(
    not kernels.numba_available(), reason="numba not installed"
)
class TestCompiledBackendAgreement:
    """The compiled kernels through the public dispatchers."""

    def test_spmm_tiled_close_to_fallback(self):
        rng = np.random.default_rng(0)
        matrix = _random_csr(rng, 200, 200, 0.1)
        x = rng.standard_normal((200, 8))
        tiling = row_tiling(200, num_hubs=23, tile_height=31)
        previous = kernels.set_backend("numpy")
        try:
            reference = kernels.spmm_tiled(matrix, x, tiling=tiling)
            kernels.set_backend("numba")
            np.testing.assert_allclose(
                kernels.spmm_tiled(matrix, x, tiling=tiling), reference,
                rtol=0, atol=1e-12,
            )
            np.testing.assert_allclose(
                kernels.spmm(matrix, x), reference, rtol=0, atol=1e-12
            )
        finally:
            kernels.set_backend(previous)

    def test_select_top_k_many_matches_looped(self):
        rng = np.random.default_rng(1)
        scores = rng.integers(0, 9, size=(16, 300)).astype(np.float64)
        banned = rng.random((16, 300)) < 0.25
        previous = kernels.set_backend("numba")
        try:
            result = select_top_k_many(scores, 40, banned=banned)
        finally:
            kernels.set_backend(previous)
        for row in range(16):
            picks = select_top_k(scores[row], 40, banned[row])
            np.testing.assert_array_equal(result[row, : picks.size], picks)
            assert (result[row, picks.size:] == -1).all()


class TestGraphTiling:
    def test_attached_tiling_is_bitwise_neutral(self, small_community, rng):
        x = rng.random((small_community.num_nodes, 6))
        plain = small_community.propagate(x)
        decayed = small_community.propagate_decayed(x, 0.85)
        small_community.set_spmm_tiling(
            row_tiling(small_community.num_nodes, num_hubs=40, tile_height=64)
        )
        try:
            assert small_community.spmm_tiling is not None
            np.testing.assert_array_equal(small_community.propagate(x), plain)
            np.testing.assert_array_equal(
                small_community.propagate_decayed(x, 0.85), decayed
            )
        finally:
            small_community.set_spmm_tiling(None)
        assert small_community.spmm_tiling is None

    def test_wrong_size_tiling_rejected(self, small_community):
        with pytest.raises(GraphFormatError, match="tiling covers"):
            small_community.set_spmm_tiling(row_tiling(7))

    def test_reordering_builds_hub_aligned_tiling(self, medium_community):
        reordering = kernels.locality_reordering(medium_community)
        tiling = reordering.spmm_tiling(tile_height=100)
        assert tiling.num_hubs == reordering.num_hubs
        assert tiling.boundaries[-1] == medium_community.num_nodes
        if 0 < reordering.num_hubs < medium_community.num_nodes:
            assert reordering.num_hubs in tiling.boundaries
        assert (np.diff(tiling.boundaries) <= 100).all()
        # Interior cuts of the spoke region land on block frontiers
        # whenever any frontier was within reach of the tile height.
        spoke_cuts = tiling.boundaries[
            (tiling.boundaries > reordering.num_hubs)
            & (tiling.boundaries < medium_community.num_nodes)
        ]
        frontiers = set(reordering.block_starts.tolist())
        if frontiers and spoke_cuts.size:
            assert any(int(cut) in frontiers for cut in spoke_cuts)


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

    def test_reorder_attaches_tiling_and_streams(self, medium_community):
        engine = Engine(
            create_method("tpa", s_iteration=4, t_iteration=8),
            medium_community, reorder="slashburn", stream_block=6,
        )
        assert engine.method.graph.spmm_tiling is not None
        assert engine.method.graph.spmm_tiling.num_hubs == (
            engine.reordering.num_hubs
        )
        # The original graph never carries the serving tiling.
        assert medium_community.spmm_tiling is None
        requests = [QueryRequest(seed=s, k=8) for s in range(20)]
        streamed = engine.batch(requests)
        reference = Engine(
            create_method("tpa", s_iteration=4, t_iteration=8),
            medium_community, reorder="slashburn", stream_block=10_000,
        ).batch(requests)
        for a, b in zip(streamed, reference):
            np.testing.assert_array_equal(a.top_nodes, b.top_nodes)
