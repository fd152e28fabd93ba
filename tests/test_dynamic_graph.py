"""Dynamic graphs: delta overlay, compaction, and epoch-aware caches.

Covers the ``repro.dynamic`` contracts:

* overlay products agree with a from-scratch rebuild within the
  documented ``OVERLAY_TOLERANCE`` (1e-12 per entry);
* ``compact()`` makes results **bitwise identical** to a fresh
  :class:`~repro.graph.graph.Graph` built from the same edges;
* every mutation bumps the graph epoch component of
  ``kernels.cache_token``, so neither the shared
  :class:`~repro.serving.ScoreCache` nor the Engine LRU can ever serve a
  pre-update vector — including under an 8-thread query/mutate hammer.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro import Engine, Graph, community_graph, cpi, create_method, kernels
from repro.dynamic import DeltaOverlay, DynamicGraph, OVERLAY_TOLERANCE
from repro.dynamic.graph import _folded_product
from repro.exceptions import (
    DanglingNodeError,
    GraphFormatError,
    ParameterError,
)
from repro.serving.cache import ScoreCache

#: The kernel backend's name, stamped into the test ids.
BACKENDS = (kernels.get_backend(),)


def _edge_set(graph: Graph) -> set[tuple[int, int]]:
    src, dst = graph.edges()
    return set(zip(src.tolist(), dst.tolist()))


def _fresh(n: int, pairs: set[tuple[int, int]], policy: str) -> Graph:
    arr = np.array(sorted(pairs), dtype=np.int64).reshape(-1, 2)
    return Graph(n, arr[:, 0], arr[:, 1], dangling=policy)


@pytest.fixture(scope="module")
def base():
    return community_graph(300, avg_degree=6, num_communities=6, seed=3)


class TestOverlaySemantics:
    def test_add_remove_counts_and_noops(self, base):
        dyn = DynamicGraph(base)
        pairs = _edge_set(base)
        existing = next(iter(pairs))
        report = dyn.add_edges([existing])  # duplicate: no-op
        assert report == 0
        assert not dyn.dirty
        assert dyn.add_edges([(1, 1)]) == 0  # self-loop: dropped
        assert dyn.remove_edges([(0, 299)]) in (0, 1)

    def test_overlay_counters_track_edges(self, base):
        dyn = DynamicGraph(base)
        pairs = _edge_set(base)
        new = [(5, 200), (5, 201), (17, 3)]
        new = [pair for pair in new if pair not in pairs]
        added = dyn.add_edges(new)
        assert added == len(new)
        assert dyn.num_edges == base.num_edges + added
        assert dyn.dirty
        victim = next(iter(pairs))
        assert dyn.remove_edges([victim]) == 1
        assert dyn.num_edges == base.num_edges + added - 1

    def test_out_degree_and_neighbors_overlay_aware(self, base):
        dyn = DynamicGraph(base)
        degree_before = int(dyn.out_degree[5])
        neighbors = set(base.out_neighbors(5).tolist())
        target = next(t for t in range(300) if t not in neighbors and t != 5)
        dyn.add_edges([(5, target)])
        assert int(dyn.out_degree[5]) == degree_before + 1
        assert target in dyn.out_neighbors(5).tolist()

    def test_endpoint_validation(self, base):
        dyn = DynamicGraph(base)
        with pytest.raises(GraphFormatError):
            dyn.add_edges([(0, 300)])
        with pytest.raises(GraphFormatError):
            dyn.add_edges([(-1, 0)])

    @pytest.mark.parametrize(
        "edges",
        [
            [(1.7, 3.9)],
            np.array([[2.2, 4.8]]),
            np.array([[True, False]]),
        ],
    )
    def test_non_integer_endpoints_rejected(self, base, edges):
        # Not truncated to 1->3 / 2->4: float and bool ids are refused,
        # and nothing is applied.
        dyn = DynamicGraph(base)
        with pytest.raises(GraphFormatError, match="integers"):
            dyn.add_edges(edges)
        with pytest.raises(GraphFormatError, match="integers"):
            dyn.remove_edges(edges)
        assert not dyn.dirty
        assert dyn.add_edges([]) == 0 and dyn.remove_edges([]) == 0

    def test_selfloop_policy_rejected(self):
        graph = Graph(3, [0, 1, 2], [1, 2, 0], dangling="selfloop")
        with pytest.raises(ParameterError):
            DynamicGraph(graph)

    def test_error_policy_guards_emptied_rows(self):
        graph = Graph(3, [0, 1, 2], [1, 2, 0], dangling="error")
        dyn = DynamicGraph(graph)
        with pytest.raises(DanglingNodeError):
            dyn.remove_edges([(1, 2)])
        # The graph still answers queries after the rejected batch.
        cpi(dyn, seeds=0)

    def test_delta_overlay_dangling_tracking(self):
        graph = Graph(4, [0, 1, 2], [1, 2, 3], dangling="uniform")
        overlay = DeltaOverlay(graph)
        assert overlay.dangling_nodes().tolist() == [3]
        overlay.add(3, 0)
        assert overlay.dangling_nodes().tolist() == []
        overlay.remove(2, 3)
        assert overlay.dangling_nodes().tolist() == [2]


class TestOverlayAccuracy:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_overlay_product_within_tolerance(
        self, base, backend
    ):
        dyn = DynamicGraph(base)
        pairs = _edge_set(base)
        new = [(5, 200), (44, 7), (200, 5)]
        dyn.add_edges(new)
        victim = sorted(pairs)[10]
        dyn.remove_edges([victim])
        mirror = (pairs | set(new)) - {victim}
        fresh = _fresh(300, mirror, base.dangling_policy)
        rng = np.random.default_rng(0)
        x = rng.random((300, 4))
        got = dyn.propagate(x)
        want = fresh.propagate(x)
        # The only rounding is the surviving-edge 1/d_new - 1/d_old fold.
        assert np.abs(got - want).max() <= 50 * OVERLAY_TOLERANCE

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_compact_is_bitwise_fresh_rebuild(
        self, base, backend
    ):
        dyn = DynamicGraph(base)
        pairs = _edge_set(base)
        new = [(5, 200), (44, 7), (200, 5), (299, 0)]
        dyn.add_edges(new)
        victim = sorted(pairs)[3]
        dyn.remove_edges([victim])
        dirty = dyn.compact()
        assert dirty.size > 0
        assert not dyn.dirty
        mirror = (pairs | set(new)) - {victim}
        fresh = _fresh(300, mirror, base.dangling_policy)
        adjacency = dyn.base_graph.adjacency
        want = fresh.adjacency
        assert np.array_equal(adjacency.indptr, want.indptr)
        assert np.array_equal(adjacency.indices, want.indices)
        rng = np.random.default_rng(1)
        x = rng.random((300, 3))
        assert np.array_equal(dyn.propagate(x), fresh.propagate(x))
        assert np.array_equal(
            dyn.propagate_decayed(x, 0.85), fresh.propagate_decayed(x, 0.85)
        )
        assert np.array_equal(
            cpi(dyn, seeds=5).scores, cpi(fresh, seeds=5).scores
        )

    def test_compact_noop_returns_empty(self, base):
        dyn = DynamicGraph(base)
        assert dyn.compact().size == 0
        assert dyn.base_epoch == 0

    def test_dirty_rows_since_tracks_history(self, base):
        dyn = DynamicGraph(base)
        dyn.add_edges([(5, 200)])
        dyn.compact()
        rows = dyn.dirty_rows_since(0)
        # Dirty rows live in the A^T layout: destinations of source 5's
        # rescaled row, including the inserted target.
        assert rows is not None and 200 in rows.tolist()
        dyn.add_edges([(17, 3)])
        dyn.compact()
        both = dyn.dirty_rows_since(0)
        assert set(rows.tolist()) <= set(both.tolist())
        assert dyn.dirty_rows_since(dyn.base_epoch).size == 0


class TestEpochTokens:
    def test_every_mutation_bumps_the_token(self, base):
        dyn = DynamicGraph(base)
        seen = [dyn.epoch_token()]
        dyn.add_edges([(5, 200)])
        seen.append(dyn.epoch_token())
        dyn.add_edges([(17, 3)])
        seen.append(dyn.epoch_token())
        dyn.compact()
        seen.append(dyn.epoch_token())
        dyn.remove_edges([(5, 200)])
        seen.append(dyn.epoch_token())
        dyn.compact()
        seen.append(dyn.epoch_token())
        assert len(set(seen)) == len(seen), seen

    def test_dirty_token_names_the_overlay_tier(self, base):
        dyn = DynamicGraph(base)
        dyn.add_edges([(5, 200)])
        assert "~overlay-1e-12" in dyn.epoch_token()
        dyn.compact()
        assert "~overlay" not in dyn.epoch_token()

    def test_cache_token_carries_the_epoch(self, base):
        dyn = DynamicGraph(base)
        static = kernels.cache_token()
        assert "graph-static" in static
        clean = kernels.cache_token(dyn)
        dyn.add_edges([(5, 200)])
        dirty = kernels.cache_token(dyn)
        dyn.compact()
        compacted = kernels.cache_token(dyn)
        assert len({static, clean, dirty, compacted}) == 4
        # Only the graph component moves: backend:shard:graph:dtype.
        for token in (clean, dirty, compacted):
            backend, shard, graph, dtype = token.split(":")
            assert graph.startswith("graph-")
            assert static == f"{backend}:{shard}:graph-static:{dtype}"

    def test_score_cache_keys_on_token(self):
        cache = ScoreCache(4)
        vector = np.arange(3.0)
        cache.put(1, vector, token="epoch-a")
        assert cache.get(1, token="epoch-b") is None
        hit = cache.get(1, token="epoch-a")
        assert hit is not None and np.array_equal(hit, vector)
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_warm_hint_returns_newest_any_token(self):
        cache = ScoreCache(4)
        old = np.zeros(3)
        new = np.ones(3)
        cache.put(1, old, token="epoch-a")
        cache.put(1, new, token="epoch-b")
        hint = cache.warm_hint(1)
        assert np.array_equal(hint, new)
        assert cache.warm_hint(2) is None
        # Neither a hit nor a miss was counted.
        assert cache.stats()["hits"] == 0 and cache.stats()["misses"] == 0


class TestEngineCacheRepair:
    def test_mutation_invalidates_engine_cache(self, base):
        dyn = DynamicGraph(base)
        engine = Engine(create_method("cpi"), dyn, cache_size=8)
        first = engine.query(5)
        assert engine.query(5).cached
        dyn.add_edges([(5, 200)])
        repaired = engine.query(5)
        assert not repaired.cached
        assert not np.array_equal(first.scores, repaired.scores)
        dyn.compact()
        assert not engine.query(5).cached  # epoch moved again
        assert engine.query(5).cached

    def test_shared_cache_invalidated_across_replicas(self, base):
        dyn = DynamicGraph(base)
        engine = Engine(create_method("cpi"), dyn, cache_size=8)
        replica = engine.replicate()
        engine.query(5)
        assert replica.query(5).cached  # pooled hit pre-mutation
        dyn.add_edges([(5, 200)])
        assert not replica.query(5).cached

    def test_hammer_never_serves_pre_epoch_vectors(self, base):
        """8 query threads race a mutate/compact thread; afterwards any
        vector cached under the final epoch token must equal a cold
        from-scratch computation on the final graph, bit for bit."""
        dyn = DynamicGraph(base)
        pairs = _edge_set(base)
        cache = ScoreCache(64)
        root = Engine(
            create_method("cpi"), dyn, cache=cache, warm_start=False
        )
        seeds = list(range(8))
        stop = threading.Event()
        errors: list[BaseException] = []

        def hammer(engine, seed):
            try:
                while not stop.is_set():
                    engine.query(seed)
            except BaseException as error:  # pragma: no cover - diagnostic
                errors.append(error)

        candidates = [
            (u, v)
            for u in range(8)
            for v in range(250, 262)
            if (u, v) not in pairs
        ]

        def mutate():
            try:
                for index, pair in enumerate(candidates[:24]):
                    dyn.add_edges([pair])
                    pairs.add(pair)
                    if index % 6 == 5:
                        dyn.compact()
                dyn.compact()
            except BaseException as error:  # pragma: no cover - diagnostic
                errors.append(error)

        threads = [
            threading.Thread(target=hammer, args=(root.replicate(), seed))
            for seed in seeds
        ]
        mutator = threading.Thread(target=mutate)
        for thread in threads:
            thread.start()
        mutator.start()
        mutator.join()
        stop.set()
        for thread in threads:
            thread.join()
        assert not errors, errors

        assert not dyn.dirty
        final_token = kernels.cache_token(dyn)
        fresh = _fresh(300, pairs, base.dangling_policy)
        checked = 0
        for seed in seeds:
            cached = cache.get(seed, token=final_token)
            if cached is None:
                continue
            checked += 1
            assert np.array_equal(cached, cpi(fresh, seeds=seed).scores)
        # A post-hammer query must also land on the final epoch exactly.
        result = root.query(seeds[0])
        assert np.array_equal(
            result.scores, cpi(fresh, seeds=seeds[0]).scores
        )
        stats = cache.stats()
        assert stats["hits"] >= 0 and stats["misses"] >= checked


def _uniform_base() -> Graph:
    src, dst = community_graph(
        120, avg_degree=4, num_communities=4, seed=5
    ).edges()
    return Graph(120, src, dst, dangling="uniform")


def _compiled_without_cache(dyn: DynamicGraph, decay, dtype):
    """Compile the dynamic graph's current overlay state from an empty
    per-source cache: every touched source is derived afresh."""
    ref = DeltaOverlay(dyn.base_graph)
    ref._neighbors = dyn._overlay._neighbors
    return ref.delta_operator(decay, dtype)


def _assert_same_delta(got, want):
    if want is None:
        assert got is None
        return
    assert got is not None
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name


class TestIncrementalDelta:
    """The per-source delta cache: a compile re-derives only the sources
    changed since the last compile, and the result is bitwise the same
    as deriving every touched source."""

    def test_interleaving_matches_an_uncached_compile(self):
        rng = np.random.default_rng(2024)
        dyn = DynamicGraph(_uniform_base())
        n = dyn.num_nodes
        hot = rng.choice(n, size=12, replace=False)  # sources reused often
        x = rng.random((n, 3))
        steps = {"add": 0, "remove": 0, "restore": 0, "dangle": 0,
                 "compact": 0}
        for step in range(240):
            kind = rng.choice(
                ["add", "add", "remove", "remove", "restore", "dangle",
                 "compact"],
                p=[0.2, 0.15, 0.2, 0.15, 0.12, 0.08, 0.1],
            )
            source = int(rng.choice(hot))
            if kind == "add":
                applied = dyn.add_edges([(source, int(rng.integers(n)))])
            elif kind == "remove":
                current = dyn.out_neighbors(source)
                applied = current.size and dyn.remove_edges(
                    [(source, int(rng.choice(current)))]
                )
            elif kind == "restore":
                # Put a source back to its base row: it stays touched,
                # with an all-zero delta column.
                want = set(dyn.base_graph.out_neighbors(source).tolist())
                have = set(dyn.out_neighbors(source).tolist())
                dyn.remove_edges([(source, t) for t in sorted(have - want)])
                applied = dyn.add_edges(
                    [(source, t) for t in sorted(want - have)]
                )
            elif kind == "dangle":
                # Empty the row: the source dangles under "uniform".
                applied = dyn.remove_edges(
                    [(source, int(t)) for t in dyn.out_neighbors(source)]
                )
                assert source in dyn.dangling_nodes.tolist()
            else:
                applied = dyn.compact().size
            steps[str(kind)] += bool(applied)
            for decay, dtype in ((None, np.float64), (0.85, np.float32)):
                got = dyn._overlay.delta_operator(decay, dtype)
                want = _compiled_without_cache(dyn, decay, dtype)
                _assert_same_delta(got, want)
            if step % 20 == 0 and dyn.dirty:
                want_y = _folded_product(
                    dyn.base_graph,
                    _compiled_without_cache(dyn, None, np.float64),
                    dyn.dangling_nodes, "uniform", x, None, None,
                )
                assert np.array_equal(dyn.propagate(x), want_y)
        # Every kind of step really happened.
        assert all(count > 0 for count in steps.values()), steps

    def test_one_mutation_rederives_one_source(self, base, monkeypatch):
        dyn = DynamicGraph(base)
        pairs = _edge_set(base)
        sources = [5, 17, 44, 120, 200]
        for source in sources:
            target = next(t for t in range(300)
                          if t != source and (source, t) not in pairs)
            dyn.add_edges([(source, target)])
        x = np.ones(300)
        dyn.propagate(x)  # compile every touched source once

        derived: list[int] = []
        original = DeltaOverlay._delta_piece

        def counting(self, source):
            derived.append(source)
            return original(self, source)

        monkeypatch.setattr(DeltaOverlay, "_delta_piece", counting)
        target = next(t for t in range(300)
                      if t != 44 and t not in dyn.out_neighbors(44))
        assert dyn.add_edges([(44, target)]) == 1
        dyn.propagate(x)
        assert derived == [44]
        dyn.propagate(x)  # compiled: nothing left to derive
        assert derived == [44]
