"""Tests for TPA save/load persistence and the PPRMethod.top_k helper."""

import numpy as np
import pytest

from repro.core.tpa import TPA
from repro.exceptions import NotPreprocessedError, ParameterError
from repro.graph.generators import community_graph


class TestTPAPersistence:
    @pytest.fixture(scope="class")
    def saved(self, tmp_path_factory, small_community):
        method = TPA(s_iteration=4, t_iteration=9, c=0.2, tol=1e-8)
        method.preprocess(small_community)
        directory = tmp_path_factory.mktemp("tpa_state")
        method.save(directory)
        return method, directory

    def test_round_trip_queries_match(self, saved, small_community):
        original, directory = saved
        loaded = TPA.load(directory, small_community)
        np.testing.assert_allclose(loaded.query(7), original.query(7))

    def test_parameters_restored(self, saved, small_community):
        _, directory = saved
        loaded = TPA.load(directory, small_community)
        assert loaded.s_iteration == 4
        assert loaded.t_iteration == 9
        assert loaded.c == 0.2
        assert loaded.tol == 1e-8

    def test_stranger_vector_restored_exactly(self, saved, small_community):
        original, directory = saved
        loaded = TPA.load(directory, small_community)
        np.testing.assert_array_equal(
            loaded.stranger_vector, original.stranger_vector
        )

    def test_save_requires_preprocess(self, tmp_path):
        with pytest.raises(NotPreprocessedError):
            TPA().save(tmp_path)

    def test_load_missing_state(self, tmp_path, small_community):
        with pytest.raises(ParameterError, match="not found"):
            TPA.load(tmp_path, small_community)

    def test_load_wrong_graph_size(self, saved):
        _, directory = saved
        other = community_graph(100, avg_degree=5, seed=1)
        with pytest.raises(ParameterError, match="node"):
            TPA.load(directory, other)


class TestTopK:
    @pytest.fixture(scope="class")
    def method(self, small_community):
        tpa = TPA(s_iteration=5, t_iteration=10)
        tpa.preprocess(small_community)
        return tpa

    def test_result_size(self, method):
        assert method.top_k(0, 10).size == 10

    def test_seed_excluded_by_default(self, method):
        assert 0 not in method.top_k(0, 50)

    def test_seed_included_when_asked(self, method):
        picks = method.top_k(0, 5, exclude_seed=False)
        assert picks[0] == 0  # the seed always ranks first in its own RWR

    def test_neighbors_excluded(self, method, small_community):
        neighbors = set(small_community.out_neighbors(3).tolist())
        picks = method.top_k(3, 50, exclude_neighbors=True)
        assert not (set(picks.tolist()) & neighbors)

    def test_matches_manual_ranking(self, method):
        scores = method.query(5)
        manual = [
            int(v) for v in np.argsort(-scores, kind="stable") if v != 5
        ][:10]
        np.testing.assert_array_equal(method.top_k(5, 10), manual)

    def test_k_validation(self, method):
        # ParameterError is a ValueError: callers catching either agree.
        for bad in (0, 2.5, True, "3"):
            with pytest.raises(ValueError):
                method.top_k(0, bad)
            with pytest.raises(ParameterError):
                method.top_k_many([0, 1], bad)

    def test_works_for_all_method_types(self, small_community):
        """top_k lives on the base class — spot-check a baseline."""
        from repro.baselines import Fora

        method = Fora(seed=0)
        method.preprocess(small_community)
        assert method.top_k(2, 10).size == 10
