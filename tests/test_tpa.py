"""Unit tests for repro.core.tpa — the paper's Algorithms 2 and 3."""

import numpy as np
import pytest

from repro.core.bounds import neighbor_scale, stranger_norm, total_bound
from repro.core.cpi import cpi
from repro.core.tpa import TPA
from repro.exceptions import NotPreprocessedError, ParameterError
from repro.ranking.rwr import rwr_direct


@pytest.fixture(scope="module")
def prepared_tpa(medium_community):
    method = TPA(s_iteration=5, t_iteration=10)
    method.preprocess(medium_community)
    return method


class TestPreprocessing:
    def test_stranger_vector_is_pagerank_tail(self, prepared_tpa, medium_community):
        """Algorithm 2: r̃_stranger = PageRank-CPI iterations T..∞."""
        expected = cpi(
            medium_community, None, start_iteration=prepared_tpa.t_iteration
        ).scores
        np.testing.assert_allclose(prepared_tpa.stranger_vector, expected)

    def test_stranger_norm_matches_lemma2(self, prepared_tpa):
        assert prepared_tpa.stranger_vector.sum() == pytest.approx(
            stranger_norm(0.15, prepared_tpa.t_iteration), abs=1e-8
        )

    def test_preprocessed_bytes_is_one_vector(self, prepared_tpa, medium_community):
        assert prepared_tpa.preprocessed_bytes() == medium_community.num_nodes * 8

    def test_unpreprocessed_bytes_zero(self):
        assert TPA().preprocessed_bytes() == 0

    def test_query_before_preprocess_raises(self):
        with pytest.raises(NotPreprocessedError):
            TPA().query(0)

    def test_stranger_vector_before_preprocess_raises(self):
        with pytest.raises(NotPreprocessedError):
            _ = TPA().stranger_vector


class TestOnlinePhase:
    def test_error_within_theorem2_bound(self, prepared_tpa, medium_community):
        for seed in (0, 17, 256):
            exact = rwr_direct(medium_community, seed)
            approx = prepared_tpa.query(seed)
            error = np.abs(exact - approx).sum()
            assert error <= prepared_tpa.error_bound() + 1e-9

    def test_error_bound_value(self):
        method = TPA(s_iteration=5, t_iteration=10, c=0.15)
        assert method.error_bound() == pytest.approx(total_bound(0.15, 5))

    def test_parts_compose(self, prepared_tpa):
        parts = prepared_tpa.query_parts(3)
        np.testing.assert_allclose(
            parts.scores, parts.family + parts.neighbor + parts.stranger
        )

    def test_neighbor_is_scaled_family(self, prepared_tpa):
        parts = prepared_tpa.query_parts(3)
        scale = neighbor_scale(0.15, 5, 10)
        np.testing.assert_allclose(parts.neighbor, scale * parts.family)

    def test_total_mass_near_one(self, prepared_tpa):
        """‖r_TPA‖₁ = ‖family‖ + ‖neighbor‖ + ‖stranger‖ = 1 exactly."""
        scores = prepared_tpa.query(0)
        assert scores.sum() == pytest.approx(1.0, abs=1e-6)

    def test_scores_non_negative(self, prepared_tpa):
        assert (prepared_tpa.query(5) >= 0).all()

    def test_seed_validation(self, prepared_tpa, medium_community):
        with pytest.raises(ParameterError):
            prepared_tpa.query(medium_community.num_nodes)
        with pytest.raises(ParameterError):
            prepared_tpa.query(-1)

    def test_family_matches_windowed_cpi(self, prepared_tpa, medium_community):
        parts = prepared_tpa.query_parts(9)
        expected = cpi(medium_community, 9, terminal_iteration=4).scores
        np.testing.assert_allclose(parts.family, expected)

    def test_top_scores_localized_near_seed(self, prepared_tpa, medium_community):
        """The seed itself should rank first in its own RWR vector."""
        seed = 42
        scores = prepared_tpa.query(seed)
        assert int(np.argmax(scores)) == seed


class TestParameters:
    def test_t_equals_s_disables_neighbor(self, small_community):
        method = TPA(s_iteration=5, t_iteration=5)
        method.preprocess(small_community)
        parts = method.query_parts(0)
        assert np.abs(parts.neighbor).sum() == 0.0

    def test_larger_s_reduces_error(self, medium_community):
        exact = rwr_direct(medium_community, 11)
        errors = []
        for s in (2, 4, 6):
            method = TPA(s_iteration=s, t_iteration=10)
            method.preprocess(medium_community)
            errors.append(np.abs(exact - method.query(11)).sum())
        assert errors[0] > errors[-1]

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"s_iteration": 0},
            {"s_iteration": 5, "t_iteration": 4},
            {"c": 0.0},
            {"c": 1.0},
        ],
    )
    def test_invalid_construction(self, kwargs):
        with pytest.raises(ParameterError):
            TPA(**kwargs)

    def test_repr_mentions_parameters(self):
        text = repr(TPA(s_iteration=3, t_iteration=8))
        assert "S=3" in text and "T=8" in text
