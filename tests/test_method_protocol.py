"""Tests for the shared PPRMethod protocol across all implementations."""

import numpy as np
import pytest

from repro.baselines import BRPPR, BearApprox, BePI, Fora, HubPPR, NBLin
from repro.core.tpa import TPA
from repro.exceptions import NotPreprocessedError, ParameterError


def _fresh_methods():
    return [
        TPA(s_iteration=4, t_iteration=8),
        BRPPR(),
        NBLin(rank=20, seed=0),
        BearApprox(),
        Fora(seed=0),
        HubPPR(seed=0, max_walks=5_000, refine_top=30),
        BePI(),
    ]


@pytest.mark.parametrize("method", _fresh_methods(), ids=lambda m: m.name)
class TestProtocol:
    def test_query_requires_preprocess(self, method):
        with pytest.raises(NotPreprocessedError):
            method.query(0)

    def test_graph_property_requires_preprocess(self, method):
        with pytest.raises(NotPreprocessedError):
            _ = method.graph

    def test_is_preprocessed_flag(self, method, small_community):
        assert not method.is_preprocessed
        method.preprocess(small_community)
        assert method.is_preprocessed
        assert method.graph is small_community


class TestQueryContract:
    @pytest.fixture(scope="class")
    def prepared_methods(self, small_community):
        methods = _fresh_methods()
        for method in methods:
            method.preprocess(small_community)
        return methods

    def test_output_shape(self, prepared_methods, small_community):
        for method in prepared_methods:
            scores = method.query(0)
            assert scores.shape == (small_community.num_nodes,)

    def test_scores_non_negative(self, prepared_methods):
        """All methods except NB_LIN return non-negative scores; NB_LIN's
        low-rank truncation legitimately produces small negative entries."""
        for method in prepared_methods:
            scores = method.query(1)
            if method.name == "NB_LIN":
                assert scores.min() > -0.05
            else:
                assert (scores >= -1e-12).all(), method.name

    def test_seed_out_of_range(self, prepared_methods, small_community):
        for method in prepared_methods:
            with pytest.raises(ParameterError):
                method.query(small_community.num_nodes)

    def test_preprocessed_bytes_non_negative(self, prepared_methods):
        for method in prepared_methods:
            assert method.preprocessed_bytes() >= 0

    def test_mass_roughly_conserved(self, prepared_methods):
        """Every estimator approximates a probability distribution.  NB_LIN
        loses the mass carried by the truncated singular directions — it is
        the paper's least accurate method — so its band is wider."""
        for method in prepared_methods:
            total = method.query(2).sum()
            if method.name == "NB_LIN":
                assert 0.2 < total < 1.3, f"NB_LIN total mass {total}"
            else:
                assert 0.7 < total < 1.3, f"{method.name} total mass {total}"

    def test_seed_in_top_ranks(self, prepared_methods):
        """The seed node itself must appear among its top-10 scores for
        every method (it holds at least mass c = 0.15 exactly)."""
        for method in prepared_methods:
            scores = method.query(3)
            top = np.argsort(-scores)[:10]
            assert 3 in top, method.name
