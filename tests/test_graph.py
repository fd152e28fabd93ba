"""Unit tests for repro.graph.graph.Graph."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.exceptions import DanglingNodeError, GraphFormatError
from repro.graph.graph import Graph


class TestConstruction:
    def test_basic_edge_counts(self, line_graph):
        assert line_graph.num_nodes == 4
        assert line_graph.num_edges == 4

    def test_duplicate_edges_collapse(self):
        graph = Graph(3, [0, 0, 0, 1, 2], [1, 1, 1, 2, 0])
        assert graph.num_edges == 3
        assert graph.adjacency[0, 1] == 1.0

    def test_self_loops_removed_by_default(self):
        graph = Graph(3, [0, 1, 1, 2], [1, 1, 2, 0])
        assert graph.num_edges == 3
        assert graph.adjacency[1, 1] == 0.0

    def test_self_loops_kept_when_requested(self):
        graph = Graph(2, [0, 1, 1], [1, 1, 0], keep_self_loops=True)
        assert graph.adjacency[1, 1] == 1.0

    def test_from_edges(self):
        graph = Graph.from_edges(3, [(0, 1), (1, 2), (2, 0)])
        assert graph.num_edges == 3

    def test_from_edges_empty_requires_policy(self):
        with pytest.raises(DanglingNodeError):
            Graph.from_edges(2, [])

    def test_from_scipy(self):
        matrix = sp.csr_array(np.array([[0, 1.0], [1.0, 0]]))
        graph = Graph.from_scipy(matrix)
        assert graph.num_edges == 2

    def test_from_scipy_rejects_non_square(self):
        with pytest.raises(GraphFormatError):
            Graph.from_scipy(sp.csr_array(np.ones((2, 3))))

    def test_zero_nodes_rejected(self):
        with pytest.raises(GraphFormatError):
            Graph(0, [], [])

    def test_out_of_range_endpoint_rejected(self):
        with pytest.raises(GraphFormatError):
            Graph(2, [0], [5])

    def test_negative_endpoint_rejected(self):
        with pytest.raises(GraphFormatError):
            Graph(2, [-1], [0])

    def test_mismatched_arrays_rejected(self):
        with pytest.raises(GraphFormatError):
            Graph(3, [0, 1], [1])

    def test_two_dimensional_input_rejected(self):
        with pytest.raises(GraphFormatError):
            Graph(3, np.array([[0, 1]]), np.array([[1, 2]]))

    @pytest.mark.parametrize(
        "src, dst",
        [
            ([1.7, 0.0], [3.9, 1.0]),
            (np.array([2.2, 0.5]), np.array([4.8, 1.0])),
            (np.array([True, False]), np.array([False, True])),
        ],
    )
    def test_non_integer_endpoints_rejected(self, src, dst):
        # Not truncated to 1->3 / 2->4: float and bool ids are refused.
        with pytest.raises(GraphFormatError, match="integers"):
            Graph(5, src, dst)

    def test_from_edges_rejects_float_endpoints(self):
        with pytest.raises(GraphFormatError, match="integers"):
            Graph.from_edges(5, [(1.7, 3.9), (0, 1)])

    def test_integer_endpoint_dtypes_accepted(self):
        graph = Graph(3, np.array([0, 1], dtype=np.uint8),
                      np.array([1, 2], dtype=np.int32), dangling="uniform")
        assert graph.num_edges == 2
        assert Graph(2, [], [], dangling="uniform").num_edges == 0


class TestDegrees:
    def test_out_degree(self, line_graph):
        assert line_graph.out_degree.tolist() == [1.0, 1.0, 1.0, 1.0]

    def test_in_degree(self, tiny_star):
        # Hub 0 receives an edge from every spoke.
        assert tiny_star.in_degree[0] == tiny_star.num_nodes - 1

    def test_degree_sums_match_edge_count(self, small_community):
        assert small_community.out_degree.sum() == small_community.num_edges
        assert small_community.in_degree.sum() == small_community.num_edges


class TestDanglingPolicies:
    def test_error_policy_raises(self):
        with pytest.raises(DanglingNodeError):
            Graph(3, [0, 1], [1, 2], dangling="error")

    def test_selfloop_policy_adds_loop(self, dangling_graph_selfloop):
        graph = dangling_graph_selfloop
        assert graph.dangling_nodes.size == 0
        assert graph.adjacency[2, 2] == 1.0

    def test_uniform_policy_keeps_node_dangling(self, dangling_graph_uniform):
        assert dangling_graph_uniform.dangling_nodes.tolist() == [2]

    def test_uniform_propagate_conserves_mass(self, dangling_graph_uniform):
        x = np.array([0.2, 0.3, 0.5])
        y = dangling_graph_uniform.propagate(x)
        assert y.sum() == pytest.approx(1.0)

    def test_selfloop_propagate_conserves_mass(self, dangling_graph_selfloop):
        x = np.array([0.2, 0.3, 0.5])
        y = dangling_graph_selfloop.propagate(x)
        assert y.sum() == pytest.approx(1.0)


class TestPropagate:
    def test_column_stochastic(self, small_community):
        """Ã^T preserves L1 mass of non-negative vectors."""
        rng = np.random.default_rng(1)
        x = rng.random(small_community.num_nodes)
        y = small_community.propagate(x)
        assert y.sum() == pytest.approx(x.sum())

    def test_matches_matrix_product(self, small_community):
        rng = np.random.default_rng(2)
        x = rng.random(small_community.num_nodes)
        expected = small_community.transition_transpose @ x
        np.testing.assert_allclose(small_community.propagate(x), expected)

    def test_ring_rotation(self, tiny_ring):
        x = np.zeros(10)
        x[0] = 1.0
        y = tiny_ring.propagate(x)
        assert y[1] == pytest.approx(1.0)
        assert y.sum() == pytest.approx(1.0)

    def test_transition_rows_sum_to_one(self, small_community):
        sums = np.asarray(small_community.transition.sum(axis=1)).ravel()
        np.testing.assert_allclose(sums, 1.0)


class TestStructuralHelpers:
    def test_out_neighbors(self, line_graph):
        assert line_graph.out_neighbors(0).tolist() == [1]

    def test_in_neighbors(self, line_graph):
        assert line_graph.in_neighbors(1).tolist() == [0]

    def test_edges_round_trip(self, small_community):
        src, dst = small_community.edges()
        rebuilt = Graph(small_community.num_nodes, src, dst)
        assert rebuilt.num_edges == small_community.num_edges

    def test_undirected_view_symmetric(self, small_community):
        sym = small_community.undirected_view()
        diff = (sym - sym.T)
        assert abs(diff).sum() == 0

    def test_reverse_swaps_degrees(self, tiny_star):
        reversed_graph = tiny_star.reverse()
        np.testing.assert_array_equal(
            reversed_graph.out_degree, tiny_star.in_degree
        )

    def test_nbytes_positive(self, small_community):
        assert small_community.nbytes() > 0


class TestPermute:
    def test_identity_permutation(self, line_graph):
        perm = np.arange(4)
        permuted = line_graph.permute(perm)
        np.testing.assert_array_equal(
            permuted.adjacency.toarray(), line_graph.adjacency.toarray()
        )

    def test_permutation_preserves_edge_count(self, small_community):
        rng = np.random.default_rng(3)
        perm = rng.permutation(small_community.num_nodes)
        permuted = small_community.permute(perm)
        assert permuted.num_edges == small_community.num_edges

    def test_permutation_relabels_correctly(self):
        graph = Graph(3, [0], [1], dangling="selfloop")
        # New order: old node 2 first, then 0, then 1.
        permuted = graph.permute(np.array([2, 0, 1]))
        # Old edge 0->1 becomes 1->2.
        assert permuted.adjacency[1, 2] == 1.0

    def test_invalid_permutation_rejected(self, line_graph):
        with pytest.raises(GraphFormatError):
            line_graph.permute(np.array([0, 0, 1, 2]))


class TestSubgraph:
    def test_induced_subgraph(self, small_community):
        nodes = np.arange(50)
        sub, mapping = small_community.subgraph(nodes)
        assert sub.num_nodes == 50
        np.testing.assert_array_equal(mapping, nodes)

    def test_subgraph_edges_are_induced(self):
        graph = Graph(4, [0, 1, 2, 3], [1, 2, 3, 0])
        sub, _ = graph.subgraph(np.array([0, 1]))
        # Only 0->1 survives; node 1 becomes dangling and gets a self-loop.
        assert sub.adjacency[0, 1] == 1.0
        assert sub.adjacency[1, 1] == 1.0
