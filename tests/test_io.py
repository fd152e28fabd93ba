"""Unit tests for repro.graph.io."""

import io

import numpy as np
import pytest

from repro.exceptions import GraphFormatError, ParameterError
from repro.graph import read_edge_list, write_edge_list
from repro.graph.graph import Graph


class TestReadEdgeList:
    def test_basic_parse(self):
        text = io.StringIO("0 1\n1 2\n2 0\n")
        graph, ids = read_edge_list(text)
        assert graph.num_nodes == 3
        assert graph.num_edges == 3
        assert ids.tolist() == [0, 1, 2]

    def test_comments_skipped(self):
        text = io.StringIO("% KONECT header\n# SNAP header\n0 1\n1 0\n")
        graph, _ = read_edge_list(text)
        assert graph.num_edges == 2

    def test_blank_lines_skipped(self):
        text = io.StringIO("0 1\n\n\n1 0\n")
        graph, _ = read_edge_list(text)
        assert graph.num_edges == 2

    def test_tab_and_extra_columns(self):
        text = io.StringIO("0\t1\t42\n1\t0\t7\n")
        graph, _ = read_edge_list(text)
        assert graph.num_edges == 2

    def test_relabel_sparse_ids(self):
        text = io.StringIO("100 200\n200 100\n")
        graph, ids = read_edge_list(text)
        assert graph.num_nodes == 2
        assert ids.tolist() == [100, 200]

    def test_no_relabel_uses_raw_ids(self):
        text = io.StringIO("0 3\n3 0\n")
        graph, ids = read_edge_list(text, relabel=False)
        assert graph.num_nodes == 4
        assert ids.tolist() == [0, 1, 2, 3]

    def test_explicit_n_adds_isolated_nodes(self):
        text = io.StringIO("0 1\n1 0\n")
        graph, ids = read_edge_list(text, n=5)
        assert graph.num_nodes == 5
        # Isolated nodes get self-loops under the default policy.
        assert graph.adjacency[4, 4] == 1.0

    @pytest.mark.parametrize("relabel", [True, False])
    def test_n_smaller_than_node_ids_rejected(self, relabel):
        with pytest.raises(GraphFormatError):
            read_edge_list(io.StringIO("0 5\n5 0\n"), n=1, relabel=relabel)

    @pytest.mark.parametrize(
        "policy", ["self_loop", "Uniform", "self-loop", "none", "", None]
    )
    def test_misspelled_dangling_policy_rejected(self, policy):
        with pytest.raises(ParameterError, match="dangling policy"):
            read_edge_list(io.StringIO("0 1\n1 2\n"), dangling=policy)

    def test_dangling_default_selfloop(self):
        text = io.StringIO("0 1\n")
        graph, _ = read_edge_list(text)
        assert graph.dangling_nodes.size == 0

    def test_empty_file_rejected(self):
        with pytest.raises(GraphFormatError):
            read_edge_list(io.StringIO("% only comments\n"))

    def test_single_column_rejected(self):
        with pytest.raises(GraphFormatError, match="two columns"):
            read_edge_list(io.StringIO("0\n"))

    def test_non_integer_rejected(self):
        with pytest.raises(GraphFormatError, match="non-integer"):
            read_edge_list(io.StringIO("a b\n"))

    def test_from_path(self, tmp_path):
        path = tmp_path / "edges.tsv"
        path.write_text("0 1\n1 2\n2 0\n")
        graph, _ = read_edge_list(path)
        assert graph.num_edges == 3


class TestWriteEdgeList:
    def test_round_trip_memory(self, small_community):
        buffer = io.StringIO()
        write_edge_list(small_community, buffer)
        buffer.seek(0)
        graph, _ = read_edge_list(buffer)
        assert graph.num_nodes == small_community.num_nodes
        assert graph.num_edges == small_community.num_edges
        np.testing.assert_array_equal(
            graph.adjacency.toarray(), small_community.adjacency.toarray()
        )

    def test_round_trip_file(self, tmp_path):
        graph = Graph(3, [0, 1, 2], [1, 2, 0])
        path = tmp_path / "g.tsv"
        write_edge_list(graph, path, header="test graph")
        loaded, _ = read_edge_list(path)
        assert loaded.num_edges == 3
        assert "test graph" in path.read_text()

    def test_header_line_format(self):
        graph = Graph(2, [0, 1], [1, 0])
        buffer = io.StringIO()
        write_edge_list(graph, buffer, header="hello")
        lines = buffer.getvalue().splitlines()
        assert lines[0] == "% hello"
        assert "nodes=2" in lines[1]
