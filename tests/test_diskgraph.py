"""Unit tests for the disk-resident graph extension."""

import json

import numpy as np
import pytest

from repro.core.cpi import cpi
from repro.core.tpa import TPA
from repro.exceptions import GraphFormatError, ParameterError
from repro.graph.diskgraph import DiskGraph
from repro.graph.graph import Graph


@pytest.fixture(scope="module")
def disk_pair(tmp_path_factory, small_community):
    directory = tmp_path_factory.mktemp("diskgraph")
    disk = DiskGraph.build(small_community, directory, rows_per_stripe=64)
    return small_community, disk


class TestBuildAndOpen:
    def test_metadata(self, disk_pair):
        graph, disk = disk_pair
        assert disk.num_nodes == graph.num_nodes
        assert disk.num_edges == graph.num_edges
        assert disk.num_stripes == int(np.ceil(graph.num_nodes / 64))

    def test_reopen_from_directory(self, disk_pair, tmp_path):
        graph, disk = disk_pair
        reopened = DiskGraph(disk._dir)
        assert reopened.num_nodes == graph.num_nodes

    def test_missing_directory_rejected(self, tmp_path):
        with pytest.raises(GraphFormatError):
            DiskGraph(tmp_path / "nope")

    def test_misspelled_dangling_policy_on_disk_rejected(
        self, small_community, tmp_path
    ):
        DiskGraph.build(small_community, tmp_path, rows_per_stripe=64)
        meta_path = tmp_path / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["dangling_policy"] = "self_loop"
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(ParameterError, match="dangling policy"):
            DiskGraph(tmp_path)

    def test_invalid_stripe_size(self, small_community, tmp_path):
        with pytest.raises(ParameterError):
            DiskGraph.build(small_community, tmp_path, rows_per_stripe=0)

    def test_disk_footprint_positive(self, disk_pair):
        _, disk = disk_pair
        assert disk.disk_bytes() > 0
        assert 0 < disk.resident_bytes() <= disk.disk_bytes()


class TestPropagateEquivalence:
    def test_matches_in_memory(self, disk_pair):
        graph, disk = disk_pair
        rng = np.random.default_rng(1)
        for _ in range(3):
            x = rng.random(graph.num_nodes)
            np.testing.assert_allclose(
                disk.propagate(x), graph.propagate(x), atol=1e-12
            )

    def test_mass_conserved(self, disk_pair):
        _, disk = disk_pair
        x = np.random.default_rng(2).random(disk.num_nodes)
        assert disk.propagate(x).sum() == pytest.approx(x.sum())

    def test_stripe_size_irrelevant(self, small_community, tmp_path):
        x = np.random.default_rng(3).random(small_community.num_nodes)
        results = []
        for stripe in (1, 7, 400, 10_000):
            disk = DiskGraph.build(
                small_community, tmp_path / f"s{stripe}", rows_per_stripe=stripe
            )
            results.append(disk.propagate(x))
        for other in results[1:]:
            np.testing.assert_allclose(results[0], other, atol=1e-12)

    def test_wrong_vector_length(self, disk_pair):
        _, disk = disk_pair
        with pytest.raises(ParameterError):
            disk.propagate(np.zeros(3))

    def test_dangling_uniform_correction(self, tmp_path):
        graph = Graph(3, [0, 1], [1, 2], dangling="uniform")
        disk = DiskGraph.build(graph, tmp_path / "dang")
        x = np.array([0.2, 0.3, 0.5])
        np.testing.assert_allclose(disk.propagate(x), graph.propagate(x))

    def test_trailing_empty_rows(self, tmp_path):
        """Nodes with no in-edges at the end of a stripe (empty rows of
        Ã^T) must not break the segment sums."""
        # Node 2 has no in-edges: row 2 of A~^T is empty.
        graph = Graph(3, [0, 1, 2], [1, 0, 0])
        disk = DiskGraph.build(graph, tmp_path / "empty", rows_per_stripe=3)
        x = np.array([1.0, 2.0, 3.0])
        np.testing.assert_allclose(disk.propagate(x), graph.propagate(x))


class TestDiskBackedAlgorithms:
    def test_cpi_on_disk_graph(self, disk_pair):
        graph, disk = disk_pair
        via_disk = cpi(disk, 5, tol=1e-12).scores
        via_memory = cpi(graph, 5, tol=1e-12).scores
        np.testing.assert_allclose(via_disk, via_memory, atol=1e-12)

    def test_tpa_on_disk_graph(self, disk_pair):
        """The paper's future-work item: disk-based TPA, end to end."""
        graph, disk = disk_pair
        disk_tpa = TPA(s_iteration=5, t_iteration=10)
        disk_tpa.preprocess(disk)
        memory_tpa = TPA(s_iteration=5, t_iteration=10)
        memory_tpa.preprocess(graph)
        np.testing.assert_allclose(
            disk_tpa.query(3), memory_tpa.query(3), atol=1e-12
        )

    def test_pagerank_on_disk_graph(self, disk_pair):
        graph, disk = disk_pair
        from repro.ranking import pagerank

        np.testing.assert_allclose(
            pagerank(disk, tol=1e-12), pagerank(graph, tol=1e-12), atol=1e-10
        )
