"""Unit tests for repro.graph.partition."""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.exceptions import ParameterError
from repro.graph.partition import partition_graph


class TestPartitionGraph:
    def test_label_range(self, small_community):
        labels = partition_graph(small_community, 10, seed=0)
        assert labels.shape == (small_community.num_nodes,)
        assert labels.min() >= 0
        assert labels.max() < 10

    def test_every_label_nonempty(self, small_community):
        labels = partition_graph(small_community, 10, seed=0)
        counts = np.bincount(labels, minlength=10)
        assert (counts > 0).all()

    def test_size_cap(self, small_community):
        k = 10
        labels = partition_graph(small_community, k, seed=0)
        counts = np.bincount(labels, minlength=k)
        cap = 2 * int(np.ceil(small_community.num_nodes / k))
        assert counts.max() <= cap

    def test_single_partition(self, small_community):
        labels = partition_graph(small_community, 1, seed=0)
        assert (labels == 0).all()

    def test_deterministic(self, small_community):
        a = partition_graph(small_community, 8, seed=5)
        b = partition_graph(small_community, 8, seed=5)
        np.testing.assert_array_equal(a, b)

    def test_captures_planted_communities(self):
        from repro.graph.generators import community_graph

        graph = community_graph(
            300, avg_degree=10, num_communities=6, p_in=0.95, seed=4
        )
        labels = partition_graph(graph, 6, seed=0)
        src, dst = graph.edges()
        same = (labels[src] == labels[dst]).mean()
        # With strong planted structure, most edges are within partitions.
        assert same > 0.5

    def test_invalid_count(self, small_community):
        with pytest.raises(ParameterError):
            partition_graph(small_community, 0)
        with pytest.raises(ParameterError):
            partition_graph(small_community, small_community.num_nodes + 1)

    def test_n_partitions_equals_n(self):
        from repro.graph.generators import ring_graph

        graph = ring_graph(8)
        labels = partition_graph(graph, 8, seed=0)
        counts = np.bincount(labels, minlength=8)
        assert (counts == 1).all()

    def test_explicit_generator_matches_seed(self, small_community):
        """An explicit Generator threads through the whole pass — the
        merge/split rebalancing included — identically to the plain
        seed, so callers can hand one RNG through larger pipelines."""
        from_seed = partition_graph(small_community, 8, seed=5)
        from_generator = partition_graph(
            small_community, 8, seed=np.random.default_rng(5)
        )
        np.testing.assert_array_equal(from_seed, from_generator)

    def test_deterministic_across_processes(self):
        """Regression (sharding prerequisite): two separate interpreter
        processes given the same graph and seed must derive identical
        labels — shard boundaries cut on partition frontiers are only
        consistent if every process agrees on them."""
        script = (
            "import numpy as np\n"
            "from repro.graph.generators import community_graph\n"
            "from repro.graph.partition import partition_graph\n"
            "graph = community_graph(300, avg_degree=8,"
            " num_communities=6, seed=4)\n"
            "labels = partition_graph(graph, 6, seed=5)\n"
            "print(','.join(map(str, labels.tolist())))\n"
        )
        import repro

        src_dir = os.path.dirname(os.path.dirname(repro.__file__))
        env = {**os.environ, "PYTHONHASHSEED": "random"}
        env["PYTHONPATH"] = os.pathsep.join(
            [src_dir] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        outputs = []
        for _ in range(2):
            result = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True, text=True, check=True, env=env,
            )
            outputs.append(result.stdout.strip())
        assert outputs[0] == outputs[1]
        here = partition_graph(
            __import__("repro.graph.generators",
                       fromlist=["community_graph"]).community_graph(
                300, avg_degree=8, num_communities=6, seed=4
            ),
            6, seed=5,
        )
        assert outputs[0] == ",".join(map(str, here.tolist()))
