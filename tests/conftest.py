"""Shared fixtures for the test suite.

Graphs are module-scoped where construction is expensive; tests never
mutate them (Graph is logically immutable).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph import (
    community_graph,
    complete_graph,
    gnm_random_graph,
    ring_graph,
    star_graph,
)
from repro.graph.graph import Graph


@pytest.fixture(scope="session")
def small_community():
    """A 400-node community graph — the workhorse fixture."""
    return community_graph(400, avg_degree=8, num_communities=8, seed=11)


@pytest.fixture(scope="session")
def medium_community():
    """A 1500-node community graph for accuracy comparisons."""
    return community_graph(1500, avg_degree=10, num_communities=12, seed=12)


@pytest.fixture(scope="session")
def random_gnm():
    return gnm_random_graph(400, 3200, seed=13)


@pytest.fixture(scope="session")
def tiny_ring():
    return ring_graph(10)


@pytest.fixture(scope="session")
def tiny_star():
    return star_graph(9)


@pytest.fixture(scope="session")
def tiny_complete():
    return complete_graph(6)


@pytest.fixture
def line_graph():
    """0 -> 1 -> 2 -> 3 with a back-edge 3 -> 0 (no dangling)."""
    return Graph(4, [0, 1, 2, 3], [1, 2, 3, 0])


@pytest.fixture
def dangling_graph_selfloop():
    """Node 2 has no out-edges; self-loop policy."""
    return Graph(3, [0, 1], [1, 2], dangling="selfloop")


@pytest.fixture
def dangling_graph_uniform():
    """Node 2 has no out-edges; uniform teleport policy."""
    return Graph(3, [0, 1], [1, 2], dangling="uniform")


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(0)
