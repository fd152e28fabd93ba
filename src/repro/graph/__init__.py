"""Graph substrate: CSR-backed directed graphs, IO, generators, datasets.

This subpackage provides everything the RWR algorithms need from a graph:

* :class:`~repro.graph.graph.Graph` — an immutable directed graph backed by
  ``scipy.sparse`` CSR storage, exposing the column-stochastic transition
  operator ``Ã^T`` used by every method in the paper.
* :mod:`~repro.graph.io` — KONECT-style edge-list reading and writing.
* :mod:`~repro.graph.generators` — synthetic generators (community-structured
  directed SBM, R-MAT, Erdős–Rényi ``G(n, m)``, and small deterministic
  topologies for tests).
* :mod:`~repro.graph.datasets` — the registry of scaled analogs of the
  paper's seven evaluation graphs (Table II).
* :mod:`~repro.graph.slashburn` — SlashBurn hub/spoke ordering (needed by
  BEAR-APPROX and BePI).
* :mod:`~repro.graph.partition` — community partitioning (needed by NB-LIN).

The graph protocol the iterate loops (:mod:`repro.core.cpi`) consume is
``propagate_decayed(x, decay, out=None)`` plus ``propagate(x)``; every
substrate — :class:`Graph`, :class:`DiskGraph`,
:class:`repro.dynamic.DynamicGraph` and its permuted view,
:class:`repro.sharding.ShardedOperator` — implements both.
"""

from repro.graph.graph import Graph
from repro.graph.io import read_edge_list, write_edge_list
from repro.graph.generators import (
    community_graph,
    rmat_graph,
    gnm_random_graph,
    rewire_random,
    ring_graph,
    star_graph,
    complete_graph,
)
from repro.graph.datasets import DATASETS, DatasetSpec, load_dataset, dataset_names
from repro.graph.slashburn import slashburn, SlashBurnOrdering
from repro.graph.partition import partition_graph
from repro.graph.diskgraph import DiskGraph
from repro.graph.stats import (
    GraphStats,
    graph_stats,
    reciprocity,
    gini_coefficient,
    intra_community_fraction,
)

__all__ = [
    "Graph",
    "read_edge_list",
    "write_edge_list",
    "community_graph",
    "rmat_graph",
    "gnm_random_graph",
    "rewire_random",
    "ring_graph",
    "star_graph",
    "complete_graph",
    "DATASETS",
    "DatasetSpec",
    "load_dataset",
    "dataset_names",
    "slashburn",
    "SlashBurnOrdering",
    "partition_graph",
    "DiskGraph",
    "GraphStats",
    "graph_stats",
    "reciprocity",
    "gini_coefficient",
    "intra_community_fraction",
]
