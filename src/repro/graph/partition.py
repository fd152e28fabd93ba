"""Community partitioning used by NB-LIN's block / low-rank split.

NB-LIN (Tong et al., 2008) partitions the graph into communities, keeps the
within-partition adjacency ``A1`` exact (block diagonal), and low-rank
approximates the cross-partition part ``A2``.  The original work uses METIS;
this module provides a dependency-free substitute: size-capped label
propagation on the symmetrized graph with a deterministic tie-break,
followed by a merge/split pass that enforces minimum and maximum partition
sizes so the dense per-block inverses stay tractable.

Determinism contract
--------------------
Every random choice — the initial label assignment, the sweep order, and
the member selection of the merge/split pass — draws from one
:class:`numpy.random.Generator` seeded by the ``seed`` argument, and no
step consults process-dependent state (global NumPy RNG, hash order,
address order).  Two processes given the same graph and seed therefore
produce identical labels, which is what lets
:mod:`repro.sharding` cut shard boundaries on partition frontiers and
have every worker process agree on them (the test suite runs the
cross-process regression).
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ParameterError
from repro.graph.graph import Graph

__all__ = ["partition_graph", "partition_order"]


def partition_graph(
    graph: Graph,
    num_partitions: int,
    iterations: int = 8,
    seed: int | np.random.Generator | None = 0,
) -> np.ndarray:
    """Partition nodes into roughly balanced communities.

    Parameters
    ----------
    graph:
        Input digraph; partitioning runs on its symmetrized view.
    num_partitions:
        Target number of partitions (the result has exactly this many
        non-empty labels when ``num_partitions <= n``).
    iterations:
        Label-propagation sweeps before balancing.
    seed:
        Seed (or an explicit :class:`numpy.random.Generator`) for every
        random choice the pass makes — the initial labels, the sweep
        order, *and* the merge/split rebalancing.  Equal seeds yield
        identical labels in any process (see the module docstring).

    Returns
    -------
    numpy.ndarray
        Length-``n`` integer array of partition labels in
        ``0..num_partitions-1``.
    """
    n = graph.num_nodes
    if num_partitions < 1:
        raise ParameterError("num_partitions must be >= 1")
    if num_partitions > n:
        raise ParameterError("num_partitions cannot exceed the node count")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)

    if num_partitions == 1:
        return np.zeros(n, dtype=np.int64)

    sym = graph.undirected_view()
    indptr, indices = sym.indptr, sym.indices

    labels = rng.integers(0, num_partitions, size=n, dtype=np.int64)

    # Label propagation: each node adopts the most common label among its
    # neighbours; ties break toward the smallest label for determinism.
    for _ in range(iterations):
        changed = False
        order = rng.permutation(n)
        for node in order:
            start, end = indptr[node], indptr[node + 1]
            if start == end:
                continue
            neighbor_labels = labels[indices[start:end]]
            counts = np.bincount(neighbor_labels, minlength=num_partitions)
            best = int(np.argmax(counts))
            if counts[best] > 0 and best != labels[node]:
                labels[node] = best
                changed = True
        if not changed:
            break

    return _rebalance(labels, num_partitions, n, rng)


def _rebalance(
    labels: np.ndarray,
    num_partitions: int,
    n: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Enforce bounded partition sizes and exactly ``num_partitions`` labels.

    Label propagation tends to collapse into few giant labels; this pass
    splits any partition larger than ``2 * ceil(n / num_partitions)`` and
    refills empty labels so downstream dense block inverses stay small.
    Which members of an oversized partition move is drawn from ``rng`` —
    the same generator that seeded the propagation — so the whole pass
    stays a pure function of ``(graph, seed)``.
    """
    target = int(np.ceil(n / num_partitions))
    max_size = max(1, 2 * target)
    labels = labels.copy()

    counts = np.bincount(labels, minlength=num_partitions)
    empty = [p for p in range(num_partitions) if counts[p] == 0]

    for part in range(num_partitions):
        while counts[part] > max_size:
            members = rng.permutation(np.flatnonzero(labels == part))
            move = members[: counts[part] - max_size]
            if empty:
                dest = empty.pop()
            else:
                dest = int(np.argmin(counts))
                if dest == part:
                    break
            take = move[: max(1, min(move.size, max_size - counts[dest]))]
            labels[take] = dest
            counts = np.bincount(labels, minlength=num_partitions)

    # Fill any remaining empty labels with singletons from the largest part.
    counts = np.bincount(labels, minlength=num_partitions)
    for part in range(num_partitions):
        if counts[part] == 0:
            donor = int(np.argmax(counts))
            victim = np.flatnonzero(labels == donor)[0]
            labels[victim] = part
            counts[donor] -= 1
            counts[part] += 1
    return labels


def partition_order(labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Node ordering that makes each partition a contiguous row range.

    Parameters
    ----------
    labels:
        Length-``n`` partition labels (e.g. from :func:`partition_graph`).

    Returns
    -------
    tuple
        ``(permutation, starts)``: ``permutation`` lists old node ids in
        their new order (nodes sorted stably by label, so relabeling a
        graph with :meth:`~repro.graph.graph.Graph.permute` groups each
        community into one block), and ``starts`` holds the first new id
        of every non-empty partition, ascending — the natural cut points
        for community-aligned row shards.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 1 or labels.size == 0:
        raise ParameterError("labels must be a non-empty 1-D array")
    permutation = np.argsort(labels, kind="stable").astype(np.int64)
    ordered = labels[permutation]
    firsts = np.flatnonzero(np.diff(ordered) != 0) + 1
    starts = np.concatenate(
        [np.zeros(1, dtype=np.int64), firsts.astype(np.int64)]
    )
    return permutation, starts
