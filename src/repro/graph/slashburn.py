"""SlashBurn hub/spoke node ordering (Kang & Faloutsos, ICDM 2011).

Real-world graphs are not "caveman" graphs: removing a handful of hub nodes
shatters them into a giant connected component plus many tiny "spokes".
SlashBurn exploits this by repeatedly

1. removing the ``k`` highest-degree nodes (*hubs*) and placing them at the
   front of the ordering,
2. placing the nodes of all non-giant connected components (*spokes*) at the
   back, and
3. recursing on the giant connected component,

which concentrates the nonzeros of the permuted adjacency matrix into a
thin hub band plus a block-diagonal remainder.  BEAR and BePI both rely on
this ordering to make their ``H11`` block (the non-hub part) block diagonal
with small blocks, so block-wise LU inversion is cheap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from repro.exceptions import ParameterError
from repro.graph.graph import Graph

__all__ = ["SlashBurnOrdering", "slashburn"]


@dataclass(frozen=True)
class SlashBurnOrdering:
    """Result of a SlashBurn run.

    Attributes
    ----------
    permutation:
        Old node ids in new order: hubs first (in removal order), then the
        final giant-component remainder, then spokes (in reverse discovery
        order, matching the original algorithm's back-filling).
    num_hubs:
        Total number of hub nodes across all iterations.  In the permuted
        matrix, rows/cols ``num_hubs..n-1`` form the block-diagonal
        non-hub part.
    blocks:
        List of arrays of *new* node ids (each ``>= num_hubs``), one per
        connected component of the non-hub subgraph.  Concatenated they
        cover ``num_hubs..n-1``.
    iterations:
        Number of hub-removal rounds performed.
    """

    permutation: np.ndarray
    num_hubs: int
    blocks: list[np.ndarray]
    iterations: int

    def block_starts(self) -> np.ndarray:
        """First new node id of every non-hub block, ascending.

        These are the natural cut points of the permuted operator: a row
        stripe closed on a block start gathers only from its own blocks
        plus the hub band.  Empty when the graph is all hubs.
        """
        if not self.blocks:
            return np.empty(0, dtype=np.int64)
        return np.asarray(
            [int(block[0]) for block in self.blocks], dtype=np.int64
        )

    def block_boundaries(self) -> np.ndarray:
        """Every natural cut point of the permuted operator, ascending:
        the hub/spoke frontier, each non-hub block start, and ``n``.

        This is the candidate set row shards may close on — cutting
        anywhere else would split a community block across two
        stripes.  :func:`repro.sharding.ShardPlan.from_slashburn` packs
        shard boundaries from exactly this set.
        """
        n = int(self.permutation.size)
        cuts = np.concatenate(
            [
                np.asarray([self.num_hubs], dtype=np.int64),
                self.block_starts(),
                np.asarray([n], dtype=np.int64),
            ]
        )
        return np.unique(cuts[(cuts >= 0) & (cuts <= n)])


def slashburn(graph: Graph, k: int | None = None, max_block: int | None = None) -> SlashBurnOrdering:
    """Compute a SlashBurn ordering of ``graph``.

    Parameters
    ----------
    graph:
        Input digraph; hub selection uses total (in+out) degree on the
        symmetrized adjacency, as in the original paper.
    k:
        Hubs removed per iteration.  Defaults to ``max(1, round(0.005 n))``,
        the 0.5 % used by BEAR.
    max_block:
        Stop recursing once the giant component is at most this size
        (defaults to ``k``); the remainder is kept as one final block.

    Returns
    -------
    SlashBurnOrdering
    """
    n = graph.num_nodes
    if n == 0:
        raise ParameterError("slashburn needs a non-empty graph")
    if k is None:
        k = max(1, int(round(0.005 * n)))
    if k < 1:
        raise ParameterError("k must be at least 1")
    if max_block is None:
        max_block = max(k, 2)

    sym = graph.undirected_view().tocsr()

    # `alive` tracks nodes still in the shrinking giant component.
    alive = np.arange(n, dtype=np.int64)
    hubs: list[np.ndarray] = []
    spoke_groups: list[np.ndarray] = []  # appended front-to-back of the tail
    iterations = 0

    while alive.size > max_block:
        iterations += 1
        sub = sym[alive][:, alive]
        degree = np.asarray(sub.sum(axis=1)).ravel()

        take = min(k, alive.size)
        # Highest-degree nodes first; stable tie-break on node id.
        order = np.lexsort((alive, -degree))
        hub_local = order[:take]
        hubs.append(alive[hub_local])

        remain_local = np.setdiff1d(
            np.arange(alive.size, dtype=np.int64), hub_local, assume_unique=False
        )
        if remain_local.size == 0:
            alive = np.empty(0, dtype=np.int64)
            break

        remainder = sub[remain_local][:, remain_local]
        count, labels = connected_components(remainder, directed=False)
        sizes = np.bincount(labels, minlength=count)
        giant = int(np.argmax(sizes))

        spokes_local = remain_local[labels != giant]
        if spokes_local.size:
            # Spokes go to the back; order by component then id so the
            # permuted matrix keeps components contiguous.
            spoke_labels = labels[labels != giant]
            order_sp = np.lexsort((alive[spokes_local], spoke_labels))
            spoke_groups.append(alive[spokes_local[order_sp]])
        alive = alive[remain_local[labels == giant]]

    hub_ids = (
        np.concatenate(hubs) if hubs else np.empty(0, dtype=np.int64)
    )
    # Tail: final giant remainder first, then spoke groups in reverse
    # discovery order (later-discovered spokes sit closer to the middle).
    tail_parts = [alive] + spoke_groups[::-1]
    tail = (
        np.concatenate([part for part in tail_parts if part.size])
        if any(part.size for part in tail_parts)
        else np.empty(0, dtype=np.int64)
    )
    permutation = np.concatenate([hub_ids, tail])
    num_hubs = int(hub_ids.size)

    blocks = _nonhub_blocks(sym, permutation, num_hubs)
    return SlashBurnOrdering(
        permutation=permutation,
        num_hubs=num_hubs,
        blocks=blocks,
        iterations=iterations,
    )


def _nonhub_blocks(
    sym: sp.csr_array, permutation: np.ndarray, num_hubs: int
) -> list[np.ndarray]:
    """Connected components of the non-hub subgraph, as new-id arrays."""
    n = permutation.size
    if num_hubs >= n:
        return []
    nonhub_old = permutation[num_hubs:]
    sub = sym[nonhub_old][:, nonhub_old]
    count, labels = connected_components(sub, directed=False)
    blocks: list[np.ndarray] = []
    for comp in range(count):
        local = np.flatnonzero(labels == comp)
        blocks.append(local + num_hubs)
    # Order blocks by their first new id so they are contiguous in the
    # permuted matrix ordering.
    blocks.sort(key=lambda b: int(b[0]))
    return blocks
