"""SlashBurn row reordering — the cache-locality fast path for blocked SpMM.

The CSR kernels stream ``x[indices[j]]`` gathers whose locality is set by
the node numbering.  Real random-walk graphs are hub-and-spoke shaped, and
SlashBurn (:mod:`repro.graph.slashburn`) exploits exactly that: hubs move
to the front and the remainder becomes near-block-diagonal, so a row's
column indices cluster into (a) a short hot hub prefix that stays
cache-resident and (b) the row's own community block.  For the blocked
``(n, B)`` SpMM of the batched online phase, each gathered ``x`` row is
``B`` doubles wide — locality in the column indices is worth ``B`` times
more than in the SpMV case, which is why the batched engine opts in
(``Engine(..., reorder="slashburn")``).

The reordering is a pure relabeling: the permuted graph's operator is the
same linear map conjugated by a permutation, so scores computed in the
reordered space map back exactly through the permutation (the engine does
this transparently; results agree with the unordered path to solver
tolerance — bitwise equality is *not* preserved because row order changes
the SpMM's accumulation schedule).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    # Imported lazily at call time: repro.graph.graph itself imports the
    # kernel layer, so a module-level import here would be circular.
    from repro.graph.graph import Graph

__all__ = ["LocalityReordering", "locality_reordering"]


@dataclass(frozen=True)
class LocalityReordering:
    """A relabeled graph plus the maps between the two id spaces.

    Attributes
    ----------
    graph:
        The reordered graph (SlashBurn order: hubs first, then the
        near-block-diagonal remainder).
    to_reordered:
        ``to_reordered[old_id] == new_id``.
    to_original:
        ``to_original[new_id] == old_id`` (the SlashBurn permutation).
    num_hubs:
        Size of the hub prefix (rows ``0..num_hubs-1`` of the reordered
        operator are the hot band).
    block_starts:
        First reordered id of every non-hub community block, ascending
        (empty when unknown) — the frontiers
        :meth:`repro.sharding.ShardPlan.from_slashburn` cuts shards on.
    """

    graph: Graph
    to_reordered: np.ndarray
    to_original: np.ndarray
    num_hubs: int
    block_starts: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int64)
    )

    def scores_to_original(self, scores: np.ndarray) -> np.ndarray:
        """Map a score vector (or ``(n, B)`` column stack) computed on the
        reordered graph back to original node ids along axis 0."""
        return scores[self.to_reordered]

    def ids_to_original(self, ids: np.ndarray) -> np.ndarray:
        """Map reordered node ids back to original ids; negative entries
        (the engine's ``-1`` ranking padding) pass through unchanged."""
        ids = np.asarray(ids)
        result = np.where(ids >= 0, self.to_original[np.clip(ids, 0, None)], ids)
        return result.astype(np.int64, copy=False)


def locality_reordering(graph: Graph, k: int | None = None) -> LocalityReordering:
    """Relabel ``graph`` into SlashBurn order for cache-friendly SpMM.

    ``k`` is the per-round hub count forwarded to
    :func:`~repro.graph.slashburn.slashburn` (its 0.5 % default when
    ``None``).
    """
    from repro.graph.slashburn import slashburn

    ordering = slashburn(graph, k=k)
    permutation = ordering.permutation
    inverse = np.empty_like(permutation)
    inverse[permutation] = np.arange(permutation.size)
    return LocalityReordering(
        graph=graph.permute(permutation),
        to_reordered=inverse,
        to_original=permutation,
        num_hubs=ordering.num_hubs,
        block_starts=ordering.block_starts(),
    )
