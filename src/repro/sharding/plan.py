"""Partition-aligned row shards of the propagation operator.

A :class:`ShardPlan` cuts the rows of ``Ã^T`` into contiguous stripes,
one per worker process, closed on the operator's natural frontiers:

* under a SlashBurn ordering, the hub band is pinned to shard 0 and the
  spoke shards close on community-block starts
  (:meth:`ShardPlan.from_slashburn`), so a shard's gathers stay within
  the hot hub prefix plus its own blocks;
* under a :func:`~repro.graph.partition.partition_graph` community
  ordering, shards close on partition boundaries
  (:meth:`ShardPlan.from_block_starts` over
  :func:`~repro.graph.partition.partition_order` starts);
* with no structure, :meth:`ShardPlan.uniform` cuts equal stripes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ParameterError

__all__ = ["ShardPlan"]


def _pack_on_cuts(
    start: int, end: int, num_shards: int, cuts: np.ndarray | None
) -> list[int]:
    """Boundaries splitting ``[start, end)`` into ``num_shards`` stripes
    of near-equal height, each closed on one of ``cuts`` when a candidate
    lies near the ideal split point (otherwise the ideal point itself —
    an oversized block is split rather than starving a shard)."""
    bounds: list[int] = []
    position = start
    for shard in range(num_shards - 1):
        remaining_shards = num_shards - shard
        ideal = position + max(1, round((end - position) / remaining_shards))
        ideal = min(ideal, end - (remaining_shards - 1))
        cut = ideal
        if cuts is not None and cuts.size:
            candidates = cuts[(cuts > position) & (cuts < end)]
            if candidates.size:
                nearest = int(
                    candidates[np.argmin(np.abs(candidates - ideal))]
                )
                # Snap to the frontier unless that would leave this shard
                # (or the remainder) with less than half its fair share.
                fair = (end - position) / remaining_shards
                if abs(nearest - ideal) <= fair / 2:
                    cut = nearest
        cut = int(min(max(cut, position + 1), end - (remaining_shards - 1)))
        bounds.append(cut)
        position = cut
    bounds.append(end)
    return bounds


@dataclass(frozen=True)
class ShardPlan:
    """A partition of the operator's row range into per-worker stripes.

    Attributes
    ----------
    boundaries:
        ``int64`` array ``[0, b_1, ..., n]``; shard ``s`` owns rows
        ``boundaries[s]..boundaries[s+1]-1``.  Strictly increasing.
    num_hubs:
        Size of the SlashBurn hub prefix the plan was built around
        (``0`` when unordered).  When non-zero, shard 0 always contains
        the whole hub band — the rows every other row gathers from.
    """

    boundaries: np.ndarray
    num_hubs: int = 0

    def __post_init__(self) -> None:
        bounds = np.ascontiguousarray(self.boundaries, dtype=np.int64)
        if bounds.ndim != 1 or bounds.size < 2 or bounds[0] != 0:
            raise ParameterError(
                "shard boundaries must be a 1-D int array starting at 0"
            )
        if not (np.diff(bounds) > 0).all():
            raise ParameterError("shard boundaries must be strictly increasing")
        if not 0 <= self.num_hubs <= int(bounds[-1]):
            raise ParameterError("num_hubs must lie within the row range")
        if self.num_hubs and bounds.size > 2 and int(bounds[1]) < self.num_hubs:
            raise ParameterError(
                "the hub band must be pinned to shard 0 "
                f"(first cut {int(bounds[1])} < num_hubs {self.num_hubs})"
            )
        object.__setattr__(self, "boundaries", bounds)

    # -- introspection ---------------------------------------------------------

    @property
    def num_rows(self) -> int:
        return int(self.boundaries[-1])

    @property
    def num_shards(self) -> int:
        return int(self.boundaries.size - 1)

    def shard_rows(self, shard: int) -> tuple[int, int]:
        """Row range ``[begin, end)`` owned by ``shard``."""
        if not 0 <= shard < self.num_shards:
            raise ParameterError(
                f"shard index must lie in [0, {self.num_shards - 1}]"
            )
        return int(self.boundaries[shard]), int(self.boundaries[shard + 1])

    # -- builders --------------------------------------------------------------

    @classmethod
    def uniform(cls, num_rows: int, num_shards: int) -> "ShardPlan":
        """Equal-height stripes with no structural alignment."""
        _validate_counts(num_rows, num_shards)
        bounds = [0] + _pack_on_cuts(0, num_rows, num_shards, None)
        return cls(boundaries=np.asarray(bounds, dtype=np.int64))

    @classmethod
    def from_block_starts(
        cls,
        num_rows: int,
        num_shards: int,
        block_starts: np.ndarray,
        num_hubs: int = 0,
    ) -> "ShardPlan":
        """Shards closed on community-block frontiers.

        ``block_starts`` lists the first row of each community block
        (e.g. :func:`repro.graph.partition.partition_order` starts, or
        SlashBurn block starts); shard cuts snap to the nearest frontier
        around each equal split point.  With ``num_hubs > 0`` the hub
        band is pinned to shard 0 and only the spoke rows are packed
        across the remaining shards.
        """
        _validate_counts(num_rows, num_shards)
        if not 0 <= num_hubs <= num_rows:
            raise ParameterError("num_hubs must lie in [0, num_rows]")
        cuts = np.unique(np.asarray(block_starts, dtype=np.int64))
        cuts = cuts[(cuts > num_hubs) & (cuts < num_rows)]
        if num_hubs == 0 or num_shards == 1:
            bounds = [0] + _pack_on_cuts(0, num_rows, num_shards, cuts)
            return cls(
                boundaries=np.asarray(bounds, dtype=np.int64),
                num_hubs=num_hubs,
            )
        if num_shards > num_rows - num_hubs + 1:
            raise ParameterError(
                f"cannot cut {num_rows - num_hubs} spoke rows into "
                f"{num_shards - 1} shards"
            )
        # Shard 0 = the hub band (plus its share of spoke rows when the
        # band is large); spokes pack into the remaining shards on block
        # frontiers.
        first_cut = max(
            num_hubs,
            _pack_on_cuts(0, num_rows, num_shards, cuts)[0],
        )
        first_cut = min(first_cut, num_rows - (num_shards - 1))
        bounds = [0, first_cut] + _pack_on_cuts(
            first_cut, num_rows, num_shards - 1, cuts
        )
        return cls(
            boundaries=np.asarray(bounds, dtype=np.int64), num_hubs=num_hubs
        )

    @classmethod
    def from_slashburn(cls, ordering, num_shards: int) -> "ShardPlan":
        """A plan aligned to a SlashBurn ordering: hub band pinned to
        shard 0, spoke shards closed on block starts.

        ``ordering`` is a
        :class:`~repro.kernels.reorder.LocalityReordering` (what
        ``Engine(reorder="slashburn")`` carries) or a
        :class:`~repro.graph.slashburn.SlashBurnOrdering`.
        """
        num_hubs = int(ordering.num_hubs)
        if hasattr(ordering, "block_boundaries"):  # SlashBurnOrdering
            starts = ordering.block_boundaries()
            num_rows = int(ordering.permutation.size)
        else:  # LocalityReordering
            starts = np.asarray(ordering.block_starts, dtype=np.int64)
            num_rows = int(ordering.graph.num_nodes)
        if num_hubs >= num_rows:
            # Degenerate ordering (everything a hub): nothing to pin,
            # fall back to plain equal stripes.
            return cls.uniform(num_rows, num_shards)
        return cls.from_block_starts(
            num_rows, num_shards, starts, num_hubs=num_hubs
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardPlan(rows={self.num_rows}, shards={self.num_shards}, "
            f"hubs={self.num_hubs})"
        )


def _validate_counts(num_rows: int, num_shards: int) -> None:
    if num_rows < 1:
        raise ParameterError("a shard plan needs at least one row")
    if num_shards < 1:
        raise ParameterError("num_shards must be at least 1")
    if num_shards > num_rows:
        raise ParameterError("num_shards cannot exceed the row count")
