"""Row shards of the propagation operator.

A :class:`ShardPlan` cuts the rows of ``Ã^T`` into contiguous stripes,
one per worker process; :meth:`ShardPlan.uniform` cuts them of
near-equal height.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ParameterError

__all__ = ["ShardPlan"]


@dataclass(frozen=True)
class ShardPlan:
    """A partition of the operator's row range into per-worker stripes.

    Attributes
    ----------
    boundaries:
        ``int64`` array ``[0, b_1, ..., n]``; shard ``s`` owns rows
        ``boundaries[s]..boundaries[s+1]-1``.  Strictly increasing.
    """

    boundaries: np.ndarray

    def __post_init__(self) -> None:
        bounds = np.ascontiguousarray(self.boundaries, dtype=np.int64)
        if bounds.ndim != 1 or bounds.size < 2 or bounds[0] != 0:
            raise ParameterError(
                "shard boundaries must be a 1-D int array starting at 0"
            )
        if not (np.diff(bounds) > 0).all():
            raise ParameterError("shard boundaries must be strictly increasing")
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
        """Stripes of near-equal height: each cut splits the rows that
        remain evenly among the shards still to fill."""
        _validate_counts(num_rows, num_shards)
        bounds = [0]
        for shard in range(num_shards - 1):
            remaining_shards = num_shards - shard
            share = round((num_rows - bounds[-1]) / remaining_shards)
            cut = bounds[-1] + max(1, share)
            bounds.append(min(cut, num_rows - (remaining_shards - 1)))
        bounds.append(num_rows)
        return cls(boundaries=np.asarray(bounds, dtype=np.int64))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardPlan(rows={self.num_rows}, shards={self.num_shards})"
        )


def _validate_counts(num_rows: int, num_shards: int) -> None:
    if num_rows < 1:
        raise ParameterError("a shard plan needs at least one row")
    if num_shards < 1:
        raise ParameterError("num_shards must be at least 1")
    if num_shards > num_rows:
        raise ParameterError("num_shards cannot exceed the row count")
