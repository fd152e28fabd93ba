"""Hub-aware row tiling for the blocked SpMM.

The batched online phase is one big CSR SpMM per iteration: every output
row gathers ``x[indices[j]]`` rows that are ``B`` doubles wide.  On a
SlashBurn-reordered operator those gathers split into two populations —
a short, extremely hot *hub band* (rows every other row links to) and a
near-block-diagonal *spoke* remainder whose gathers stay inside the
row's own community block.  Executing the SpMM tile by tile keeps each
tile's working set (its slice of ``out`` plus the ``x`` rows it gathers)
cache resident instead of streaming the whole ``(n, B)`` operand per
thread, and gives the parallel backend scheduling units that are large
enough to amortize dispatch but small enough to balance skewed rows.

:class:`RowTiling` is a pure execution schedule: tiles partition the row
range, every row is computed exactly as in the untiled kernel, and the
per-row accumulation order is unchanged — tiled and untiled products are
**bitwise identical** on both backends (asserted by the test suite).

Configuration
-------------
``REPRO_KERNEL_TILE`` (environment, read once at import) or
:func:`set_tile_rows` (API) fix the spoke-tile height; unset/``auto``
uses :data:`DEFAULT_TILE_ROWS`.  The active value is part of
:func:`repro.kernels.cache_token` so configuration switches are visible
to every cache keyed on the numeric setup.

The tiling itself is built per operator with :func:`row_tiling`; the
:class:`~repro.kernels.reorder.LocalityReordering` builds one aligned to
its SlashBurn hub band and community blocks, and the Engine attaches it
to the serving graph automatically when ``reorder="slashburn"`` is
active.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import ParameterError

__all__ = [
    "DEFAULT_TILE_ROWS",
    "RowTiling",
    "row_tiling",
    "rows_from_panel",
    "set_tile_rows",
    "tile_rows",
    "tile_token",
]

#: Spoke-tile height used when no explicit configuration is active.  At a
#: batch width of 64 float64 columns a 4096-row tile writes a 2 MiB output
#: slice — L2-sized on common server parts, so the tile's output plus the
#: hot hub rows of ``x`` it gathers stay cache resident.
DEFAULT_TILE_ROWS = 4096


def _resolve_env_tile() -> int | None:
    requested = os.environ.get("REPRO_KERNEL_TILE", "").strip().lower()
    if not requested or requested == "auto":
        return None
    try:
        value = int(requested)
    except ValueError:
        value = 0
    if value < 1:
        warnings.warn(
            f"REPRO_KERNEL_TILE={requested!r} is not a positive integer "
            "or 'auto'; using the auto tile height",
            stacklevel=2,
        )
        return None
    return value


#: ``None`` means auto (:data:`DEFAULT_TILE_ROWS`).
_tile_rows: int | None = _resolve_env_tile()


def tile_rows() -> int:
    """The active spoke-tile height in rows."""
    return DEFAULT_TILE_ROWS if _tile_rows is None else _tile_rows


def set_tile_rows(rows: int | None) -> int | None:
    """Set the spoke-tile height; returns the previous explicit setting.

    ``rows`` must be a positive integer, or ``None``/``"auto"`` to return
    to the auto default.  Tilings already built by :func:`row_tiling`
    keep the height they were built with; rebuild them (e.g. construct a
    new Engine) to pick up the change.  :func:`repro.kernels.cache_token`
    reflects the new value immediately.
    """
    global _tile_rows
    previous = _tile_rows
    if rows is None or rows == "auto":
        _tile_rows = None
        return previous
    rows = int(rows)
    if rows < 1:
        raise ParameterError(f"tile height must be a positive row count, got {rows}")
    _tile_rows = rows
    return previous


def tile_token() -> str:
    """The tiling-configuration component of :func:`repro.kernels.cache_token`."""
    return "tile-auto" if _tile_rows is None else f"tile-{_tile_rows}"


@dataclass(frozen=True)
class RowTiling:
    """A partition of an operator's row range into execution tiles.

    Attributes
    ----------
    boundaries:
        ``int64`` array ``[0, b_1, ..., n]``; tile ``t`` covers rows
        ``boundaries[t]..boundaries[t+1]-1``.  Strictly increasing.
    num_hubs:
        Size of the hub prefix the tiling was built around (``0`` for an
        unordered operator).  A boundary always falls on ``num_hubs`` so
        no tile straddles the hub/spoke frontier.
    tile_height:
        The target spoke-tile height the boundaries were packed to.
    """

    boundaries: np.ndarray
    num_hubs: int = 0
    tile_height: int = field(default=DEFAULT_TILE_ROWS)

    def __post_init__(self) -> None:
        bounds = np.ascontiguousarray(self.boundaries, dtype=np.int64)
        if bounds.ndim != 1 or bounds.size < 2 or bounds[0] != 0:
            raise ParameterError(
                "tile boundaries must be a 1-D int array starting at 0"
            )
        if not (np.diff(bounds) > 0).all():
            raise ParameterError("tile boundaries must be strictly increasing")
        object.__setattr__(self, "boundaries", bounds)

    @property
    def num_rows(self) -> int:
        return int(self.boundaries[-1])

    @property
    def num_tiles(self) -> int:
        return int(self.boundaries.size - 1)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RowTiling(rows={self.num_rows}, tiles={self.num_tiles}, "
            f"hubs={self.num_hubs}, height={self.tile_height})"
        )


def _pack_range(
    start: int, end: int, height: int, edges: np.ndarray | None
) -> list[int]:
    """Boundaries partitioning ``[start, end)`` into tiles of at most
    ``height`` rows, preferring to close each tile on one of ``edges``
    (ascending candidate cut points) so tiles align to natural block
    frontiers instead of splitting them."""
    bounds: list[int] = []
    position = start
    while position < end:
        limit = position + height
        if limit >= end:
            bounds.append(end)
            break
        cut = limit
        if edges is not None and edges.size:
            # Largest candidate edge inside (position, limit]: cutting
            # there keeps whole community blocks inside one tile.
            index = int(np.searchsorted(edges, limit, side="right")) - 1
            if index >= 0 and edges[index] > position:
                cut = int(edges[index])
        bounds.append(cut)
        position = cut
    return bounds


def row_tiling(
    num_rows: int,
    num_hubs: int = 0,
    tile_height: int | None = None,
    block_starts: np.ndarray | None = None,
) -> RowTiling:
    """Build a hub-aware :class:`RowTiling` for an ``num_rows``-row operator.

    Parameters
    ----------
    num_rows:
        Row count of the operator the tiling will execute.
    num_hubs:
        Size of the hub prefix (rows ``0..num_hubs-1``).  The hub band is
        chunked separately and a tile boundary is pinned at ``num_hubs``.
    tile_height:
        Explicit tile height; defaults to the configured
        :func:`tile_rows` (``REPRO_KERNEL_TILE`` / :func:`set_tile_rows`).
    block_starts:
        Optional ascending first-row indices of the spoke community
        blocks (SlashBurn's near-block-diagonal remainder).  Spoke tiles
        then close on block frontiers whenever one lies within the tile
        height, so a tile's gathers stay inside its own blocks plus the
        hub band; blocks taller than the tile height are split.
    """
    if num_rows < 1:
        raise ParameterError("row_tiling needs at least one row")
    if not 0 <= num_hubs <= num_rows:
        raise ParameterError(
            f"num_hubs must lie in [0, {num_rows}], got {num_hubs}"
        )
    height = tile_rows() if tile_height is None else int(tile_height)
    if height < 1:
        raise ParameterError(f"tile height must be positive, got {height}")

    edges = None
    if block_starts is not None:
        edges = np.unique(np.asarray(block_starts, dtype=np.int64))
        edges = edges[(edges > num_hubs) & (edges < num_rows)]

    bounds = [0]
    if num_hubs:
        bounds.extend(_pack_range(0, num_hubs, height, None))
    if num_hubs < num_rows:
        bounds.extend(_pack_range(num_hubs, num_rows, height, edges))
    return RowTiling(
        boundaries=np.asarray(bounds, dtype=np.int64),
        num_hubs=int(num_hubs),
        tile_height=height,
    )


#: Bytes of one row tile of :func:`rows_from_panel` (64 rows at B=128,
#: 128 at B=64): L1-sized, so the tile read row-wise is still resident
#: when it is written out column-wise.  Measured best of 32 KiB–1 MiB at
#: both 20k×64 and 200k×128.
_PANEL_TILE_BYTES = 64 << 10


def rows_from_panel(panel: np.ndarray, fuse=None) -> np.ndarray:
    """The ``(n, B)`` iterate ``panel`` as C-contiguous ``(B, n)`` rows.

    Iterate loops keep one column per seed (contiguous SpMM passes);
    everything downstream — ranking, caching, result vectors — wants one
    contiguous row per seed.  ``np.ascontiguousarray(panel.T)`` makes
    that copy with a ``8·B``-byte stride on one side for the whole
    matrix; this helper moves a cache-sized row tile at a time instead
    (1.9 ms vs 15.8 ms at 20k×64, 67 ms vs 361 ms at 200k×128 on the
    reference box).  Values are copied, never recomputed.

    ``fuse(tile, r0, r1, scratch)``, when given, maps panel rows
    ``r0:r1`` (``tile``, a view) to the values actually stored; it may
    fill and return ``scratch`` (same shape and dtype as ``tile``).
    This lets an elementwise epilogue run while the tile is cache
    resident instead of as extra passes over the whole panel.
    """
    rows, width = panel.shape
    out = np.empty((width, rows), dtype=panel.dtype)
    height = max(8, _PANEL_TILE_BYTES // max(1, width * panel.itemsize))
    scratch = (
        None if fuse is None
        else np.empty((min(height, rows), width), dtype=panel.dtype)
    )
    for r0 in range(0, rows, height):
        r1 = min(r0 + height, rows)
        tile = panel[r0:r1]
        if fuse is not None:
            tile = fuse(tile, r0, r1, scratch[: r1 - r0])
        out[:, r0:r1] = tile.T
    return out
