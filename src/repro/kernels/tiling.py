"""Cache-blocked ``(n, B)`` → ``(B, n)`` panel transposition
(:func:`rows_from_panel`)."""

from __future__ import annotations

import numpy as np

__all__ = ["rows_from_panel"]


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
