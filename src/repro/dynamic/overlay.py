"""The delta overlay: an append-only edge-mutation log over a frozen CSR.

Every substrate in the repo is build-once — :class:`~repro.graph.Graph`,
``DiskGraph``, and the shard stripes are immutable CSR.  A
:class:`DeltaOverlay` layers edge inserts and deletes over such a base
without touching it: mutations are recorded per *source* node (the only
granularity at which row normalization changes), and the overlay compiles
them on demand into a sparse **delta operator** ``Δ`` such that

.. math::

    \\tilde{A}'^\\top \\;=\\; \\tilde{A}^\\top + \\Delta,

where ``Ã'`` is the row-normalized adjacency of the mutated graph.  An
edge mutation at source ``u`` rescales *every* surviving out-edge of
``u`` (the row weight moves from ``1/d_old`` to ``1/d_new``), so ``Δ``
has one entry per (old ∪ new) neighbor of each touched source:

* inserted edge ``u→v``:   ``+1/d_new``,
* deleted edge ``u→v``:    ``-1/d_old`` (the base entry cancels exactly:
  ``1/d_old - 1/d_old == 0.0`` in floats),
* surviving edge ``u→v``:  ``1/d_new - 1/d_old`` (a correction whose
  float rounding is the source of the documented ``1e-12`` overlay
  accuracy tier — see :data:`repro.dynamic.OVERLAY_TOLERANCE`).

Each touched source's share of ``Δ`` (its destination rows, its column
and the ``1/d_new - 1/d_old`` values) is derived once and cached; a
mutation drops only the piece of the source it changed.  A compile
therefore costs one derivation per source changed since the last
compile plus one concatenation of the cached pieces in sorted-source
order, not one derivation per source touched since the last compaction.

The compiled delta is an ordinary CSR in the ``Ã^T`` layout (rows are
destinations), so :class:`~repro.dynamic.DynamicGraph` evaluates the
fold with the same :func:`repro.kernels.spmv` / :func:`~repro.kernels.spmm`
kernels as the base product, and decayed/cast variants are derived
through :func:`repro.kernels.scaled_values` — the decayed-operator
contract keeps exactly one implementation.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro import kernels
from repro.exceptions import GraphFormatError
from repro.graph.graph import Graph

__all__ = ["DeltaOverlay", "OVERLAY_TOLERANCE"]

#: Documented accuracy tier of overlay-mode results: while mutations are
#: pending (before :meth:`~repro.dynamic.DynamicGraph.compact`), score
#: vectors agree with a from-scratch rebuild of the mutated graph to
#: within this L1 bound — the rounding of the ``1/d_new - 1/d_old``
#: corrections above, amplified through the convergent CPI series.  The
#: tier is explicit in :func:`repro.kernels.cache_token` (the epoch
#: component carries an ``~overlay-1e-12`` suffix while deltas are
#: pending), the same way the float32 policy already is.
OVERLAY_TOLERANCE = 1e-12


class DeltaOverlay:
    """Append-only COO edge log of inserts/deletes over a base graph.

    Not thread-safe on its own — :class:`~repro.dynamic.DynamicGraph`
    serializes every access under its lock.

    Parameters
    ----------
    base:
        The immutable base :class:`~repro.graph.Graph` the overlay
        shadows.  Never mutated.
    events:
        Starting value of the mutation counter.  ``DynamicGraph.compact``
        threads the old overlay's counter into its replacement so the
        counter stays monotone across compactions and no two distinct
        overlay states ever share an epoch token.
    """

    def __init__(self, base: Graph, events: int = 0):
        self._base = base
        # Touched source -> its *current* out-neighbor set (base rows are
        # materialized lazily on first touch).
        self._neighbors: dict[int, set[int]] = {}
        # Monotone count of applied mutations; the epoch-token component
        # that keeps caches honest while deltas are pending.
        self._events = int(events)
        # Touched source -> its cached delta piece (rows, cols, vals), or
        # None when every correction is an exact zero.  A mutation drops
        # only its own source's piece.
        self._pieces: dict[int, tuple[np.ndarray, ...] | None] = {}
        # Compiled delta operators: the float64 un-decayed master plus
        # scaled/cast variants keyed (decay, dtype name), exactly like
        # Graph._operator_cache.  Invalidated by every mutation and
        # recompiled from the cached pieces.
        self._delta_master: sp.csr_array | None = None
        self._delta_cache: dict[tuple[float | None, str], sp.csr_array] = {}
        self._dirty_rows: np.ndarray | None = None
        self._dangling: np.ndarray | None = None

    # -- introspection ---------------------------------------------------------

    @property
    def base(self) -> Graph:
        return self._base

    @property
    def events(self) -> int:
        """Number of applied mutations (monotone; never reset)."""
        return self._events

    @property
    def touched(self) -> bool:
        """Whether any source node has pending mutations."""
        return bool(self._neighbors)

    @property
    def touched_sources(self) -> list[int]:
        return sorted(self._neighbors)

    def neighbors_of(self, source: int) -> np.ndarray:
        """Current (overlay-aware) out-neighbors of ``source``, sorted."""
        current = self._neighbors.get(source)
        if current is None:
            return np.asarray(self._base.out_neighbors(source), dtype=np.int64)
        return np.fromiter(sorted(current), dtype=np.int64, count=len(current))

    def out_degree_of(self, source: int) -> int:
        current = self._neighbors.get(source)
        if current is None:
            return int(self._base.out_degree[source])
        return len(current)

    def edge_count_delta(self) -> int:
        """Edge-count difference of the overlay graph versus the base."""
        total = 0
        for source, current in self._neighbors.items():
            total += len(current) - int(self._base.out_degree[source])
        return total

    # -- mutation --------------------------------------------------------------

    def _current(self, source: int) -> set[int]:
        current = self._neighbors.get(source)
        if current is None:
            current = set(self._base.out_neighbors(source).tolist())
            self._neighbors[source] = current
        return current

    def _check_endpoint(self, node: int) -> int:
        node = int(node)
        if not 0 <= node < self._base.num_nodes:
            raise GraphFormatError(
                f"edge endpoints must lie in [0, {self._base.num_nodes - 1}];"
                f" got {node}"
            )
        return node

    def add(self, source: int, target: int) -> bool:
        """Record the insert ``source → target``; True when it changed
        the edge set (duplicates and self-loops are no-ops, mirroring
        :class:`~repro.graph.Graph`'s simple-digraph normalization)."""
        source = self._check_endpoint(source)
        target = self._check_endpoint(target)
        if source == target:
            return False
        current = self._neighbors.get(source)
        if current is None:
            # Probe the base row first: a duplicate insert must leave no
            # trace (materializing the row would mark the source touched
            # and dirty the epoch token for a mutation that never was).
            if bool(np.isin(target, self._base.out_neighbors(source))):
                return False
            current = self._current(source)
        elif target in current:
            return False
        current.add(target)
        self._invalidate(source)
        return True

    def remove(self, source: int, target: int) -> bool:
        """Record the delete ``source → target``; True when the edge
        existed.  Removing a missing edge is a no-op."""
        source = self._check_endpoint(source)
        target = self._check_endpoint(target)
        current = self._neighbors.get(source)
        if current is None:
            if not bool(np.isin(target, self._base.out_neighbors(source))):
                return False
            current = self._current(source)
        elif target not in current:
            return False
        current.discard(target)
        self._invalidate(source)
        return True

    def _invalidate(self, source: int) -> None:
        self._events += 1
        self._pieces.pop(source, None)
        self._delta_master = None
        self._delta_cache.clear()
        self._dirty_rows = None
        self._dangling = None

    # -- derived state ---------------------------------------------------------

    def dangling_nodes(self) -> np.ndarray:
        """Overlay-aware dangling set: base dangling nodes minus touched
        sources that gained edges, plus touched sources left empty."""
        if self._dangling is None:
            dangling = set(self._base.dangling_nodes.tolist())
            for source, current in self._neighbors.items():
                if current:
                    dangling.discard(source)
                else:
                    dangling.add(source)
            self._dangling = np.fromiter(
                sorted(dangling), dtype=np.int64, count=len(dangling)
            )
        return self._dangling

    def dirty_operator_rows(self) -> np.ndarray:
        """Rows of ``Ã^T`` (destination nodes) whose stored entries the
        pending mutations change — the stripes :meth:`compact` must
        rebuild and a sharded deployment must republish."""
        if self._dirty_rows is None:
            rows: set[int] = set()
            for source in self._neighbors:
                rows.update(self._base.out_neighbors(source).tolist())
                rows.update(self._neighbors[source])
            self._dirty_rows = np.fromiter(
                sorted(rows), dtype=np.int64, count=len(rows)
            )
        return self._dirty_rows

    def _delta_piece(self, source: int) -> tuple[np.ndarray, ...] | None:
        """Derive ``source``'s column of the delta as ``(rows, cols,
        vals)``, or None when every correction is an exact zero."""
        current = self._neighbors[source]
        base_nb = self._base.out_neighbors(source)
        d_old = float(self._base.out_degree[source])
        w_old = 1.0 / d_old if d_old > 0 else 0.0
        w_new = 1.0 / len(current) if current else 0.0
        targets = np.union1d(
            np.asarray(base_nb, dtype=np.int64),
            np.fromiter(current, dtype=np.int64, count=len(current)),
        )
        if not targets.size:
            return None
        in_new = np.isin(targets, np.fromiter(
            current, dtype=np.int64, count=len(current)
        )) if current else np.zeros(targets.size, dtype=bool)
        in_old = np.isin(targets, np.asarray(base_nb, dtype=np.int64))
        # new weight minus old weight, per surviving/inserted/deleted
        # target — each factor the identical 1/d quotient the base
        # normalization computes.
        delta = np.where(in_new, w_new, 0.0) - np.where(in_old, w_old, 0.0)
        keep = delta != 0.0
        if not keep.any():
            return None
        return (
            targets[keep],
            np.full(int(keep.sum()), source, dtype=np.int64),
            delta[keep],
        )

    def delta_coo(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The un-decayed float64 delta as ``(rows, cols, vals)`` COO
        triplets in the ``Ã^T`` layout (``rows`` are destinations,
        ``cols`` are the touched sources, ascending).  Exact-zero
        corrections are dropped.  Only sources without a cached piece
        are derived; the returned arrays are fresh concatenations."""
        pieces = []
        for source in sorted(self._neighbors):
            if source not in self._pieces:
                self._pieces[source] = self._delta_piece(source)
            if self._pieces[source] is not None:
                pieces.append(self._pieces[source])
        if not pieces:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty, np.empty(0, dtype=np.float64)
        rows, cols, vals = zip(*pieces)
        return (
            np.concatenate(rows),
            np.concatenate(cols),
            np.concatenate(vals),
        )

    def delta_operator(
        self, decay: float | None, dtype=np.float64
    ) -> sp.csr_array | None:
        """The compiled delta ``Δ`` (or ``decay · Δ``) as an ``(n, n)``
        CSR in the ``Ã^T`` layout, or ``None`` when no entries exist.

        The float64 un-decayed master is recompiled after a mutation
        from :meth:`delta_coo`'s cached per-source pieces (only changed
        sources are re-derived); every other ``(decay, dtype)`` variant
        is derived from its value array through
        :func:`repro.kernels.scaled_values` (index arrays shared), exactly as
        :meth:`repro.graph.Graph.decayed_operator` builds the base
        decayed operator.
        """
        if self._delta_master is None:
            rows, cols, vals = self.delta_coo()
            n = self._base.num_nodes
            self._delta_master = sp.csr_array(
                (vals, (rows, cols)), shape=(n, n)
            )
        master = self._delta_master
        if master.nnz == 0:
            return None
        dtype = np.dtype(dtype)
        if decay is None and dtype == np.float64:
            return master
        key = (decay, dtype.name)
        scaled = self._delta_cache.get(key)
        if scaled is None:
            scaled = sp.csr_array(
                (kernels.scaled_values(master.data, decay, dtype),
                 master.indices, master.indptr),
                shape=master.shape,
            )
            self._delta_cache[key] = scaled
        return scaled

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DeltaOverlay(sources={len(self._neighbors)}, "
            f"events={self._events})"
        )
