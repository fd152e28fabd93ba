"""The mutable graph facade: a delta overlay over an immutable base.

:class:`DynamicGraph` satisfies the graph protocol the iterate loops
consume (``num_nodes``, ``propagate``, ``propagate_decayed``,
``dangling_nodes``, ...), so CPI/TPA and every power-iteration baseline
run unmodified on a mutating graph.  Internally it is two layers:

* an immutable base :class:`~repro.graph.Graph` (rebuilt only by
  :meth:`compact`), and
* a :class:`~repro.dynamic.DeltaOverlay` of pending edge mutations,
  compiled on demand into a delta operator ``Δ`` with
  ``Ã'^T == Ã^T + Δ``.

A propagation while mutations are pending evaluates the base-CSR product
through the usual :mod:`repro.kernels` dispatch (``spmv`` / ``spmm``)
**plus** one sparse delta fold, then applies the uniform-dangling
correction with the *current* (overlay-aware) dangling set.  The
two-term evaluation is exact up to the float rounding of the overlay's
``1/d_new - 1/d_old`` corrections — the documented
:data:`~repro.dynamic.OVERLAY_TOLERANCE` tier.  After :meth:`compact`
the overlay is empty and every call delegates straight to the fresh
base, whose spliced CSR is canonically identical to a from-scratch
build — results are then **bitwise identical** to a fresh
:class:`~repro.graph.Graph` on the same edge set.

Epochs: :meth:`epoch_token` names the exact graph generation —
``"{epoch}"`` when clean, ``"{epoch}+{events}~overlay-1e-12"`` while
deltas are pending — and :func:`repro.kernels.cache_token` folds it into
every cache key, so a mutated graph can never hit a stale
``ScoreCache``/LRU entry.

Structural CSR attributes (``transition``, ``adjacency``, ...) are only
exposed while the graph is clean; while mutations are pending they raise
:class:`AttributeError`, which flips the ``hasattr`` gates guarding the
sparse-iterate shortcuts (gathered first iterates, CSR banned-mask
expansion) over to their substrate-agnostic fallbacks.
"""

from __future__ import annotations

import threading
from typing import Iterable, Sequence

import numpy as np
import scipy.sparse as sp

from repro import kernels
from repro.dynamic.overlay import DeltaOverlay
from repro.exceptions import DanglingNodeError, GraphFormatError, ParameterError
from repro.graph.graph import DanglingPolicy, Graph, integer_endpoints
from repro.obs import metrics as obs_metrics

__all__ = ["DynamicGraph"]


def _mutation_counter():
    return obs_metrics.get_registry().counter(
        "repro_graph_mutations_total",
        "Edge-set changes applied to dynamic graphs (epoch-token bumps).",
        labelnames=("op",),
    )

#: Compaction epochs of dirty-row history retained for incremental shard
#: republish; republishes falling further behind rebuild every stripe.
_HISTORY_LIMIT = 32


def _edge_pairs(edges) -> np.ndarray:
    """Normalize an edge argument to an ``(k, 2)`` int64 array.

    Accepts an iterable of ``(src, dst)`` pairs or an ``(k, 2)`` array
    of integers; float or bool endpoints raise :class:`GraphFormatError`.
    """
    if not isinstance(edges, np.ndarray):
        edges = list(edges)
    arr = integer_endpoints(np.asarray(edges))
    if arr.size == 0:
        return arr.reshape(0, 2)
    if arr.ndim == 1 and arr.size == 2:
        return arr.reshape(1, 2)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise GraphFormatError(
            "edges must be an iterable of (src, dst) pairs or a (k, 2) array"
        )
    return arr


def _graph_from_adjacency(adjacency: sp.csr_array, policy: str) -> Graph:
    """Build a :class:`Graph` around an already-canonical adjacency CSR.

    The spliced adjacency :meth:`DynamicGraph.compact` produces has
    sorted, duplicate-free rows with all-ones data — exactly the
    canonical form ``Graph.__init__`` reaches after ``sum_duplicates`` —
    so running it through the same ``_finalize`` yields transition
    operators bitwise identical to a from-scratch build on the same edge
    set.
    """
    graph = object.__new__(Graph)
    graph._n = int(adjacency.shape[0])
    graph._dangling_policy = policy
    graph._finalize(adjacency)
    return graph


def _folded_product(
    base: Graph,
    delta: sp.csr_array | None,
    dangling: np.ndarray,
    policy: str,
    x: np.ndarray,
    decay: float | None,
    out: np.ndarray | None,
) -> np.ndarray:
    """One overlay-mode propagation: base product + delta fold + current
    dangling correction.

    Mirrors :meth:`Graph.propagate` / :meth:`Graph.propagate_decayed`
    term by term, except the base product is the *bare* operator (the
    base's own dangling correction would use the pre-mutation dangling
    set) and the rank-one correction uses the overlay-aware one.
    """
    dtype = np.dtype(np.float32 if x.dtype == np.float32 else np.float64)
    operator = base.decayed_operator(decay, dtype)
    if out is not None and (
        out.shape != x.shape
        or out.dtype != operator.data.dtype
        or not out.flags.c_contiguous
        or out is x
    ):
        out = None
    if x.ndim == 1:
        y = kernels.spmv(operator, x, out=out)
    else:
        y = kernels.spmm(operator, x, out=out)
    if delta is not None:
        if x.ndim == 1:
            y += kernels.spmv(delta, x)
        else:
            y += kernels.spmm(delta, x)
    if dangling.size and policy == "uniform":
        leaked = x[dangling].sum(axis=0)
        if np.any(leaked != 0.0):
            if decay is None:
                y += leaked / base.num_nodes
            else:
                y += (decay / base.num_nodes) * leaked
    return y


class DynamicGraph:
    """A mutable graph: an immutable base plus a delta overlay.

    Parameters
    ----------
    base:
        The initial :class:`~repro.graph.Graph`.  Its dangling policy is
        inherited; ``"selfloop"`` is rejected (a structural rewrite per
        mutation would defeat the overlay), use ``"error"`` or
        ``"uniform"``.

    Notes
    -----
    Thread-safe: mutations, products and compaction serialize on one
    internal lock; products snapshot their operands under the lock and
    compute outside it, so queries concurrent with a mutation stream see
    some consistent recent generation, never a torn one.
    """

    def __init__(self, base: Graph):
        if base.dangling_policy == "selfloop":
            raise ParameterError(
                "DynamicGraph does not support the 'selfloop' dangling "
                "policy (every mutation could rewrite loop structure); "
                "use 'error' or 'uniform'"
            )
        self._lock = threading.RLock()
        self._base = base
        self._overlay = DeltaOverlay(base)
        self._epoch = 0
        # (epoch, operator rows rebuilt by that compaction) — consumed by
        # dirty_rows_since for incremental shard republish.
        self._history: list[tuple[int, np.ndarray]] = []
        self._out_degree_cache: tuple[int, np.ndarray] | None = None

    @classmethod
    def from_edges(
        cls,
        n: int,
        edges: Sequence[tuple[int, int]],
        dangling: DanglingPolicy = "error",
    ) -> "DynamicGraph":
        return cls(Graph.from_edges(n, edges, dangling=dangling))

    # -- epochs ----------------------------------------------------------------

    @property
    def base_graph(self) -> Graph:
        """The current immutable base (pre-overlay) graph."""
        return self._base

    @property
    def base_epoch(self) -> int:
        """Number of compactions applied so far."""
        return self._epoch

    def base_snapshot(self) -> tuple[int, Graph]:
        """Atomic ``(base_epoch, base_graph)`` pair (for republishers)."""
        with self._lock:
            return self._epoch, self._base

    @property
    def dirty(self) -> bool:
        """Whether mutations are pending (overlay mode)."""
        with self._lock:
            return self._overlay.touched

    @property
    def mutation_events(self) -> int:
        """Monotone count of applied mutations across all epochs."""
        with self._lock:
            return self._overlay.events

    def epoch_token(self) -> str:
        """The graph-generation component of :func:`kernels.cache_token`.

        ``"{epoch}"`` when clean; ``"{epoch}+{events}~overlay-1e-12"``
        while mutations are pending.  The ``~overlay-1e-12`` suffix makes
        the documented overlay accuracy tier
        (:data:`~repro.dynamic.OVERLAY_TOLERANCE`) explicit in every
        cache key minted against an uncompacted graph, the same way the
        dtype component already exposes the float32 tier.  Tokens are
        unique across the graph's lifetime: the mutation counter never
        resets, so no clean/dirty state ever repeats a token.
        """
        with self._lock:
            if not self._overlay.touched:
                return f"{self._epoch}"
            return f"{self._epoch}+{self._overlay.events}~overlay-1e-12"

    # -- mutation --------------------------------------------------------------

    def add_edges(self, edges) -> int:
        """Apply edge inserts; return how many changed the edge set.

        Self-loops and already-present edges are no-ops (mirroring the
        simple-digraph normalization of :class:`Graph`).  Under the
        ``"error"`` dangling policy inserts can never create a dangling
        node, so they are always legal.
        """
        pairs = _edge_pairs(edges)
        applied = 0
        with self._lock:
            for source, target in pairs:
                if self._overlay.add(int(source), int(target)):
                    applied += 1
            if applied:
                self._out_degree_cache = None
        if applied:
            _mutation_counter().labels(op="add").inc(applied)
        return applied

    def remove_edges(self, edges) -> int:
        """Apply edge deletes; return how many changed the edge set.

        Removing an absent edge is a no-op.  Under the ``"error"``
        dangling policy a delete that would empty a node's out-edge set
        raises :class:`DanglingNodeError` *before* being applied
        (previously applied edges of the batch remain applied).
        """
        pairs = _edge_pairs(edges)
        applied = 0
        with self._lock:
            for source, target in pairs:
                source, target = int(source), int(target)
                if self._dangling_policy_unlocked() == "error":
                    current = self._overlay.neighbors_of(source)
                    if current.size == 1 and current[0] == target:
                        raise DanglingNodeError(
                            f"removing edge {source}->{target} would leave "
                            f"node {source} dangling under the 'error' "
                            "policy"
                        )
                if self._overlay.remove(source, target):
                    applied += 1
            if applied:
                self._out_degree_cache = None
        if applied:
            _mutation_counter().labels(op="remove").inc(applied)
        return applied

    def _dangling_policy_unlocked(self) -> str:
        return self._base.dangling_policy

    # -- compaction ------------------------------------------------------------

    def compact(self) -> np.ndarray:
        """Fold the overlay into a fresh immutable base.

        Splices the adjacency CSR — untouched rows are block-copied from
        the old base, touched rows get their new sorted neighbor lists —
        and refinalizes it through the exact normalization pipeline a
        from-scratch build runs, so post-compact results are bitwise
        identical to a fresh :class:`Graph` on the same edge set.  Bumps
        the base epoch, clears the overlay, and returns the sorted
        operator rows (``Ã^T`` destinations) whose stripe content
        changed — what a sharded deployment must republish.  No-op (no
        epoch bump) when nothing is pending.
        """
        with self._lock:
            if not self._overlay.touched:
                return np.empty(0, dtype=np.int64)
            dirty = self._overlay.dirty_operator_rows().copy()
            adjacency = self._splice_adjacency()
            new_base = _graph_from_adjacency(
                adjacency, self._base.dangling_policy
            )
            events = self._overlay.events
            self._base = new_base
            self._overlay = DeltaOverlay(new_base, events=events)
            self._epoch += 1
            self._history.append((self._epoch, dirty))
            del self._history[:-_HISTORY_LIMIT]
            self._out_degree_cache = None
            obs_metrics.get_registry().counter(
                "repro_compactions_total",
                "Dynamic-graph compactions (base epoch bumps).",
            ).inc()
            obs_metrics.get_registry().gauge(
                "repro_graph_epoch", "Current dynamic-graph base epoch."
            ).set(self._epoch)
            return dirty

    def dirty_rows_since(self, epoch: int) -> np.ndarray | None:
        """Operator rows changed by compactions after ``epoch``.

        Returns the sorted union of dirty rows of every compaction with
        epoch greater than ``epoch``, an empty array when up to date, or
        ``None`` when the history no longer covers that span (the caller
        must then treat every row as dirty).
        """
        with self._lock:
            epoch = int(epoch)
            if epoch >= self._epoch:
                return np.empty(0, dtype=np.int64)
            entries = [rows for (e, rows) in self._history if e > epoch]
            if len(entries) != self._epoch - epoch:
                return None
            return np.unique(np.concatenate(entries))

    def _splice_adjacency(self) -> sp.csr_array:
        """The overlay graph's adjacency, rebuilt row-spliced: untouched
        row stripes are block-copied from the base CSR; only touched rows
        are rebuilt."""
        base_adj = self._base.adjacency
        n = self._base.num_nodes
        indptr_old = base_adj.indptr
        indices_old = base_adj.indices
        touched = self._overlay.touched_sources
        counts = np.diff(indptr_old).astype(np.int64)
        new_rows: dict[int, np.ndarray] = {}
        for source in touched:
            neighbors = self._overlay.neighbors_of(source)
            new_rows[source] = neighbors
            counts[source] = neighbors.size
        indptr_new = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr_new[1:])
        total = int(indptr_new[-1])
        indices_new = np.empty(total, dtype=indices_old.dtype)
        previous = 0
        for source in [*touched, n]:
            if source > previous:
                indices_new[indptr_new[previous]:indptr_new[source]] = (
                    indices_old[indptr_old[previous]:indptr_old[source]]
                )
            if source < n:
                row = new_rows[source]
                indices_new[indptr_new[source]:indptr_new[source + 1]] = row
                previous = source + 1
        return sp.csr_array(
            (np.ones(total, dtype=np.float64), indices_new, indptr_new),
            shape=(n, n),
        )

    # -- propagation -----------------------------------------------------------

    def _product_state(self, decay: float | None, dtype):
        """Consistent (base, delta, dangling, policy) snapshot, or the
        clean fast path marker."""
        with self._lock:
            base = self._base
            if not self._overlay.touched:
                return True, base, None, None, None
            delta = self._overlay.delta_operator(decay, dtype)
            dangling = self._overlay.dangling_nodes()
            return False, base, delta, dangling, base.dangling_policy

    def propagate(self, x: np.ndarray) -> np.ndarray:
        """``Ã'^T x`` of the *current* (overlay-included) graph."""
        x = np.asarray(x)
        dtype = np.dtype(np.float32 if x.dtype == np.float32 else np.float64)
        clean, base, delta, dangling, policy = self._product_state(None, dtype)
        if clean:
            return base.propagate(x)
        return _folded_product(base, delta, dangling, policy, x, None, None)

    def propagate_decayed(
        self, x: np.ndarray, decay: float, out: np.ndarray | None = None
    ) -> np.ndarray:
        """``decay · Ã'^T x`` of the current (overlay-included) graph."""
        x = np.asarray(x)
        decay = float(decay)
        dtype = np.dtype(np.float32 if x.dtype == np.float32 else np.float64)
        clean, base, delta, dangling, policy = self._product_state(decay, dtype)
        if clean:
            return base.propagate_decayed(x, decay, out=out)
        return _folded_product(base, delta, dangling, policy, x, decay, out)

    def apply_delta(
        self, x: np.ndarray, decay: float | None, y: np.ndarray
    ) -> np.ndarray:
        """Add the compiled overlay fold ``Δ(decay) @ x`` into ``y``.

        No dangling correction — this is the router-side hook a
        :class:`~repro.sharding.ShardedOperator` adds on top of its
        gathered base-stripe sweep so the distributed product tracks the
        overlay without republishing per mutation.
        """
        x = np.asarray(x)
        dtype = np.dtype(np.float32 if x.dtype == np.float32 else np.float64)
        with self._lock:
            if not self._overlay.touched:
                return y
            delta = self._overlay.delta_operator(decay, dtype)
        if delta is not None:
            if x.ndim == 1:
                y += kernels.spmv(delta, x)
            else:
                y += kernels.spmm(delta, x)
        return y

    def overlay_snapshot(self):
        """``(events, rows, cols, vals)`` of the pending delta in base
        coordinates, or ``None`` when clean — what a permuted view needs
        to compile its translated delta."""
        with self._lock:
            if not self._overlay.touched:
                return None
            rows, cols, vals = self._overlay.delta_coo()
            return self._overlay.events, rows, cols, vals

    # -- graph protocol (overlay-aware) ----------------------------------------

    @property
    def num_nodes(self) -> int:
        return self._base.num_nodes

    @property
    def num_edges(self) -> int:
        with self._lock:
            return self._base.num_edges + self._overlay.edge_count_delta()

    @property
    def out_degree(self) -> np.ndarray:
        with self._lock:
            if not self._overlay.touched:
                return self._base.out_degree
            cached = self._out_degree_cache
            if cached is not None and cached[0] == self._overlay.events:
                return cached[1]
            degree = self._base.out_degree.copy()
            for source in self._overlay.touched_sources:
                degree[source] = self._overlay.out_degree_of(source)
            self._out_degree_cache = (self._overlay.events, degree)
            return degree

    @property
    def dangling_nodes(self) -> np.ndarray:
        with self._lock:
            if not self._overlay.touched:
                return self._base.dangling_nodes
            return self._overlay.dangling_nodes()

    @property
    def dangling_policy(self) -> str:
        return self._base.dangling_policy

    def out_neighbors(self, node: int) -> np.ndarray:
        with self._lock:
            return self._overlay.neighbors_of(int(node))

    def edges(self) -> tuple[np.ndarray, np.ndarray]:
        with self._lock:
            if not self._overlay.touched:
                return self._base.edges()
            adjacency = self._splice_adjacency()
        coo = adjacency.tocoo()
        return coo.row.astype(np.int64), coo.col.astype(np.int64)

    # -- structural CSR surface (clean only) -----------------------------------

    def _clean_base(self, name: str) -> Graph:
        with self._lock:
            if self._overlay.touched:
                raise AttributeError(
                    f"{name} is stale while overlay mutations are pending; "
                    "call compact() first"
                )
            return self._base

    @property
    def adjacency(self) -> sp.csr_array:
        return self._clean_base("adjacency").adjacency

    @property
    def transition(self) -> sp.csr_array:
        return self._clean_base("transition").transition

    @property
    def transition_transpose(self) -> sp.csr_array:
        return self._clean_base("transition_transpose").transition_transpose

    @property
    def in_degree(self) -> np.ndarray:
        return self._clean_base("in_degree").in_degree

    def in_neighbors(self, node: int) -> np.ndarray:
        return self._clean_base("in_neighbors").in_neighbors(node)

    def undirected_view(self) -> sp.csr_array:
        return self._clean_base("undirected_view").undirected_view()

    def permute(self, perm: np.ndarray) -> "_PermutedDynamicGraph":
        """A live relabeled view (old node ``perm[i]`` becomes new node
        ``i``) that tracks this graph's mutations and compactions —
        what ``Engine(reorder=...)`` serves against."""
        return _PermutedDynamicGraph(self, perm)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        with self._lock:
            return (
                f"DynamicGraph(n={self._base.num_nodes}, "
                f"m={self.num_edges}, epoch={self._epoch}, "
                f"pending={len(self._overlay.touched_sources)})"
            )


class _PermutedDynamicGraph:
    """A relabeled live view of a :class:`DynamicGraph`.

    :meth:`Graph.permute` on the immutable graph returns a frozen copy;
    on a dynamic graph the serving side needs the *view* to track the
    root's mutations, so this object lazily re-permutes the base on
    every compaction and re-translates the pending delta on every
    mutation generation.  It exposes the same protocol surface as
    :class:`DynamicGraph` (products, dangling data, epoch token, the
    clean-only CSR attributes) in view coordinates.
    """

    def __init__(self, parent: DynamicGraph, perm: np.ndarray):
        perm = np.asarray(perm, dtype=np.int64)
        n = parent.num_nodes
        if perm.shape != (n,) or not np.array_equal(
            np.sort(perm), np.arange(n)
        ):
            raise GraphFormatError("perm must be a permutation of 0..n-1")
        self._parent = parent
        self._perm = perm.copy()
        self._inverse = np.empty_like(perm)
        self._inverse[perm] = np.arange(n)
        self._lock = threading.RLock()
        self._synced_epoch = -1
        self._base: Graph | None = None
        # Translated delta operators keyed (events, decay, dtype name).
        self._delta_cache: dict[tuple[int, float | None, str], sp.csr_array | None] = {}
        self._sync()

    def _sync(self) -> Graph:
        """Re-permute the base iff the parent compacted since last time."""
        with self._lock:
            epoch, base = self._parent.base_snapshot()
            if epoch != self._synced_epoch:
                self._base = base.permute(self._perm)
                self._synced_epoch = epoch
                self._delta_cache.clear()
            return self._base

    def _translated_delta(
        self, decay: float | None, dtype: np.dtype
    ) -> sp.csr_array | None:
        snapshot = self._parent.overlay_snapshot()
        if snapshot is None:
            return None
        events, rows, cols, vals = snapshot
        key = (events, decay, np.dtype(dtype).name)
        with self._lock:
            if key in self._delta_cache:
                return self._delta_cache[key]
            if len(self._delta_cache) > 8:
                self._delta_cache.clear()
            n = self._perm.size
            if rows.size:
                delta = sp.csr_array(
                    (kernels.scaled_values(vals, decay, dtype),
                     (self._inverse[rows], self._inverse[cols])),
                    shape=(n, n),
                )
            else:
                delta = None
            self._delta_cache[key] = delta
            return delta

    # -- products --------------------------------------------------------------

    def _folded(self, x, decay, out):
        x = np.asarray(x)
        dtype = np.dtype(np.float32 if x.dtype == np.float32 else np.float64)
        # Snapshot base + delta + dangling of one generation; retry when
        # a compaction slides in between the reads (a handful of cheap
        # pointer reads — the loop converges immediately in practice).
        for _ in range(8):
            base = self._sync()
            dirty = self._parent.dirty
            delta = self._translated_delta(decay, dtype) if dirty else None
            dangling = self.dangling_nodes if dirty else None
            if self._parent.base_epoch == self._synced_epoch:
                break
        if not dirty:
            if decay is None:
                return base.propagate(x)
            return base.propagate_decayed(x, decay, out=out)
        return _folded_product(
            base, delta, dangling, self._parent.dangling_policy,
            x, decay, out,
        )

    def propagate(self, x: np.ndarray) -> np.ndarray:
        return self._folded(x, None, None)

    def propagate_decayed(
        self, x: np.ndarray, decay: float, out: np.ndarray | None = None
    ) -> np.ndarray:
        return self._folded(x, float(decay), out)

    def apply_delta(
        self, x: np.ndarray, decay: float | None, y: np.ndarray
    ) -> np.ndarray:
        """View-coordinate overlay fold (see :meth:`DynamicGraph.apply_delta`)."""
        x = np.asarray(x)
        dtype = np.dtype(np.float32 if x.dtype == np.float32 else np.float64)
        delta = self._translated_delta(decay, dtype)
        if delta is not None:
            if x.ndim == 1:
                y += kernels.spmv(delta, x)
            else:
                y += kernels.spmm(delta, x)
        return y

    # -- epochs / protocol -----------------------------------------------------

    def epoch_token(self) -> str:
        return self._parent.epoch_token()

    @property
    def base_epoch(self) -> int:
        return self._parent.base_epoch

    def base_snapshot(self) -> tuple[int, Graph]:
        with self._lock:
            epoch, _ = self._parent.base_snapshot()
            # Sync so the returned graph matches the returned epoch even
            # when the parent compacted since our last product.
            base = self._sync()
            return self._synced_epoch, base

    def dirty_rows_since(self, epoch: int) -> np.ndarray | None:
        rows = self._parent.dirty_rows_since(epoch)
        if rows is None:
            return None
        return np.sort(self._inverse[rows])

    @property
    def dirty(self) -> bool:
        return self._parent.dirty

    @property
    def num_nodes(self) -> int:
        return self._parent.num_nodes

    @property
    def num_edges(self) -> int:
        return self._parent.num_edges

    @property
    def dangling_policy(self) -> str:
        return self._parent.dangling_policy

    @property
    def dangling_nodes(self) -> np.ndarray:
        parent_dangling = self._parent.dangling_nodes
        if not parent_dangling.size:
            return parent_dangling
        return np.sort(self._inverse[parent_dangling])

    @property
    def out_degree(self) -> np.ndarray:
        return self._parent.out_degree[self._perm]

    def out_neighbors(self, node: int) -> np.ndarray:
        original = self._parent.out_neighbors(int(self._perm[node]))
        return np.sort(self._inverse[original])

    # -- structural CSR surface (clean only) -----------------------------------

    def _clean_base(self, name: str) -> Graph:
        if self._parent.dirty:
            raise AttributeError(
                f"{name} is stale while overlay mutations are pending; "
                "call compact() first"
            )
        return self._sync()

    @property
    def adjacency(self) -> sp.csr_array:
        return self._clean_base("adjacency").adjacency

    @property
    def transition(self) -> sp.csr_array:
        return self._clean_base("transition").transition

    @property
    def transition_transpose(self) -> sp.csr_array:
        return self._clean_base("transition_transpose").transition_transpose

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"_PermutedDynamicGraph(n={self.num_nodes}, "
            f"epoch={self._synced_epoch})"
        )
