"""Immutable directed graph backed by ``scipy.sparse`` CSR storage.

The algorithms in this package all operate on the *row-normalized* adjacency
matrix ``Ã`` of a directed graph ``G`` and, more specifically, on its
transpose ``Ã^T`` which is column stochastic when every node has at least one
out-edge (Section II of the paper).  :class:`Graph` owns both the raw
adjacency structure and the normalized transition operator, and centralizes
the treatment of *dangling* nodes (zero out-degree) so that the stochasticity
assumptions behind Lemmas 1–3 hold for every policy.
"""

from __future__ import annotations

from typing import Iterable, Literal, Sequence

import numpy as np
import scipy.sparse as sp

from repro import kernels
from repro.exceptions import DanglingNodeError, GraphFormatError

DanglingPolicy = Literal["error", "selfloop", "uniform"]

__all__ = ["Graph", "DanglingPolicy"]


def _as_index_array(values: Iterable[int]) -> np.ndarray:
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise GraphFormatError("edge endpoint arrays must be one-dimensional")
    return integer_endpoints(arr)


def integer_endpoints(arr: np.ndarray) -> np.ndarray:
    """``arr`` as int64, refusing non-integer endpoint dtypes.

    Float and bool endpoints would otherwise be truncated silently
    (``1.7 -> 1``).  An empty array is accepted whatever its dtype.
    """
    if arr.size and arr.dtype.kind not in "iu":
        raise GraphFormatError(
            f"edge endpoints must be integers; got dtype {arr.dtype}"
        )
    return arr.astype(np.int64, copy=False)


class Graph:
    """A directed graph with CSR adjacency and a normalized transition operator.

    Parameters
    ----------
    n:
        Number of nodes.  Nodes are the integers ``0..n-1``.
    src, dst:
        Parallel arrays of edge endpoints.  Duplicate edges are collapsed and
        self-loops are kept only if ``keep_self_loops`` is true.
    dangling:
        How to make ``Ã^T`` column stochastic when some nodes have no
        out-edges:

        ``"error"``
            raise :class:`~repro.exceptions.DanglingNodeError` (default —
            the paper's generators never produce dangling nodes);
        ``"selfloop"``
            add a self-loop to each dangling node;
        ``"uniform"``
            treat a dangling node as linking to every node uniformly.  The
            rank-one correction is applied inside :meth:`propagate`, so the
            sparse matrix itself stays sparse.
    keep_self_loops:
        Whether self-loops present in the input are preserved.

    Notes
    -----
    The instance is logically immutable: all mutating operations return new
    :class:`Graph` objects.
    """

    def __init__(
        self,
        n: int,
        src: Iterable[int],
        dst: Iterable[int],
        dangling: DanglingPolicy = "error",
        keep_self_loops: bool = False,
    ):
        if n <= 0:
            raise GraphFormatError("graph must have at least one node")
        src_arr = _as_index_array(src)
        dst_arr = _as_index_array(dst)
        if src_arr.shape != dst_arr.shape:
            raise GraphFormatError("src and dst arrays must have equal length")
        if src_arr.size:
            lo = min(src_arr.min(), dst_arr.min())
            hi = max(src_arr.max(), dst_arr.max())
            if lo < 0 or hi >= n:
                raise GraphFormatError(
                    f"edge endpoints must lie in [0, {n - 1}]; got [{lo}, {hi}]"
                )
        if not keep_self_loops and src_arr.size:
            mask = src_arr != dst_arr
            src_arr, dst_arr = src_arr[mask], dst_arr[mask]

        adjacency = sp.csr_array(
            (np.ones(src_arr.size, dtype=np.float64), (src_arr, dst_arr)),
            shape=(n, n),
        )
        # Collapse duplicate edges to weight 1 (unweighted simple digraph).
        adjacency.sum_duplicates()
        adjacency.data[:] = 1.0

        self._n = n
        self._dangling_policy: DanglingPolicy = dangling
        self._finalize(adjacency)

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_edges(
        cls,
        n: int,
        edges: Sequence[tuple[int, int]],
        dangling: DanglingPolicy = "error",
    ) -> "Graph":
        """Build a graph from an iterable of ``(src, dst)`` pairs."""
        if len(edges):
            src, dst = zip(*edges)
        else:
            src, dst = (), ()
        return cls(n, src, dst, dangling=dangling)

    @classmethod
    def from_scipy(
        cls, adjacency: sp.sparray | sp.spmatrix, dangling: DanglingPolicy = "error"
    ) -> "Graph":
        """Build a graph from a square scipy sparse adjacency matrix.

        Nonzero entries become edges; weights are discarded (the paper's
        graphs are unweighted).
        """
        coo = sp.coo_array(adjacency)
        if coo.shape[0] != coo.shape[1]:
            raise GraphFormatError("adjacency matrix must be square")
        return cls(coo.shape[0], coo.row, coo.col, dangling=dangling)

    def _finalize(self, adjacency: sp.csr_array) -> None:
        out_degree = np.asarray(adjacency.sum(axis=1)).ravel()
        dangling_nodes = np.flatnonzero(out_degree == 0)

        if dangling_nodes.size and self._dangling_policy == "error":
            raise DanglingNodeError(
                f"{dangling_nodes.size} nodes have zero out-degree "
                f"(first few: {dangling_nodes[:5].tolist()}); choose the "
                "'selfloop' or 'uniform' dangling policy to handle them"
            )
        if dangling_nodes.size and self._dangling_policy == "selfloop":
            loops = sp.csr_array(
                (
                    np.ones(dangling_nodes.size),
                    (dangling_nodes, dangling_nodes),
                ),
                shape=adjacency.shape,
            )
            adjacency = (adjacency + loops).tocsr()
            out_degree = np.asarray(adjacency.sum(axis=1)).ravel()
            dangling_nodes = np.flatnonzero(out_degree == 0)

        self._adjacency = adjacency
        self._out_degree = out_degree
        self._in_degree = np.asarray(adjacency.sum(axis=0)).ravel()
        self._dangling = dangling_nodes

        # Row-normalize: each non-dangling row sums to 1.
        inv = np.zeros(self._n)
        nonzero = out_degree > 0
        inv[nonzero] = 1.0 / out_degree[nonzero]
        scale = sp.dia_array((inv[np.newaxis, :], [0]), shape=(self._n, self._n))
        transition = (scale @ adjacency).tocsr()
        self._transition = transition
        self._transition_t = transition.T.tocsr()
        # Pre-scaled / pre-cast copies of Ã^T, keyed by (decay, dtype name);
        # decay None is the plain operator in a non-default dtype.  Index
        # arrays are shared with the base operator — each entry costs one
        # data-array copy.
        self._operator_cache: dict[tuple[float | None, str], sp.csr_array] = {}

    # -- basic properties ------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        """Number of nodes ``n``."""
        return self._n

    @property
    def num_edges(self) -> int:
        """Number of directed edges ``m`` (after dedup / self-loop policy)."""
        return int(self._adjacency.nnz)

    @property
    def out_degree(self) -> np.ndarray:
        """Out-degree of every node as a length-``n`` float array."""
        return self._out_degree

    @property
    def in_degree(self) -> np.ndarray:
        """In-degree of every node as a length-``n`` float array."""
        return self._in_degree

    @property
    def dangling_nodes(self) -> np.ndarray:
        """Indices of nodes whose out-degree is zero under the chosen policy.

        Non-empty only for the ``"uniform"`` policy, where the correction is
        applied on the fly by :meth:`propagate`.
        """
        return self._dangling

    @property
    def dangling_policy(self) -> DanglingPolicy:
        """The dangling-node policy this graph was built with."""
        return self._dangling_policy

    @property
    def adjacency(self) -> sp.csr_array:
        """The binary adjacency matrix ``A`` in CSR form."""
        return self._adjacency

    @property
    def transition(self) -> sp.csr_array:
        """The row-normalized adjacency ``Ã`` in CSR form."""
        return self._transition

    @property
    def transition_transpose(self) -> sp.csr_array:
        """``Ã^T`` in CSR form — the operator applied at every CPI step.

        Column stochastic except for columns of dangling nodes under the
        ``"uniform"`` policy (whose correction lives in :meth:`propagate`).
        """
        return self._transition_t

    def nbytes(self) -> int:
        """Bytes consumed by the adjacency and transition structures."""
        total = 0
        for mat in (self._adjacency, self._transition, self._transition_t):
            total += mat.data.nbytes + mat.indices.nbytes + mat.indptr.nbytes
        return total

    # -- the stochastic propagation operator -----------------------------------

    def propagate(self, x: np.ndarray) -> np.ndarray:
        """Apply the column-stochastic operator: return ``Ã^T x`` (plus the
        uniform dangling correction when the policy is ``"uniform"``).

        ``x`` may be a single length-``n`` vector or an ``(n, B)`` matrix
        whose columns are propagated independently — the batched query
        engine pushes a whole seed batch through the iteration with one
        sparse matmul per step.

        This is the single SpMV/SpMM at the heart of every CPI iteration
        (Algorithm 1, line 4 — without the ``1-c`` decay, which the callers
        apply so the operator itself stays exactly stochastic).  The
        product runs on :mod:`repro.kernels` and is bitwise identical to
        ``Ã^T @ x``.  A float32
        operand is multiplied against a cached float32 cast of the
        operator, keeping the whole product in single precision.
        """
        return self.propagate_decayed(x, None)

    def _operator_for(self, decay: float | None, dtype) -> sp.csr_array:
        """``Ã^T``, optionally pre-scaled by ``decay`` and cast to ``dtype``.

        The base float64 un-decayed operator is returned as-is; every
        other combination is built once and cached (index arrays shared,
        one data-array copy each).
        """
        dtype = np.dtype(dtype)
        if dtype not in (np.float32, np.float64):
            dtype = np.dtype(np.float64)
        if decay is None and dtype == np.float64:
            return self._transition_t
        key = (decay, dtype.name)
        operator = self._operator_cache.get(key)
        if operator is None:
            base = self._transition_t
            operator = sp.csr_array(
                (kernels.scaled_values(base.data, decay, dtype),
                 base.indices, base.indptr),
                shape=base.shape,
            )
            self._operator_cache[key] = operator
        return operator

    def decayed_operator(self, decay: float, dtype=np.float64) -> sp.csr_array:
        """The cached pre-scaled operator ``decay · Ã^T`` in CSR form.

        The value array is scaled once (scaled-then-cast for float32) and
        cached per ``(decay, dtype)``; the index structure is shared with
        :attr:`transition_transpose`, so an extra entry costs only one
        data-array copy.
        """
        return self._operator_for(decay, dtype)

    def operator_cache_nbytes(self) -> int:
        """Bytes held by the cached pre-scaled/pre-cast operator copies
        (data arrays only — index arrays are shared with the base)."""
        return int(
            sum(op.data.nbytes for op in self._operator_cache.values())
        )

    def propagate_decayed(
        self, x: np.ndarray, decay: float | None, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Apply the decayed operator: return ``decay · Ã^T x``
        (``decay=None``: the plain ``Ã^T x`` of :meth:`propagate`).

        Functionally ``decay * propagate(x)``, but the decay is folded into
        a cached copy of the operator's value array
        (:meth:`decayed_operator`), fusing the post-multiply pass into the
        SpMV/SpMM itself.  This is the step CPI performs every iteration,
        so both the single and the batched online phases call it — keeping
        their floating-point operations, and therefore their results,
        identical.

        ``out`` optionally supplies a preallocated result buffer matching
        ``x`` in shape and dtype (a vector for SpMV, an ``(n, B)`` matrix
        for SpMM); reusing one across iterations avoids the allocation
        and page-fault churn of a fresh buffer per step.  The returned
        array is the result either way (it is ``out`` only when the
        buffer was usable).
        """
        operator = self._operator_for(decay, x.dtype)
        if out is not None and (
            out.shape != x.shape
            or out.dtype != operator.data.dtype
            or not out.flags.c_contiguous
            or out is x
        ):
            out = None  # unusable buffer: fall back to allocating
        if x.ndim == 1:
            y = kernels.spmv(operator, x, out=out)
        else:
            y = kernels.spmm(operator, x, out=out)
        if self._dangling.size and self._dangling_policy == "uniform":
            # Per-column leaked mass; a scalar for 1-D input, a length-B
            # row for matrix input (broadcast over every node).
            leaked = x[self._dangling].sum(axis=0)
            if np.any(leaked != 0.0):
                # Two spellings, both part of the bitwise contract.
                if decay is None:
                    y += leaked / self._n
                else:
                    y += (decay / self._n) * leaked
        return y

    # -- structural helpers -----------------------------------------------------

    def out_neighbors(self, node: int) -> np.ndarray:
        """Targets of the out-edges of ``node``."""
        row = self._adjacency
        return row.indices[row.indptr[node] : row.indptr[node + 1]]

    def in_neighbors(self, node: int) -> np.ndarray:
        """Sources of the in-edges of ``node``."""
        col = self._transition_t
        return col.indices[col.indptr[node] : col.indptr[node + 1]]

    def edges(self) -> tuple[np.ndarray, np.ndarray]:
        """Return the edge list as ``(src, dst)`` arrays."""
        coo = self._adjacency.tocoo()
        return coo.row.astype(np.int64), coo.col.astype(np.int64)

    def undirected_view(self) -> sp.csr_array:
        """Symmetrized binary adjacency (used by SlashBurn and partitioning)."""
        sym = self._adjacency + self._adjacency.T
        sym = sym.tocsr()
        sym.data[:] = 1.0
        return sym

    def permute(self, perm: np.ndarray) -> "Graph":
        """Return a graph with nodes relabeled so old node ``perm[i]`` becomes
        new node ``i`` (i.e. ``perm`` lists old ids in their new order)."""
        perm = np.asarray(perm, dtype=np.int64)
        if perm.shape != (self._n,) or not np.array_equal(
            np.sort(perm), np.arange(self._n)
        ):
            raise GraphFormatError("perm must be a permutation of 0..n-1")
        inverse = np.empty_like(perm)
        inverse[perm] = np.arange(self._n)
        src, dst = self.edges()
        return Graph(
            self._n,
            inverse[src],
            inverse[dst],
            dangling=self._dangling_policy,
            keep_self_loops=True,
        )

    def subgraph(self, nodes: np.ndarray) -> tuple["Graph", np.ndarray]:
        """Return the induced subgraph on ``nodes`` plus the node mapping.

        The result's node ``i`` corresponds to original node ``nodes[i]``.
        Induced subgraphs may contain dangling nodes even when the parent
        does not, so the subgraph always uses the ``"selfloop"`` policy.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        sub = self._adjacency[nodes][:, nodes]
        coo = sp.coo_array(sub)
        graph = Graph(
            nodes.size, coo.row, coo.col, dangling="selfloop", keep_self_loops=True
        )
        return graph, nodes

    def reverse(self) -> "Graph":
        """Return the graph with every edge reversed."""
        src, dst = self.edges()
        return Graph(self._n, dst, src, dangling=self._dangling_policy,
                     keep_self_loops=True)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Graph(n={self._n}, m={self.num_edges}, "
            f"dangling={self._dangling.size}, policy={self._dangling_policy!r})"
        )
