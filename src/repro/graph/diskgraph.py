"""Disk-resident graph storage — the paper's stated future work.

The conclusion of the paper lists "extending TPA into a disk-based RWR
method to handle huge, disk-resident graphs" as future work.  This module
provides that extension: :class:`DiskGraph` stores the transition operator
``Ã^T`` as row stripes on disk and streams them through memory one stripe
at a time during :meth:`propagate`.

Because CPI (and therefore TPA and PageRank) touches the graph *only*
through ``num_nodes`` and ``propagate``, a :class:`DiskGraph` can be
passed anywhere a :class:`~repro.graph.graph.Graph` is used for CPI-based
computation — ``TPA.preprocess(disk_graph)`` and ``TPA.query`` work
unchanged.  Resident memory is ``O(n)`` for the iteration vectors plus one
stripe of edges, instead of ``O(n + m)``.

Each stripe is applied through :func:`repro.kernels.spmv` /
:func:`repro.kernels.spmm` (the PR 2 rule: no iterate loop lives outside
the kernel layer), so the disk-backed substrate computes every output row
with exactly the arithmetic the in-memory :class:`Graph` uses — including
the pre-scaled decayed operator — and the two substrates agree bitwise.
Iteration vectors come from a retained :class:`~repro.kernels.Workspace`
(two alternating buffers), so a CPI sweep over a disk graph allocates
nothing per step beyond the streamed stripe itself.

Example
-------
>>> from repro.graph import community_graph
>>> from repro.graph.diskgraph import DiskGraph
>>> from repro.core import TPA
>>> graph = community_graph(500, avg_degree=6, seed=1)
>>> disk = DiskGraph.build(graph, "/tmp/disk_demo", rows_per_stripe=100)
>>> method = TPA(s_iteration=5, t_iteration=10)
>>> method.preprocess(disk)
>>> scores = method.query(0)
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from repro import kernels
from repro.exceptions import GraphFormatError, ParameterError
from repro.graph.graph import Graph, validate_dangling_policy

__all__ = ["DiskGraph"]

_META_FILE = "meta.json"


class DiskGraph:
    """A column-stochastic propagation operator streamed from disk.

    Build one with :meth:`build` (from an in-memory graph) or open an
    existing directory with the constructor.

    Parameters
    ----------
    directory:
        Directory containing ``meta.json`` and the stripe files written by
        :meth:`build`.
    """

    def __init__(self, directory: str | os.PathLike):
        self._dir = Path(directory)
        meta_path = self._dir / _META_FILE
        if not meta_path.exists():
            raise GraphFormatError(f"{meta_path} not found; run DiskGraph.build first")
        with open(meta_path, "r", encoding="utf-8") as handle:
            meta = json.load(handle)
        if meta.get("format") != "repro-diskgraph-v1":
            raise GraphFormatError(f"unrecognized disk graph format in {meta_path}")
        self._n = int(meta["num_nodes"])
        self._m = int(meta["num_edges"])
        self._rows_per_stripe = int(meta["rows_per_stripe"])
        self._num_stripes = int(meta["num_stripes"])
        self._dangling_policy = validate_dangling_policy(
            meta["dangling_policy"]
        )
        dangling_path = self._dir / "dangling.npy"
        self._dangling = (
            np.load(dangling_path) if dangling_path.exists() else np.empty(0, np.int64)
        )
        # Retained iteration vectors: propagate() alternates between the
        # two buffers of this pair so repeated sweeps (CPI, PageRank)
        # reuse memory instead of allocating one (n,)/(n, B) result per
        # step.  Streamed stripes stay transient by design.
        self._workspace = kernels.Workspace()

    # -- construction -------------------------------------------------------------

    @classmethod
    def build(
        cls,
        graph: Graph,
        directory: str | os.PathLike,
        rows_per_stripe: int = 65_536,
    ) -> "DiskGraph":
        """Serialize ``graph``'s transition operator into stripe files.

        Parameters
        ----------
        graph:
            Source in-memory graph.
        directory:
            Destination directory (created if missing).
        rows_per_stripe:
            Rows of ``Ã^T`` per stripe file; smaller stripes mean a lower
            resident-memory peak during :meth:`propagate`.
        """
        if rows_per_stripe < 1:
            raise ParameterError("rows_per_stripe must be at least 1")
        path = Path(directory)
        path.mkdir(parents=True, exist_ok=True)

        operator = graph.transition_transpose
        n = graph.num_nodes
        num_stripes = (n + rows_per_stripe - 1) // rows_per_stripe

        for stripe in range(num_stripes):
            begin = stripe * rows_per_stripe
            end = min(begin + rows_per_stripe, n)
            block = operator[begin:end]
            np.save(path / f"stripe_{stripe}_indptr.npy", block.indptr)
            np.save(path / f"stripe_{stripe}_indices.npy", block.indices)
            np.save(path / f"stripe_{stripe}_data.npy", block.data)

        if graph.dangling_nodes.size:
            np.save(path / "dangling.npy", graph.dangling_nodes)

        meta = {
            "format": "repro-diskgraph-v1",
            "num_nodes": n,
            "num_edges": graph.num_edges,
            "rows_per_stripe": rows_per_stripe,
            "num_stripes": num_stripes,
            "dangling_policy": graph.dangling_policy,
        }
        with open(path / _META_FILE, "w", encoding="utf-8") as handle:
            json.dump(meta, handle)
        return cls(path)

    # -- Graph protocol used by CPI --------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return self._n

    @property
    def num_edges(self) -> int:
        return self._m

    @property
    def num_stripes(self) -> int:
        return self._num_stripes

    @property
    def dangling_nodes(self) -> np.ndarray:
        return self._dangling

    @property
    def dangling_policy(self) -> str:
        return self._dangling_policy

    def stripe_rows(self, stripe: int) -> tuple[int, int]:
        """Row range ``[begin, end)`` of ``Ã^T`` covered by ``stripe``."""
        if not 0 <= stripe < self._num_stripes:
            raise ParameterError(
                f"stripe index must lie in [0, {self._num_stripes - 1}]"
            )
        begin = stripe * self._rows_per_stripe
        return begin, min(begin + self._rows_per_stripe, self._n)

    def stripe_operator(self, stripe: int) -> sp.csr_array:
        """Load one stripe of ``Ã^T`` as a ``(rows, n)`` CSR matrix.

        The arrays come straight from the stripe files (row data in
        stored order, float64), so applying the stripe with
        :func:`repro.kernels.spmv`/``spmm`` reproduces the in-memory
        operator's rows bit for bit.  :meth:`propagate` streams these;
        :class:`repro.sharding.ShardStore` re-slices them into
        shard-aligned row stripes for worker processes.
        """
        begin, end = self.stripe_rows(stripe)
        indptr = np.load(self._dir / f"stripe_{stripe}_indptr.npy")
        indices = np.load(self._dir / f"stripe_{stripe}_indices.npy")
        data = np.load(self._dir / f"stripe_{stripe}_data.npy")
        return sp.csr_array(
            (data, indices, indptr), shape=(end - begin, self._n)
        )

    def _output_buffer(
        self, x: np.ndarray, out: np.ndarray | None, dtype: np.dtype
    ) -> np.ndarray:
        """The result buffer for one propagate pass.

        Honors a caller-supplied ``out`` when it is usable (right shape
        and dtype, C-contiguous, not aliasing the operand — the same
        contract :meth:`Graph.propagate_decayed` applies), otherwise
        draws one of the two retained workspace buffers, picking
        whichever does not alias ``x`` so back-to-back sweeps can feed
        each result into the next call.
        """
        if out is not None and (
            out.shape == x.shape
            and out.dtype == dtype
            and out.flags.c_contiguous
            and not np.shares_memory(out, x)
        ):
            return out
        first, second = self._workspace.pair("propagate.out", x.shape, dtype)
        return second if np.shares_memory(first, x) else first

    def _stripe_apply(
        self,
        x: np.ndarray,
        decay: float | None,
        out: np.ndarray | None,
    ) -> np.ndarray:
        """``(decay ·) Ã^T x`` with one stripe of edges resident at a time.

        Each stripe is one :func:`repro.kernels.spmv`/``spmm`` call into
        the matching row slice of the output buffer.  ``decay`` is folded
        into the stripe's value array before the product — scaled (then
        cast, under the float32 policy) exactly as
        :meth:`Graph._operator_for` pre-scales the in-memory operator —
        so disk-backed and in-memory propagation agree bitwise.
        """
        if x.shape[0] != self._n or x.ndim not in (1, 2):
            raise ParameterError(
                f"operand shape {x.shape} does not match n={self._n}"
            )
        dtype = np.dtype(
            np.float32 if x.dtype == np.float32 else np.float64
        )
        if x.dtype != dtype:
            x = x.astype(dtype)
        x = np.ascontiguousarray(x)
        y = self._output_buffer(x, out, dtype)
        apply_stripe = kernels.spmv if x.ndim == 1 else kernels.spmm
        for stripe in range(self._num_stripes):
            begin, end = self.stripe_rows(stripe)
            block = self.stripe_operator(stripe)
            scaled = sp.csr_array(
                (kernels.scaled_values(block.data, decay, dtype),
                 block.indices, block.indptr),
                shape=block.shape,
            )
            apply_stripe(scaled, x, out=y[begin:end])
        if self._dangling.size and self._dangling_policy == "uniform":
            leaked = x[self._dangling].sum(axis=0)
            if np.any(leaked != 0.0):
                if decay is None:
                    y += leaked / self._n
                else:
                    y += (decay / self._n) * leaked
        return y

    def propagate(self, x: np.ndarray) -> np.ndarray:
        """``Ã^T x`` with one stripe of edges resident at a time.

        ``x`` may be a length-``n`` vector or an ``(n, B)`` matrix whose
        columns propagate independently (the batched online phase).  The
        result lives in a retained workspace buffer — alternating between
        two, so passing a previous result back in is safe — and is
        overwritten by a later call; copy it to keep it.
        """
        return self._stripe_apply(x, None, None)

    def propagate_decayed(
        self, x: np.ndarray, decay: float, out: np.ndarray | None = None
    ) -> np.ndarray:
        """``decay · Ã^T x`` — the fused step in-memory graphs provide.

        The decay is folded into each streamed stripe's value array
        before the product, matching :meth:`Graph.propagate_decayed`'s
        pre-scaled operator bit for bit.  ``out`` optionally supplies the
        result buffer (same contract as the in-memory graph); without
        one, a retained workspace buffer is used.
        """
        return self._stripe_apply(x, float(decay), out)

    def resident_bytes(self) -> int:
        """Peak extra memory a propagate call needs beyond the vectors:
        one stripe of (indptr, indices, data) plus the retained
        iteration buffers."""
        peak = 0
        for stripe in range(self._num_stripes):
            total = 0
            for part in ("indptr", "indices", "data"):
                file = self._dir / f"stripe_{stripe}_{part}.npy"
                total += file.stat().st_size
            peak = max(peak, total)
        return peak + self._workspace.nbytes()

    def disk_bytes(self) -> int:
        """Total on-disk footprint of all stripe files."""
        return sum(
            file.stat().st_size for file in self._dir.glob("stripe_*.npy")
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DiskGraph(n={self._n}, m={self._m}, stripes={self._num_stripes}, "
            f"dir={str(self._dir)!r})"
        )
