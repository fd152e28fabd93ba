r"""Cumulative Power Iteration (CPI) — Algorithm 1 of the paper.

CPI interprets RWR as propagation of scores: a mass of ``c`` starts on the
seed node(s); each step propagates the current interim vector through the
column-stochastic operator ``Ã^T`` with decay ``1-c``:

.. math::

    x^{(0)} = c\,q, \qquad
    x^{(i)} = (1-c)\,\tilde{A}^\top x^{(i-1)}, \qquad
    r_{CPI} = \sum_{i=0}^{\infty} x^{(i)}.

With the seed vector ``q = e_s`` this converges to the RWR vector of seed
``s``; with ``q = 1/n`` it converges to PageRank (Theorem 1).  The
``start_iteration`` / ``terminal_iteration`` window sums only the requested
slice of the series, which is exactly what TPA needs to separate the family,
neighbor, and stranger parts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro import kernels
from repro.exceptions import ConvergenceError, ParameterError
from repro.graph.graph import Graph
from repro.kernels import Workspace
from repro.method import PPRMethod

__all__ = [
    "CPIResult",
    "CPIManyResult",
    "CPIMethod",
    "cpi",
    "cpi_many",
    "cpi_parts",
    "cpi_iterates",
    "seed_vector",
    "seed_matrix",
]

#: Hard cap on iterations; at c=0.15, tol=1e-9 convergence needs ~116.
_MAX_ITERATIONS_DEFAULT = 100_000


@dataclass(frozen=True)
class CPIResult:
    """Outcome of a CPI run.

    Attributes
    ----------
    scores:
        The accumulated score vector over the requested iteration window.
    iterations:
        Index of the last interim vector computed (``0`` means only
        ``x(0)`` was formed).
    converged:
        True when the run stopped because ``‖x(i)‖₁ < tol`` rather than by
        hitting ``terminal_iteration``.
    residual_norm:
        ``‖x(i)‖₁`` of the last interim vector — the geometric tail bound
        on everything not yet accumulated.
    """

    scores: np.ndarray
    iterations: int
    converged: bool
    residual_norm: float


def seed_vector(graph: Graph, seeds: int | Sequence[int] | None) -> np.ndarray:
    """Build the seed distribution ``q`` (Algorithm 1, line 1).

    ``seeds`` may be a single node (RWR), a sequence of nodes (personalized
    PageRank with uniform mass over them), or ``None`` for all nodes
    (global PageRank).  The vector is allocated in the kernel layer's
    compute dtype (float64 unless the float32 policy is active).
    """
    n = graph.num_nodes
    q = np.zeros(n, dtype=kernels.compute_dtype())
    if seeds is None:
        q[:] = 1.0 / n
        return q
    if isinstance(seeds, (int, np.integer)):
        seeds_arr = np.asarray([int(seeds)], dtype=np.int64)
    else:
        seeds_arr = np.asarray(list(seeds), dtype=np.int64)
        if seeds_arr.size == 0:
            raise ParameterError("seed set must not be empty")
    if seeds_arr.min() < 0 or seeds_arr.max() >= n:
        raise ParameterError(
            f"seed ids must lie in [0, {n - 1}]; got {seeds_arr.tolist()[:5]}"
        )
    q[seeds_arr] = 1.0 / seeds_arr.size
    return q


def _validate_seed_batch(graph: Graph, seeds: Sequence[int] | np.ndarray) -> np.ndarray:
    seeds_arr = np.asarray(seeds)
    if seeds_arr.ndim != 1 or seeds_arr.size == 0:
        raise ParameterError("seed batch must be a non-empty 1-D array")
    if seeds_arr.dtype == bool or not np.issubdtype(seeds_arr.dtype, np.integer):
        # Mirror PPRMethod.validate_seeds: a silently truncated float seed
        # is almost always a bug.
        raise ParameterError(
            f"seed ids must be integers, got dtype {seeds_arr.dtype}"
        )
    seeds_arr = seeds_arr.astype(np.int64, copy=False)
    n = graph.num_nodes
    if seeds_arr.min() < 0 or seeds_arr.max() >= n:
        raise ParameterError(
            f"seed ids must lie in [0, {n - 1}]; got {seeds_arr.tolist()[:5]}"
        )
    return seeds_arr


def seed_matrix(graph: Graph, seeds: Sequence[int] | np.ndarray) -> np.ndarray:
    """Column-stacked unit seed vectors: column ``j`` is ``e_{seeds[j]}``.

    This is the batched counterpart of :func:`seed_vector` for single-seed
    queries: each column is one independent RWR start distribution (the
    batch analog of Algorithm 1, line 1), so propagating the matrix runs
    every query simultaneously.
    """
    seeds_arr = _validate_seed_batch(graph, seeds)
    q = np.zeros(
        (graph.num_nodes, seeds_arr.size), dtype=kernels.compute_dtype()
    )
    q[seeds_arr, np.arange(seeds_arr.size)] = 1.0
    return q


def _validate(c: float, tol: float, start_iteration: int) -> None:
    if not 0.0 < c < 1.0:
        raise ParameterError(f"restart probability c must be in (0, 1); got {c}")
    if tol <= 0.0:
        raise ParameterError(f"convergence tolerance must be positive; got {tol}")
    if start_iteration < 0:
        raise ParameterError("start_iteration must be non-negative")


def cpi(
    graph: Graph,
    seeds: int | Sequence[int] | None,
    c: float = 0.15,
    tol: float = 1e-9,
    start_iteration: int = 0,
    terminal_iteration: int | None = None,
    max_iterations: int = _MAX_ITERATIONS_DEFAULT,
    workspace: Workspace | None = None,
    x0: np.ndarray | None = None,
) -> CPIResult:
    """Run CPI and accumulate iterations ``start_iteration..terminal_iteration``.

    Parameters
    ----------
    graph:
        Input graph supplying the stochastic operator.
    seeds:
        Seed node, seed set, or ``None`` for PageRank.
    c:
        Restart probability (paper default 0.15).
    tol:
        Convergence tolerance ``ε``: stop once ``‖x(i)‖₁ < ε``.
    start_iteration:
        First iteration index accumulated into the result (``siter``).
    terminal_iteration:
        Last iteration index accumulated (``titer``); ``None`` means run to
        convergence (the paper's ``∞``).
    max_iterations:
        Safety cap; exceeding it raises
        :class:`~repro.exceptions.ConvergenceError`.
    workspace:
        Optional :class:`~repro.kernels.Workspace` the iterate ping-pong
        buffers are drawn from (and retained in between calls); ``None``
        allocates per call.
    x0:
        Optional warm-start guess of the *converged* score vector (e.g.
        the pre-update vector after a graph mutation).  Only valid for
        full-series runs (``start_iteration == 0`` and
        ``terminal_iteration is None``).  See Notes.

    Returns
    -------
    CPIResult

    Notes
    -----
    Exact RWR is ``cpi(graph, s)``; exact PageRank is ``cpi(graph, None)``.
    The family part of TPA is ``cpi(graph, s, start_iteration=0,
    terminal_iteration=S - 1)`` and the stranger part of PageRank is
    ``cpi(graph, None, start_iteration=T)``.

    **Warm starts.**  The converged series satisfies the fixed point
    ``s = c·q + (1-c)·Ã^T s``, so with a guess ``x0`` the run restarts
    from the Richardson residual ``r = c·q + (1-c)·Ã^T x0 - x0`` and
    accumulates ``scores = x0 + r + (1-c)Ã^T r + ...`` — the same fixed
    point, reached in iterations proportional to ``log(‖r‖₁)`` instead
    of ``log(c)``.  Warm iterates are *signed*, so residual norms use
    true absolute sums and a zero ``x0`` reproduces the cold run
    exactly.  A warm and a cold run agree within ``2·tol/c`` in L1 (each
    stops with a geometric tail below ``tol·(1-c)/c``) — the documented
    warm-start agreement tolerance.
    """
    _validate(c, tol, start_iteration)
    if terminal_iteration is not None and terminal_iteration < start_iteration:
        raise ParameterError(
            "terminal_iteration must be >= start_iteration "
            f"({terminal_iteration} < {start_iteration})"
        )
    if x0 is not None and (start_iteration != 0 or terminal_iteration is not None):
        raise ParameterError(
            "x0 warm starts apply only to full-series runs "
            "(start_iteration == 0 and terminal_iteration is None)"
        )

    q = seed_vector(graph, seeds)
    if x0 is None:
        x = c * q
        scores = np.zeros_like(x)
    else:
        x0 = np.ascontiguousarray(x0, dtype=q.dtype)
        if x0.shape != q.shape:
            raise ParameterError(
                f"x0 must have shape {q.shape}, got {x0.shape}"
            )
        x = graph.propagate_decayed(x0, 1.0 - c)
        x += c * q
        x -= x0
        scores = x0.copy()
    if start_iteration == 0:
        scores += x

    iteration = 0
    converged = False
    residual = float(np.abs(x).sum())
    if residual < tol:
        converged = True

    buffers = (
        workspace.pair("cpi.vec", x.shape, x.dtype)
        if workspace is not None
        else None
    )

    while not converged:
        if terminal_iteration is not None and iteration >= terminal_iteration:
            break
        if iteration >= max_iterations:
            raise ConvergenceError(
                f"CPI did not converge within {max_iterations} iterations "
                f"(residual {residual:.3e}, tol {tol:.3e})"
            )
        iteration += 1
        # Alternating workspace buffers: `out` is never the buffer `x`
        # currently occupies (x starts outside the pair and then hops
        # between the two).
        out = buffers[iteration % 2] if buffers is not None else None
        x = graph.propagate_decayed(x, 1.0 - c, out=out)
        if iteration >= start_iteration:
            scores += x
        residual = float(np.abs(x).sum())
        if residual < tol:
            converged = True

    return CPIResult(
        scores=scores,
        iterations=iteration,
        converged=converged,
        residual_norm=residual,
    )


@dataclass(frozen=True)
class CPIManyResult:
    """Outcome of a batched CPI run over ``B`` seeds.

    Attributes
    ----------
    scores:
        ``(B, n)`` matrix; row ``j`` is the accumulated score vector of
        seed ``j`` over the requested iteration window.  May be a
        transposed view of the iteration buffer (rows not contiguous);
        copy if contiguity matters.
    iterations:
        Index of the last interim vector computed for any still-active
        seed (the batch runs until every column converges or the window
        closes).
    converged:
        Length-``B`` boolean array; entry ``j`` is True when column ``j``
        stopped because ``‖x_j(i)‖₁ < tol``.
    residual_norms:
        Length-``B`` array of each column's last interim norm.
    """

    scores: np.ndarray
    iterations: int
    converged: np.ndarray
    residual_norms: np.ndarray


def cpi_many(
    graph: Graph,
    seeds: Sequence[int] | np.ndarray,
    c: float = 0.15,
    tol: float = 1e-9,
    start_iteration: int = 0,
    terminal_iteration: int | None = None,
    max_iterations: int = _MAX_ITERATIONS_DEFAULT,
    workspace: Workspace | None = None,
    x0: np.ndarray | None = None,
) -> CPIManyResult:
    """Batched CPI: run Algorithm 1 for every seed in one propagation loop.

    Semantically equivalent to calling :func:`cpi` once per seed, but each
    iteration applies ``Ã^T`` to the whole ``(n, B)`` interim matrix — one
    blocked SpMM for the batch (via :mod:`repro.kernels`) instead of ``B``
    SpMVs plus Python overhead.  Columns that converge early are frozen
    (zeroed) so their accumulated scores match the single-seed run exactly.

    Parameters are as in :func:`cpi` (including the optional retained
    ``workspace`` for the SpMM ping-pong buffers); ``seeds`` must be a
    non-empty batch of node ids (batched PageRank seeding makes no sense —
    every column would be identical).

    ``x0`` optionally warm-starts the batch from an ``(n, B)`` matrix of
    per-column guesses (see the warm-start notes on :func:`cpi`); an
    all-zero column behaves exactly as a cold start, so mixed warm/cold
    batches are fine.
    """
    _validate(c, tol, start_iteration)
    if terminal_iteration is not None and terminal_iteration < start_iteration:
        raise ParameterError(
            "terminal_iteration must be >= start_iteration "
            f"({terminal_iteration} < {start_iteration})"
        )

    decay = 1.0 - c
    dtype = kernels.compute_dtype()
    seeds_arr = _validate_seed_batch(graph, seeds)
    if x0 is not None:
        if start_iteration != 0 or terminal_iteration is not None:
            raise ParameterError(
                "x0 warm starts apply only to full-series runs "
                "(start_iteration == 0 and terminal_iteration is None)"
            )
        return _cpi_many_warm(
            graph, seeds_arr, c, tol, max_iterations, workspace, x0
        )
    # The scaled seed matrix c·Q, scattered directly (c·1 == c exactly, so
    # this matches seed_matrix() followed by a full *= c pass, minus the
    # pass over the whole (n, B) buffer).
    x = np.zeros((graph.num_nodes, seeds_arr.size), dtype=dtype)
    x[seeds_arr, np.arange(seeds_arr.size)] = c

    # Interim vectors are nonnegative (nonnegative operator applied to a
    # nonnegative start), so the columnwise L1 norm is a plain sum — this
    # matches np.abs(x).sum() in the single-seed path bit for bit while
    # skipping one full pass over the (n, B) matrix per iteration.
    iteration = 0
    residual = x.sum(axis=0)
    converged = residual < tol
    if start_iteration == 0:
        # Alias the start matrix as the accumulator: x is rebound to a
        # fresh SpMM output on the first iteration, so the buffer is never
        # mutated again — except by the freeze below, which forces a copy.
        scores = x.copy() if converged.any() else x
    else:
        scores = np.zeros_like(x)
    # The unit-column shortcut below requires the pristine seed matrix and
    # an in-memory CSR transition (duck-typed substrates like DiskGraph
    # only expose propagate/propagate_decayed).  It also requires float64:
    # the gather computes in the transition's native precision, and its
    # bitwise-match argument against the SpMM kernel only holds when the
    # iterate shares it.
    gather_first = (
        not converged.any()
        and hasattr(graph, "transition")
        and dtype == np.float64
    )
    if converged.any():
        x[:, converged] = 0.0

    # The operator is column stochastic under every dangling policy, so in
    # exact arithmetic every live column's L1 norm is exactly c·(1-c)^i.
    # While that analytic value sits far above tol (three orders: float
    # roundoff cannot bridge it) no column can converge, and the per-
    # iteration column sums are provably dead code — skip them.
    analytic_norm = c
    check_floor = tol * 1e3

    # Ping-pong output buffer for the SpMM; never the scores alias.  With
    # a retained workspace, at most two (n, B) buffers are drawn from it
    # and reused across calls; otherwise they are allocated here.
    spare: np.ndarray | None = None
    spare_slot = 0
    # Sparse (rows, cols, vals) triplet of the current iterate while it is
    # still provably sparse (early iterations of unit seeds); lets the
    # next iterate come from a gather instead of a full SpMM.  While it is
    # live, the dense matrix ``x`` may be deferred entirely (``None``) —
    # its score contribution is a scatter-add and the next iterate comes
    # from the triplet, so the (n, B) materialization never happens.
    sparse_iterate: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    while not converged.all():
        if terminal_iteration is not None and iteration >= terminal_iteration:
            break
        if iteration >= max_iterations:
            raise ConvergenceError(
                f"batched CPI did not converge within {max_iterations} "
                f"iterations (max residual {float(residual.max()):.3e}, "
                f"tol {tol:.3e})"
            )
        iteration += 1
        gathered = False
        if iteration == 1 and gather_first:
            # The seed columns are unit vectors, so the first iterate is a
            # plain gather of scaled Ã rows — no SpMM needed.
            try:
                triplet = _first_iterate_triplet(graph, seeds_arr, c, decay)
                profitable = (
                    (terminal_iteration is None or terminal_iteration >= 2)
                    and c * decay > check_floor
                    and _gather_profitable(graph, triplet, seeds_arr.size)
                )
            except AttributeError:
                # A mutable substrate revoked its CSR surface between the
                # hasattr gate and the gather (a DynamicGraph mutated
                # under this call): fall through to the SpMM path, whose
                # propagate always serves a consistent generation.
                triplet = None
                profitable = False
            if triplet is not None and profitable:
                # The next iterate will come from the triplet and no
                # residual check can fire this iteration, so the dense
                # matrix is never needed: scatter the score contribution
                # (unique positions; identical adds to the dense +=, the
                # skipped entries being exact +0.0 no-ops) and move on.
                rows1, cols1, vals1 = triplet
                if 1 >= start_iteration and rows1.size:
                    scores[rows1, cols1] += vals1
                sparse_iterate = triplet
                x = None
                analytic_norm *= decay
                continue
            if triplet is not None:
                x, sparse_iterate = _densify_first_iterate(
                    graph, triplet, seeds_arr, c, decay
                )
                gathered = True
        if not gathered:
            advanced = None
            if sparse_iterate is not None:
                # The iterate is still provably sparse; a gather/segment-
                # sum beats the SpMM while its support stays small.
                try:
                    advanced = _gathered_iterate(
                        graph, sparse_iterate, seeds_arr.size, decay
                    )
                except AttributeError:
                    advanced = None  # CSR surface revoked mid-stream
            if advanced is not None:
                x, sparse_iterate = advanced
            else:
                if x is None:
                    # Deferred first iterate, but the gather fell through:
                    # materialize it for the SpMM after all.
                    x, _ = _densify_first_iterate(
                        graph, sparse_iterate, seeds_arr, c, decay
                    )
                sparse_iterate = None
                if spare is None or spare is scores:
                    if workspace is not None:
                        spare = workspace.request(
                            f"cpi.iterate.{spare_slot}", x.shape, x.dtype
                        )
                        spare_slot = 1 - spare_slot
                        if spare is x:  # pragma: no cover - defensive
                            spare = workspace.request(
                                f"cpi.iterate.{spare_slot}", x.shape, x.dtype
                            )
                            spare_slot = 1 - spare_slot
                    else:
                        spare = np.empty_like(x)
                y = graph.propagate_decayed(x, decay, out=spare)
                # Recycle the previous interim matrix as the next output
                # buffer (unless it doubles as the accumulator).
                spare = x if x is not scores else None
                x = y
        if iteration >= start_iteration:
            scores += x
        analytic_norm *= decay
        if analytic_norm > check_floor:
            continue
        live = x.sum(axis=0)
        residual = np.where(converged, residual, live)
        newly = (~converged) & (live < tol)
        if newly.any():
            converged = converged | newly
            # Freeze finished columns: their future interim vectors would
            # keep shrinking but the single-seed run never accumulates
            # them, so zero the column to preserve exact equivalence.
            x[:, converged] = 0.0
            # The frozen dense matrix no longer matches the triplet.
            sparse_iterate = None

    if analytic_norm > check_floor and iteration > 0:
        # Residual checks were skipped; report the final interim norms.
        if x is None:  # pragma: no cover - defensive; lazy mode always advances
            x, _ = _densify_first_iterate(
                graph, sparse_iterate, seeds_arr, c, decay
            )
        residual = np.where(converged, residual, x.sum(axis=0))

    return CPIManyResult(
        scores=scores.T,
        iterations=iteration,
        converged=converged,
        residual_norms=residual,
    )


def _row_positions(
    indptr: np.ndarray, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Flat CSR positions of every nonzero in ``rows`` (with repeats),
    emitted row-block by row-block, plus the per-row lengths."""
    lengths = (indptr[rows + 1] - indptr[rows]).astype(np.int64)
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64), lengths
    starts = np.repeat(indptr[rows].astype(np.int64), lengths)
    resets = np.repeat(np.cumsum(lengths) - lengths, lengths)
    positions = np.arange(total, dtype=np.int64) - resets + starts
    return positions, lengths


#: A gathered iterate must touch this many times fewer nnz-column pairs
#: than the full SpMM to be worth its per-entry overhead.
_GATHER_ADVANTAGE = 16

_SparseIterate = tuple[np.ndarray, np.ndarray, np.ndarray]


def _first_iterate_triplet(
    graph: Graph, seeds: np.ndarray, c: float, decay: float
) -> _SparseIterate:
    """Sparse ``(rows, cols, vals)`` of ``x(1)`` for unit seed columns.

    For ``q = e_s`` the first CPI iterate is ``c · decay · Ã^T e_s`` —
    column ``s`` of the decayed operator, i.e. row ``s`` of ``Ã`` scaled.
    Gathering those rows costs ``O(Σ out-degree(s_j))`` instead of the
    ``O(nnz · B)`` of a full SpMM, and reproduces the SpMM bit for bit:
    each entry is the identical two-factor product, and the SpMM's
    remaining terms are exact zeros.  (The uniform-dangling correction is
    dense and NOT included here; :func:`_densify_first_iterate` applies
    it.)
    """
    transition = graph.transition
    indptr, indices, data = (
        transition.indptr, transition.indices, transition.data,
    )
    positions, lengths = _row_positions(indptr, seeds)
    if not positions.size:
        return (
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0),
        )
    rows = indices[positions]
    cols = np.repeat(np.arange(seeds.size), lengths)
    values = data[positions] * decay
    values *= c
    return rows, cols, values


def _densify_first_iterate(
    graph: Graph,
    triplet: _SparseIterate,
    seeds: np.ndarray,
    c: float,
    decay: float,
) -> tuple[np.ndarray, _SparseIterate | None]:
    """Materialize ``x(1)`` as a dense ``(n, B)`` matrix.

    Applies the uniform-dangling correction when needed; in that case the
    triplet no longer represents the matrix and ``None`` is returned for
    it.
    """
    rows, cols, values = triplet
    n = graph.num_nodes
    x = np.zeros((n, seeds.size))
    if rows.size:
        x[rows, cols] = values
    if graph.dangling_nodes.size and graph.dangling_policy == "uniform":
        leaked = np.where(np.isin(seeds, graph.dangling_nodes), c, 0.0)
        if np.any(leaked != 0.0):
            x += (decay / n) * leaked
            return x, None  # dense correction: the triplet is stale
    return x, triplet


def _gather_profitable(
    graph: Graph, iterate: _SparseIterate, num_columns: int
) -> bool:
    """Whether advancing ``iterate`` by a gather beats the full SpMM."""
    if graph.dangling_nodes.size and graph.dangling_policy == "uniform":
        return False  # the dangling correction is dense
    if not graph.transition_transpose.has_sorted_indices:
        # The SpMM kernel accumulates in its stored index order; the
        # gather's bitwise-match argument assumes that order is ascending.
        return False
    rows = iterate[0]
    indptr = graph.transition.indptr
    total = int((indptr[rows + 1] - indptr[rows]).sum())
    return total * _GATHER_ADVANTAGE <= graph.transition.nnz * num_columns


def _gathered_iterate(
    graph: Graph, iterate: _SparseIterate, num_columns: int, decay: float
) -> tuple[np.ndarray, _SparseIterate | None] | None:
    """Advance a still-sparse iterate by one step without an SpMM.

    With ``x`` holding nonzeros ``(k, j, v)``, the next iterate is
    ``Σ v · (decayed Ã^T)[:, k]`` per column — a gather of ``Ã`` rows and
    a segment sum (``np.bincount``).  Emission is ordered by column then
    source ``k``, and each contribution is the identical ``a·v`` product,
    so the per-entry accumulation order — and therefore the result —
    matches the SpMM kernel bit for bit (its extra terms are exact zeros).

    Returns ``None`` when the support has grown too dense for the gather
    to beat the SpMM (the caller falls back), and never re-derives a
    triplet — after two sparse steps the support is effectively dense.
    Skipped for graphs with a uniform dangling correction, which is dense.
    """
    if not _gather_profitable(graph, iterate, num_columns):
        return None
    rows, cols, vals = iterate
    transition = graph.transition
    indptr, indices, data = (
        transition.indptr, transition.indices, transition.data,
    )
    n = graph.num_nodes
    if rows.size == 0:
        return np.zeros((n, num_columns)), None
    # Emit contributions ordered by (column, source k ascending): within
    # any output bin that is exactly the SpMM kernel's accumulation order,
    # so the segment sums below reproduce it bit for bit.
    order = np.lexsort((rows, cols))
    rows, cols, vals = rows[order], cols[order], vals[order]
    positions, lengths = _row_positions(indptr, rows)
    if positions.size == 0:
        return np.zeros((n, num_columns)), None
    contributions = data[positions] * decay
    contributions *= np.repeat(vals, lengths)
    bins = indices[positions] * num_columns + np.repeat(cols, lengths)
    x = np.bincount(
        bins, weights=contributions, minlength=n * num_columns
    ).reshape(n, num_columns)
    return x, None


def _cpi_many_warm(
    graph: Graph,
    seeds_arr: np.ndarray,
    c: float,
    tol: float,
    max_iterations: int,
    workspace: Workspace | None,
    x0: np.ndarray,
) -> CPIManyResult:
    """Warm-started batched CPI (the ``x0`` route of :func:`cpi_many`).

    A separate loop from the cold path on purpose: warm iterates are
    *signed* residual corrections, so none of the cold path's
    nonnegativity shortcuts apply (plain-sum norms, analytic-norm check
    skipping, sparse first iterates) — and keeping the paths apart
    leaves the cold path's bitwise contracts untouched.  An all-zero
    column degenerates to the cold recurrence exactly (``r = c·q``), so
    mixed warm/cold batches are sound.
    """
    decay = 1.0 - c
    dtype = kernels.compute_dtype()
    n, batch = graph.num_nodes, seeds_arr.size
    x0 = np.asarray(x0)
    if x0.shape != (n, batch):
        raise ParameterError(
            f"x0 must have shape ({n}, {batch}) to match the seed batch; "
            f"got {x0.shape}"
        )
    x0 = np.ascontiguousarray(x0, dtype=dtype)
    # Richardson residual r = c·Q + (1-c)·Ã^T x0 - x0 (see cpi's notes).
    x = graph.propagate_decayed(x0, decay)
    x[seeds_arr, np.arange(batch)] += c
    x -= x0
    scores = x0.copy()
    scores += x

    iteration = 0
    residual = np.abs(x).sum(axis=0)
    converged = residual < tol
    if converged.any():
        x[:, converged] = 0.0
    buffers = (
        workspace.pair("cpi.warm", x.shape, x.dtype)
        if workspace is not None
        else None
    )
    while not converged.all():
        if iteration >= max_iterations:
            raise ConvergenceError(
                f"warm-started batched CPI did not converge within "
                f"{max_iterations} iterations (max residual "
                f"{float(residual.max()):.3e}, tol {tol:.3e})"
            )
        iteration += 1
        out = buffers[iteration % 2] if buffers is not None else None
        if out is x:  # pragma: no cover - defensive
            out = None
        x = graph.propagate_decayed(x, decay, out=out)
        scores += x
        live = np.abs(x).sum(axis=0)
        residual = np.where(converged, residual, live)
        newly = (~converged) & (live < tol)
        if newly.any():
            converged = converged | newly
            # Freeze finished columns, mirroring the cold path's exact
            # single-seed equivalence argument.
            x[:, converged] = 0.0

    return CPIManyResult(
        scores=scores.T,
        iterations=iteration,
        converged=converged,
        residual_norms=residual,
    )


class CPIMethod(PPRMethod):
    """Exact RWR via Cumulative Power Iteration, as a :class:`PPRMethod`.

    This wraps Algorithm 1 in the two-phase protocol so the plain
    power-iteration solver participates in the method registry, the
    batched engine, and the experiment harness like every other method.
    It has no preprocessing phase and no approximation error — queries
    run the full series to ``tol`` — making it a convenient exact
    reference that still benefits from the batched online phase
    (:func:`cpi_many`: one SpMM per iteration for the whole seed batch).

    Parameters
    ----------
    c:
        Restart probability (paper default 0.15).
    tol:
        Convergence tolerance ``ε``: stop once ``‖x(i)‖₁ < ε``.
    """

    name = "CPI"
    #: CPI accepts ``x0`` fixed-point guesses (see ``cpi``'s warm-start
    #: notes) — the Engine feeds it retained pre-epoch vectors after a
    #: graph mutation instead of recomputing from zero.
    supports_warm_start = True

    def __init__(self, c: float = 0.15, tol: float = 1e-9):
        super().__init__()
        _validate(c, tol, 0)
        self.c = float(c)
        self.tol = float(tol)
        # Iterate buffers are drawn from the base class's retained
        # workspace (shared with the ranking masks) and counted in
        # preprocessed_bytes — they are resident serving state.

    def _preprocess(self, graph: Graph) -> None:
        pass  # online-only: CPI needs nothing beyond the graph itself.

    def preprocessed_bytes(self) -> int:
        """CPI keeps no index — only the iterate buffers retained by the
        online phase (zero until the first query)."""
        return self._workspace.nbytes()

    def error_bound(self) -> float:
        """CPI runs the series to ``tol``; the unaccumulated tail is below it."""
        return self.tol

    def _query(self, seed: int) -> np.ndarray:
        return cpi(
            self.graph, seeds=seed, c=self.c, tol=self.tol,
            workspace=self._workspace,
        ).scores

    def _query_many(
        self, seeds: np.ndarray, x0: np.ndarray | None = None
    ) -> np.ndarray:
        if x0 is not None:
            # The protocol hands per-seed row guesses (B, n); the batched
            # loop iterates column-major (n, B).
            x0 = np.ascontiguousarray(
                np.asarray(x0).T, dtype=kernels.compute_dtype()
            )
        return cpi_many(
            self.graph, seeds, c=self.c, tol=self.tol,
            workspace=self._workspace, x0=x0,
        ).scores


def cpi_parts(
    graph: Graph,
    seeds: int | Sequence[int] | None,
    s_iteration: int,
    t_iteration: int,
    c: float = 0.15,
    tol: float = 1e-9,
    max_iterations: int = _MAX_ITERATIONS_DEFAULT,
    workspace: Workspace | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Compute the family / neighbor / stranger parts in a single pass.

    Returns the triple ``(r_family, r_neighbor, r_stranger)`` where

    * family   accumulates ``x(0) .. x(S-1)``,
    * neighbor accumulates ``x(S) .. x(T-1)``,
    * stranger accumulates ``x(T) ..`` until convergence.

    One propagation sweep serves all three, so experiments that need exact
    per-part errors (Table III, Figure 9) avoid three separate CPI runs.
    """
    if s_iteration < 1:
        raise ParameterError("S must be at least 1 so the family part is non-empty")
    if t_iteration < s_iteration:
        raise ParameterError(
            "T must be at least S (T == S means an empty neighbor part)"
        )
    _validate(c, tol, 0)

    q = seed_vector(graph, seeds)
    x = c * q
    family = x.copy()
    neighbor = np.zeros_like(x)
    stranger = np.zeros_like(x)

    buffers = (
        workspace.pair("cpi.parts", x.shape, x.dtype)
        if workspace is not None
        else None
    )

    iteration = 0
    residual = float(np.abs(x).sum())
    while residual >= tol:
        if iteration >= max_iterations:
            raise ConvergenceError(
                f"cpi_parts did not converge within {max_iterations} iterations"
            )
        iteration += 1
        out = buffers[iteration % 2] if buffers is not None else None
        x = graph.propagate_decayed(x, 1.0 - c, out=out)
        if iteration < s_iteration:
            family += x
        elif iteration < t_iteration:
            neighbor += x
        else:
            stranger += x
        residual = float(np.abs(x).sum())

    return family, neighbor, stranger


def cpi_iterates(
    graph: Graph,
    seeds: int | Sequence[int] | None,
    c: float = 0.15,
    max_iterations: int = 64,
) -> Iterator[np.ndarray]:
    """Yield the interim vectors ``x(0), x(1), ...`` (at most
    ``max_iterations + 1`` of them).

    Used by the matrix-power analyses behind Figures 3, 4 and 6.
    """
    _validate(c, 1e-300, 0)
    x = c * seed_vector(graph, seeds)
    yield x.copy()
    buffers = (x.copy(), np.empty_like(x))
    for index in range(max_iterations):
        # The yielded copies decouple consumers from the two alternating
        # iterate buffers reused here.
        x = graph.propagate_decayed(x, 1.0 - c, out=buffers[index % 2])
        yield x.copy()
