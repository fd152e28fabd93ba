"""Top-k selection kernels — the ranking side of the serving hot path.

A top-k workload throws away almost everything the score pass computes:
of an ``(B, n)`` score matrix only ``B·k`` ids survive.  The selection
itself used to be a Python-level loop of per-row ``argpartition`` calls;
this module makes it a kernel like the SpMM:

* :func:`select_top_k` — the canonical single-row selection (score
  descending, ties broken by ascending node id, banned nodes excluded),
  ``O(n + k' log k')`` via ``argpartition``.  Accepts a ``scratch``
  buffer so batched callers stop allocating a masked copy per call.
* :func:`select_top_k_many` — the batched form: one call ranks every row
  of a ``(B, n)`` matrix into a ``(B, k)`` id matrix padded with ``-1``.
  On the Numba backend the rows run ``prange``-parallel with a bounded
  ``k``-element heap per row (no full-row copy, no ``-inf`` masking); the
  NumPy fallback reproduces the looped :func:`select_top_k` exactly,
  over contiguous rows and row-striped across idle cores.

Both forms implement the *same* ordering contract, and the suite holds
the compiled path to exact agreement with the looped reference
(including ban and tie cases).  Scores are assumed finite — RWR scores
always are.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ParameterError
from repro.kernels import _numpy_backend
from repro.kernels.backend import _backend_module
from repro.kernels.tiling import rows_from_panel

__all__ = ["select_top_k", "select_top_k_many"]


def select_top_k(
    scores: np.ndarray,
    k: int,
    banned: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """Indices of the ``k`` largest entries of ``scores``, best first.

    Equivalent to ``np.argsort(-scores, kind="stable")`` filtered by
    ``banned`` and truncated to ``k`` — ties broken by ascending node id —
    but runs in ``O(n + k' log k')`` via :func:`np.argpartition` instead of
    sorting all ``n`` nodes (``k'`` is ``k`` plus boundary ties).

    Parameters
    ----------
    scores:
        Length-``n`` score vector.
    k:
        Result size; fewer indices are returned when ``banned`` leaves
        fewer than ``k`` nodes.
    banned:
        Optional boolean mask of nodes excluded from the ranking.
    scratch:
        Optional length-``n`` float64 buffer receiving the masked score
        copy when ``banned`` is active — callers ranking many rows (the
        batched serving path) pass a retained workspace buffer instead of
        allocating a fresh copy per call.  Contents are clobbered.
    """
    scores = np.asarray(scores)
    n = scores.size
    if banned is not None and banned.any():
        if (
            scratch is not None
            and scratch.shape == (n,)
            and scratch.dtype == np.float64
            and scratch is not scores
        ):
            masked = scratch
            # Any needed widening (e.g. float32 iterates) is fused into
            # this copy — the serving path stays allocation-free.
            np.copyto(masked, scores, casting="unsafe")
        elif scores.dtype == np.float64:
            masked = scores.copy()
        else:
            masked = scores.astype(np.float64)
        masked[banned] = -np.inf
        available = n - int(np.count_nonzero(banned))
    else:
        masked = (
            scores if scores.dtype.kind == "f"
            else scores.astype(np.float64)
        )
        available = n
    kk = min(int(k), available)
    if kk <= 0:
        return np.empty(0, dtype=np.int64)
    if kk < n:
        # Value of the kk-th largest entry; every banned entry is -inf and
        # therefore below it, so the candidate set never contains one.
        kth = np.partition(masked, n - kk)[n - kk]
        candidates = np.flatnonzero(masked >= kth)
    else:
        candidates = np.flatnonzero(masked > -np.inf)
    # Primary key: score descending; secondary: node id ascending — the
    # exact order of a stable argsort over the negated scores.
    order = np.lexsort((candidates, -masked[candidates]))
    return candidates[order[:kk]].astype(np.int64, copy=False)


def select_top_k_many(
    scores: np.ndarray,
    k: int,
    banned: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Row-wise top-``k`` of a ``(B, n)`` score matrix, best first per row.

    Row ``b`` of the returned ``(B, k)`` ``int64`` matrix equals
    ``select_top_k(scores[b], k, banned[b])`` padded with ``-1`` — the
    contract :meth:`repro.method.PPRMethod.top_k_many` has always had,
    now computed by one batch-parallel kernel call instead of a Python
    loop over rows.

    Parameters
    ----------
    scores:
        ``(B, n)`` float score matrix (C-contiguous rows preferred).
    k:
        Result width; rows with fewer than ``k`` unbanned nodes are
        padded with ``-1``.
    banned:
        Optional ``(B, n)`` boolean exclusion mask, one row per query.
    out:
        Optional ``(B, k)`` C-contiguous ``int64`` result buffer; it is
        overwritten and returned.
    """
    scores = np.asarray(scores)
    if scores.ndim != 2:
        raise ParameterError(
            f"scores must be a (B, n) matrix, got shape {scores.shape}"
        )
    k = int(k)
    if k < 1:
        raise ParameterError("k must be at least 1")
    rows, n = scores.shape
    if banned is not None:
        banned = np.asarray(banned)
        if banned.shape != scores.shape or banned.dtype != np.bool_:
            raise ParameterError(
                f"banned must be a boolean mask of shape {scores.shape}; "
                f"got shape {banned.shape} dtype {banned.dtype}"
            )
    if out is None:
        out = np.empty((rows, k), dtype=np.int64)
    elif (
        out.shape != (rows, k)
        or out.dtype != np.int64
        or not out.flags.c_contiguous
    ):
        raise ParameterError(
            f"out buffer must be C-contiguous int64 of shape {(rows, k)}; "
            f"got shape {out.shape} dtype {out.dtype}"
        )
    if rows == 0:
        return out

    impl = getattr(_backend_module(), "select_top_k_many", None)
    if impl is not None:
        if scores.dtype not in (np.float32, np.float64):
            scores = scores.astype(np.float64)
        # Any layout is accepted: transposed iterate buffers (the shape
        # cpi_many returns) stream fine row-parallel — no full-matrix
        # copy just to make rows contiguous.
        mask = (
            banned if banned is not None else np.empty((0, 0), dtype=np.bool_)
        )
        impl(scores, mask, banned is not None, k, out)
        return out

    # NumPy fallback: the looped reference over contiguous rows (a
    # transposed iterate panel would be ranked one strided row at a
    # time), row-striped across idle cores; each stripe reuses one
    # masked-copy scratch instead of allocating per row.
    if scores.T.flags.c_contiguous and not scores.flags.c_contiguous:
        scores = rows_from_panel(scores.T)

    def rank(stripe):
        scratch = np.empty(n, dtype=np.float64)
        for b in range(*stripe):
            picks = select_top_k(
                scores[b], k, None if banned is None else banned[b],
                scratch=scratch,
            )
            out[b, : picks.size] = picks
            out[b, picks.size :] = -1

    def split(stripes):
        cuts = [rows * s // stripes for s in range(stripes + 1)]
        return [(b0, b1) for b0, b1 in zip(cuts, cuts[1:]) if b0 < b1]

    _numpy_backend.striped(rows * n, split, rank)
    return out
