"""Compiled sparse-kernel layer: CSR-native SpMV/SpMM under every hot loop.

Everything the paper's method does — CPI iterates (Algorithm 1), TPA's
family/neighbor/stranger phases (Algorithms 2–3), and every
power-iteration baseline — bottoms out in repeated sparse matrix–vector
(SpMV) or matrix–matrix (SpMM) products with the transition operator
``Ã^T``.  This package is the single place those products happen:

* :func:`spmv` / :func:`spmm` — CSR-native products with caller-supplied
  output buffers (no per-iteration allocation);
* :func:`select_top_k` / :func:`select_top_k_many` — the ranking
  primitives (:mod:`repro.kernels.topk`): batch-parallel bounded-heap
  top-k selection on the Numba backend, the looped ``argpartition``
  reference on NumPy — identical ban and tie semantics;
* :func:`rows_from_panel` — the cache-blocked ``(n, B)`` → ``(B, n)``
  transposition that hands iterate panels to the ranking side as
  contiguous rows;
* two interchangeable backends (see :mod:`repro.kernels.backend`):
  a Numba-JIT, ``prange``-parallel implementation auto-selected at import
  when Numba is installed, and a pure NumPy/SciPy fallback that is
  bitwise identical to the pre-kernel ``operator @ x`` code path;
* :class:`Workspace` — named, retained iterate buffers for ping-pong
  loops (counted in ``preprocessed_bytes`` so memory figures stay honest);
* :func:`locality_reordering` — the SlashBurn row reordering that makes
  the blocked SpMM cache friendly (``Engine(..., reorder="slashburn")``);
* JIT'd queue loops for forward/backward push, used automatically by
  :mod:`repro.baselines` when the Numba backend is active.

Backend selection
-----------------
``REPRO_KERNEL=numba|numpy`` (environment) or :func:`set_backend` (API).
Auto-selection prefers Numba when importable.  The NumPy fallback never
changes results: it calls the very SciPy kernels ``csr_array @ x``
dispatches to.  The Numba backend accumulates each output row in the same
stored-index order, and the suite holds it to ``<= 1e-12`` agreement.

Threads: borrowing idle cores (NumPy backend)
---------------------------------------------
Thread count is one policy for both backends: :func:`set_num_threads` /
``REPRO_KERNEL_THREADS`` / ``TuneProfile.kernel_threads``, default the
cores this process may run on (``sched_getaffinity``); :func:`num_threads`
reports it.  Numba applies it to its ``prange`` pool.  The NumPy backend
applies it as a *ceiling*: SciPy's sparsetools and NumPy's
copy/partition loops release the interpreter lock, so :func:`spmv`,
:func:`spmm` and the fallback :func:`select_top_k_many` run as
contiguous row stripes — balanced by nonzeros for the products
(degrees are heavy-tailed), by rows for the selection — the caller
computing the first stripe and a lazily started, per-process pool of
daemon threads the rest.  Every row is computed by the same C loop in
the same order, so results are bitwise identical at any thread count
and :func:`cache_token` does not name it.  A call splits only when both
hold:

* **the work floor** — its work (``nnz × width`` multiply-adds, or
  ``rows × n`` ranked elements) is at least ``WORK_FLOOR`` = 2 M, about
  2 ms on one core; a 20k-node SpMV or a 3-wide batch stays serial;
* **idle cores** — a call above the floor holds its cores in a
  process-wide ledger for its duration, and every caller, large or
  small, keeps one core for ``CORE_LINGER`` = 0.1 s after it was last
  seen in a kernel (a thread between two kernel calls of one batch is
  ranking rows or building results, not idle); a call takes
  ``max(1, threads − cores held by other callers)`` stripes.  Two busy
  ``Server`` workers on a two-core box therefore each run serially,
  while one engine thread on the same box gets both cores.  Counting
  only calls in flight let 25–30 % of a busy two-worker ``Server``'s
  large calls split — whenever the sibling happened to be between
  kernels — and its throughput and latency on a mutating graph then
  spread twice as wide from run to run as the serial build's.

Calls below the floor take the serial path of earlier releases plus one
dictionary store: on a loaded ``Server`` whose batches each re-preprocess
(~116 SpMVs of 0.36 ms on a 20k-node mutating graph, 90 % utilisation)
30 µs of bookkeeping per call was +4.5 % on preprocessing and +10 % on
the median latency; the store measures at parity.

Measured on the 2-core reference box (float64, 200k nodes / 2.9 M
edges): the 128-wide SpMM takes 623 → 290 ms on two stripes and the
SpMV 5.1 → 3.2 ms, bitwise equal; ``Engine.serve`` of one 128-seed
top-500 block goes from 2.1 to 1.05 s.  Splitting unconditionally
instead cost the two-worker ``Server`` 17 % of its throughput in the
prototype of this design; under the idle-core rule it is inside
run-to-run noise.  The stripe threads are unpinned; the one placement
aid is that a stripe woken on its caller's CPU leaves it at once
(Linux does not search small cache domains for an idle sibling on
wake-up, and without this a 13 ms call at 20k×64 stays at 13 ms instead
of 8 ms until the periodic balancer separates the threads).
``set_num_threads(1)`` starts no thread and keeps no ledger — the
serial execution of earlier releases.  Shard workers cap their count at
``max(1, cores // num_shards)``.

float32 compute policy (opt-in)
-------------------------------
``REPRO_KERNEL_DTYPE=float32`` or ``set_compute_dtype("float32")`` makes
the iterate loops allocate, propagate, and accumulate in single
precision, halving memory traffic — usually a ~1.5–2x SpMM speedup on
bandwidth-bound graphs.  Error impact: CPI sums ``O(log(1/tol)/c)``
nonnegative iterates, so roundoff grows only additively; measured against
the float64 path the L1 gap stays below ``~1e-5`` on the test graphs
(unit-tested bound ``5e-5``), i.e. orders of magnitude below TPA's
approximation error ``2(1-c)^S`` (≈ 0.89 at the paper's S=5 defaults) and
below typical recall@k sensitivity.  Use float64 (default) when scores
feed error-bound experiments (Table III) or convergence studies with
``tol < 1e-6`` — a float32 iterate cannot certify residuals near machine
epsilon.  Caches must key on :func:`cache_token`, which names the active
backend, shard annotation, graph generation, and compute dtype; the
Engine's LRU does.

Measurement
-----------
The benchmark ladder (``python3 benchmarks/ladder/run.py --trace 1``)
times these kernels in place — ``kernels.spmv_ms``, ``kernels.spmm_ms``
and ``kernels.spmm_gbps`` against the host's measured triad bandwidth —
beside the layers built on them.  ``BENCH_kernels.json`` at the repo
root is the frozen record of the kernel trajectory before the ladder.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ParameterError
from repro.kernels.backend import (
    available_backends,
    cache_token,
    compute_dtype,
    get_backend,
    kernel_threads,
    num_threads,
    numba_available,
    set_backend,
    set_compute_dtype,
    set_num_threads,
    set_shard_annotation,
    shard_annotation,
    _backend_module,
)
from repro.kernels.reorder import LocalityReordering, locality_reordering
from repro.kernels.tiling import rows_from_panel
from repro.kernels.topk import select_top_k, select_top_k_many
from repro.kernels.workspace import Workspace

__all__ = [
    "spmv",
    "spmm",
    "scaled_values",
    "select_top_k",
    "select_top_k_many",
    "available_backends",
    "get_backend",
    "set_backend",
    "numba_available",
    "compute_dtype",
    "set_compute_dtype",
    "cache_token",
    "shard_annotation",
    "set_shard_annotation",
    "num_threads",
    "set_num_threads",
    "kernel_threads",
    "Workspace",
    "LocalityReordering",
    "locality_reordering",
    "rows_from_panel",
    "forward_push_loop",
    "backward_push_loop",
]


def scaled_values(
    data: np.ndarray, decay: float | None, dtype
) -> np.ndarray:
    """The operator value array, decay-folded and cast: **scale, then
    cast**.

    This exact operation order is the bitwise contract every decayed
    operator copy in the codebase shares — the in-memory
    :meth:`Graph._operator_for` cache, the :class:`DiskGraph` streamed
    stripes, and the shard workers' scaled stripes all build their
    values through this one helper, so their products agree bit for
    bit.  ``decay=None`` means unscaled; the input array is returned
    as-is when no scaling or cast is needed, otherwise exactly one new
    array is produced.
    """
    scaled = data if decay is None else data * decay
    dtype = np.dtype(dtype)
    if scaled.dtype != dtype:
        scaled = scaled.astype(dtype, copy=scaled is data)
    return scaled


def _prepare_operand(matrix, x: np.ndarray, ndim: int) -> np.ndarray:
    x = np.asarray(x)
    if x.ndim != ndim:
        raise ParameterError(
            f"operand must be {ndim}-D, got shape {x.shape}"
        )
    if x.shape[0] != matrix.shape[1]:
        raise ParameterError(
            f"operand leading dimension {x.shape[0]} does not match "
            f"matrix shape {matrix.shape}"
        )
    if x.dtype != matrix.data.dtype:
        x = x.astype(matrix.data.dtype)
    return np.ascontiguousarray(x)


def _prepare_out(
    matrix, x: np.ndarray, out: np.ndarray | None, shape: tuple[int, ...]
) -> np.ndarray:
    if out is None:
        return np.empty(shape, dtype=matrix.data.dtype)
    if out.shape != shape or out.dtype != matrix.data.dtype:
        raise ParameterError(
            f"out buffer has shape {out.shape} dtype {out.dtype}; "
            f"expected shape {shape} dtype {matrix.data.dtype}"
        )
    if not out.flags.c_contiguous:
        raise ParameterError("out buffer must be C-contiguous")
    if np.may_share_memory(out, x):
        raise ParameterError("out buffer must not alias the operand")
    return out


def spmv(matrix, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``matrix @ x`` for a CSR matrix and 1-D ``x`` via the active backend.

    ``out``, when given, must be a C-contiguous vector of the matrix's
    dtype and row count; it is overwritten and returned.  The operand is
    cast to the matrix dtype when needed (one copy).
    """
    x = _prepare_operand(matrix, x, 1)
    out = _prepare_out(matrix, x, out, (matrix.shape[0],))
    return _backend_module().spmv(matrix, x, out)


def spmm(matrix, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``matrix @ x`` for a CSR matrix and ``(n, B)`` dense ``x``.

    The blocked product behind every batched online phase: one kernel
    call advances the whole seed batch.  Same ``out`` contract as
    :func:`spmv`.
    """
    x = _prepare_operand(matrix, x, 2)
    out = _prepare_out(matrix, x, out, (matrix.shape[0], x.shape[1]))
    return _backend_module().spmm(matrix, x, out)


#: Only caller: the frozen benchmark's ``kernels.spmm_tiled_ratio`` rung
#: (``benchmarks/ladder/ladder.py`` and its smoke test).
spmm_tiled = spmm


def forward_push_loop(*args) -> int | None:
    """Run the forward-push queue loop on the active backend.

    Returns the push count (``-1`` for a ``max_pushes`` overrun) or
    ``None`` when the active backend has no compiled loop — the caller
    runs its reference Python implementation instead.
    """
    loop = getattr(_backend_module(), "forward_push_loop", None)
    if loop is None:
        return None
    return loop(*args)


def backward_push_loop(*args) -> int | None:
    """Backward-push counterpart of :func:`forward_push_loop`."""
    loop = getattr(_backend_module(), "backward_push_loop", None)
    if loop is None:
        return None
    return loop(*args)
