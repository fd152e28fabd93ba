"""Numba-JIT, thread-parallel implementation of the CSR kernels.

Row-parallel SpMV/SpMM: CSR rows partition the output, so ``prange`` over
rows needs no atomics and no reduction — each thread owns a disjoint slice
of ``out``.  Within a row, nonzeros accumulate in stored index order,
which is the same order SciPy's ``csr_matvec(s)`` kernels use; for float64
operands the two backends therefore agree to the last ulp in practice (the
test suite asserts ≤ 1e-12, the contract we document).

The skewed degree distributions of real random-walk graphs make static
row-blocking lopsided (one hub row can hold 1% of all nonzeros), so the
kernels run under Numba's default dynamic ``prange`` scheduling rather
than a hand-rolled row partition.  Pair with the SlashBurn locality
reordering (:mod:`repro.kernels.reorder`) to keep each thread's column
accesses cache-resident for the blocked SpMM.

This module is imported lazily by :mod:`repro.kernels.backend` only when
the ``numba`` backend is active, so environments without Numba never pay
(or fail) the import.  Kernels compile on first call per dtype signature;
``cache=True`` persists the machine code next to the package for
subsequent processes.
"""

from __future__ import annotations

import numba
import numpy as np
from numba import njit, prange

name = "numba"

num_threads = int(numba.get_num_threads())


def set_num_threads(requested):
    """Apply a thread-count request; ``None`` restores the launch pool.

    Numba only accepts ``1..NUMBA_NUM_THREADS`` (the pool it launched
    with cannot grow after import), so requests are clamped into that
    range rather than rejected — an autotuned profile measured on a
    bigger machine must degrade gracefully on a smaller one.  Returns
    the count actually applied.
    """
    global num_threads
    limit = int(numba.config.NUMBA_NUM_THREADS)
    if requested is None:
        applied = limit
    else:
        applied = max(1, min(int(requested), limit))
    numba.set_num_threads(applied)
    num_threads = applied
    return applied


@njit(parallel=True, nogil=True, cache=True)
def _spmv(indptr, indices, data, x, out):  # pragma: no cover - JIT
    # Accumulate through out[i] so every partial sum rounds in the output
    # dtype — exactly what SciPy's csr_matvec and _spmm below do.  A
    # float64 register accumulator would round only once, which under the
    # float32 policy would break the bitwise single-vs-batch equivalence
    # (spmv feeds single-seed queries, spmm the batched ones).
    for i in prange(out.shape[0]):
        out[i] = 0.0
        for j in range(indptr[i], indptr[i + 1]):
            out[i] += data[j] * x[indices[j]]


@njit(parallel=True, nogil=True, cache=True)
def _spmm(indptr, indices, data, x, out):  # pragma: no cover - JIT
    width = x.shape[1]
    for i in prange(out.shape[0]):
        for k in range(width):
            out[i, k] = 0.0
        for j in range(indptr[i], indptr[i + 1]):
            value = data[j]
            column = indices[j]
            for k in range(width):
                out[i, k] += value * x[column, k]


@njit(nogil=True, cache=True)
def _heap_worse(s_a, i_a, s_b, i_b):  # pragma: no cover - JIT
    # "a is worse than b" under the ranking order (score descending, ties
    # by ascending id): lower score, or equal score and higher id.  The
    # single definition of the tie-break contract for the heap kernels.
    return s_a < s_b or (s_a == s_b and i_a > i_b)


@njit(nogil=True, cache=True)
def _heap_sift_down(heap_s, heap_i, size):  # pragma: no cover - JIT
    # Restore the min-heap (root = worst kept entry) after replacing the
    # root; heap_s/heap_i[0:size] is otherwise heap-ordered.
    pos = 0
    while True:
        left = 2 * pos + 1
        if left >= size:
            break
        worst = left
        right = left + 1
        if right < size and _heap_worse(
            heap_s[right], heap_i[right], heap_s[left], heap_i[left]
        ):
            worst = right
        if _heap_worse(heap_s[worst], heap_i[worst], heap_s[pos], heap_i[pos]):
            heap_s[pos], heap_s[worst] = heap_s[worst], heap_s[pos]
            heap_i[pos], heap_i[worst] = heap_i[worst], heap_i[pos]
            pos = worst
        else:
            break


@njit(parallel=True, nogil=True, cache=True)
def _select_top_k_many(scores, banned, use_banned, k, out):  # pragma: no cover - JIT
    # Row-parallel bounded selection: each row keeps its k best candidates
    # in a binary min-heap whose root is the *worst* kept entry under the
    # ranking order (see _heap_worse).  A final in-place heapsort pops
    # the worst to the back repeatedly, so the row comes out best first —
    # exactly select_top_k's order.
    rows, n = scores.shape
    for b in prange(rows):
        heap_s = np.empty(k, np.float64)
        heap_i = np.empty(k, np.int64)
        size = 0
        for i in range(n):
            if use_banned and banned[b, i]:
                continue
            s = scores[b, i]
            if size < k:
                pos = size
                heap_s[pos] = s
                heap_i[pos] = i
                size += 1
                while pos > 0:  # sift up while worse than the parent
                    parent = (pos - 1) // 2
                    if _heap_worse(
                        heap_s[pos], heap_i[pos],
                        heap_s[parent], heap_i[parent],
                    ):
                        heap_s[pos], heap_s[parent] = heap_s[parent], heap_s[pos]
                        heap_i[pos], heap_i[parent] = heap_i[parent], heap_i[pos]
                        pos = parent
                    else:
                        break
            elif _heap_worse(heap_s[0], heap_i[0], s, i):
                # Beats the worst kept entry: replace the root, sift down.
                heap_s[0] = s
                heap_i[0] = i
                _heap_sift_down(heap_s, heap_i, size)
        # Heapsort: move the current worst to the back until sorted; the
        # kept entries end up best first in heap_s/heap_i[0:size].
        length = size
        while length > 1:
            length -= 1
            heap_s[0], heap_s[length] = heap_s[length], heap_s[0]
            heap_i[0], heap_i[length] = heap_i[length], heap_i[0]
            _heap_sift_down(heap_s, heap_i, length)
        for j in range(size):
            out[b, j] = heap_i[j]
        for j in range(size, k):
            out[b, j] = -1


def spmv(matrix, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out <- matrix @ x`` for CSR ``matrix`` and a 1-D operand."""
    _spmv(matrix.indptr, matrix.indices, matrix.data, x, out)
    return out


def spmm(matrix, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out <- matrix @ x`` for CSR ``matrix`` and a C-contiguous
    ``(n, B)`` operand."""
    _spmm(matrix.indptr, matrix.indices, matrix.data, x, out)
    return out


def select_top_k_many(
    scores: np.ndarray,
    banned: np.ndarray,
    use_banned: bool,
    k: int,
    out: np.ndarray,
) -> np.ndarray:
    """Row-parallel top-``k`` selection into ``out`` (``-1`` padded)."""
    _select_top_k_many(scores, banned, use_banned, int(k), out)
    return out


# -- local push loops ----------------------------------------------------------
#
# Forward/backward push are queue-driven scalar loops — Python-interpreter
# bound, not memory bound.  The JIT versions below mirror the reference
# implementations in repro.baselines operation for operation (same FIFO
# discipline, same in-queue dedup, same two-pass add-then-enqueue order),
# so their floating-point results are identical; only the interpreter
# overhead disappears.  They return the push count, or -1 when max_pushes
# was exceeded (the caller raises, matching the reference behavior).


@njit(nogil=True, cache=True)
def _forward_push(indptr, indices, threshold, c, seed, max_pushes,
                  estimate, residual):  # pragma: no cover - JIT
    n = indptr.shape[0] - 1
    queue = np.empty(n, np.int64)
    in_queue = np.zeros(n, np.uint8)
    # Ring buffer seeded with one element: reads start at 0, the next
    # write goes to 1 mod n (tail is always (head + count) mod n).
    head = 0
    tail = 1 % n
    count = 1
    queue[0] = seed
    in_queue[seed] = 1
    pushes = 0
    while count > 0:
        node = queue[head]
        head += 1
        if head == n:
            head = 0
        count -= 1
        in_queue[node] = 0
        mass = residual[node]
        if mass <= threshold[node]:
            continue
        pushes += 1
        if pushes > max_pushes:
            return -1
        estimate[node] += c * mass
        residual[node] = 0.0
        lo = indptr[node]
        hi = indptr[node + 1]
        degree = hi - lo
        if degree == 0:
            # Dangling node: absorb the remaining mass locally, exactly as
            # the reference implementation does.
            estimate[node] += (1.0 - c) * mass
            continue
        share = (1.0 - c) * mass / degree
        for j in range(lo, hi):
            residual[indices[j]] += share
        for j in range(lo, hi):
            target = indices[j]
            if residual[target] > threshold[target] and in_queue[target] == 0:
                queue[tail] = target
                tail += 1
                if tail == n:
                    tail = 0
                count += 1
                in_queue[target] = 1
    return pushes


@njit(nogil=True, cache=True)
def _backward_push(indptr, indices, weights, rmax, c, target, max_pushes,
                   estimate, residual):  # pragma: no cover - JIT
    n = indptr.shape[0] - 1
    queue = np.empty(n, np.int64)
    in_queue = np.zeros(n, np.uint8)
    # Same ring-buffer discipline as _forward_push: tail = (head + count).
    head = 0
    tail = 1 % n
    count = 1
    queue[0] = target
    in_queue[target] = 1
    pushes = 0
    while count > 0:
        node = queue[head]
        head += 1
        if head == n:
            head = 0
        count -= 1
        in_queue[node] = 0
        mass = residual[node]
        if mass <= rmax:
            continue
        pushes += 1
        if pushes > max_pushes:
            return -1
        estimate[node] += c * mass
        residual[node] = 0.0
        lo = indptr[node]
        hi = indptr[node + 1]
        for j in range(lo, hi):
            residual[indices[j]] += (1.0 - c) * mass * weights[j]
        for j in range(lo, hi):
            source = indices[j]
            if residual[source] > rmax and in_queue[source] == 0:
                queue[tail] = source
                tail += 1
                if tail == n:
                    tail = 0
                count += 1
                in_queue[source] = 1
    return pushes


def forward_push_loop(indptr, indices, threshold, c, seed, max_pushes,
                      estimate, residual) -> int:
    return int(_forward_push(indptr, indices, threshold, float(c),
                             np.int64(seed), np.int64(max_pushes),
                             estimate, residual))


def backward_push_loop(indptr, indices, weights, rmax, c, target, max_pushes,
                       estimate, residual) -> int:
    return int(_backward_push(indptr, indices, weights, float(rmax), float(c),
                              np.int64(target), np.int64(max_pushes),
                              estimate, residual))
