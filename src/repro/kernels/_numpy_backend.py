"""Pure NumPy/SciPy implementation of the CSR kernels.

This backend IS the pre-kernel-layer code path: SciPy's C kernels
``csr_matvec`` / ``csr_matvecs`` are exactly what ``csr_array @ x``
dispatches to, so routing a hot loop through here changes *nothing* about
its floating-point operations — results are bitwise identical to the
original ``operator @ x`` expressions (the equivalence the test suite
asserts).  Calling the private kernels directly buys two things ``@``
cannot offer: accumulation into a caller-supplied output buffer, so
iterate loops stop allocating a fresh multi-megabyte matrix per step,
and products over zero-copy *row slices* of the operator — the unit the
thread stripes are made of.

Threads: the SciPy kernels (and NumPy's copy/partition loops) release
the interpreter lock, and CSR rows partition the output, so a large call
runs as contiguous row stripes on this process's idle cores (see
:func:`striped`; the policy and its measurements are documented in
:mod:`repro.kernels`).  Every row is still computed by the same C loop
in the same order, so results are bitwise identical at any thread count.

When the private ``scipy.sparse._sparsetools`` layout ever changes, the
public operator is used instead (identical numerics, one extra
allocation when no ``out`` is supplied — and one copy when it is).
"""

from __future__ import annotations

import ctypes
import os
import queue
import threading
from concurrent.futures import Future
from threading import get_ident
from time import monotonic

import numpy as np

try:  # pragma: no cover - import guard
    from scipy.sparse._sparsetools import csr_matvec as _csr_matvec
    from scipy.sparse._sparsetools import csr_matvecs as _csr_matvecs
except ImportError:  # pragma: no cover - older/newer scipy layouts
    _csr_matvec = None
    _csr_matvecs = None

try:
    _getcpu = ctypes.CDLL(None).sched_getcpu
    _getcpu.argtypes, _getcpu.restype = [], ctypes.c_int
except (AttributeError, OSError):  # pragma: no cover - not Linux/glibc
    _getcpu = None

name = "numpy"

#: Work below which a kernel call never splits: multiply-adds
#: (``nnz × width``) for the products, ranked elements (``rows × n``) for
#: the selection.  About 2 ms of single-core work — under it the stripe
#: hand-off costs more than the second core returns.
WORK_FLOOR = 2_000_000

#: Seconds a thread keeps its core after it was last seen in a kernel.
#: A thread between two kernel calls of one batch (ranking rows, building
#: results, picking up the next batch) is computing, not idle; lending
#: its core in those gaps made a busy ``Server`` split or not by how its
#: workers' phases happened to interleave.  Longer than any such gap, far
#: shorter than a thread that has really gone quiet.
CORE_LINGER = 0.1


def _available_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - platforms without affinity
        return os.cpu_count() or 1


#: Stripe ceiling of one kernel call (the cores this process may run on
#: unless :func:`set_num_threads` says otherwise).
num_threads = _available_cores()


def set_num_threads(requested) -> int:
    """Apply a thread-count request; ``None`` restores the core count.
    Returns the count applied."""
    global num_threads
    num_threads = (
        _available_cores() if requested is None else max(1, int(requested))
    )
    return num_threads


class _Cores:
    """This process's ledger of cores held by kernel callers, plus the
    daemon threads that run the stripes a call hands off.

    A call at or above :data:`WORK_FLOOR` claims its cores for its
    duration; every caller, large or small, also counts as holding one
    core for :data:`CORE_LINGER` after it was last seen in a kernel.  A
    large call thus sees how many cores *other* callers hold and splits
    only across the rest.  Threads are started on first need and live
    for the process; they block on the task queue when idle.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._tasks: queue.SimpleQueue = queue.SimpleQueue()
        self._workers = 0
        self.held = 0  # cores of the large calls in flight
        # Caller thread -> when it was last seen in a kernel; ``True``:
        # since the last large call looked.  Never pruned: thread
        # identifiers are reused, so it holds one entry per thread slot.
        self._seen: dict = {}

    def touch(self) -> None:
        """Note a call below the floor: the calling thread is busy.

        One lock-free dictionary store and no clock: this is the path
        of every small SpMV, and once the kernel has streamed the
        operator through the caches each further interpreter step runs
        cold (reading the clock here cost 6 µs of a 360 µs SpMV at 20k
        nodes).  The next large call puts the time on the mark."""
        self._seen[get_ident()] = True

    def claim(self) -> int:
        """Take ``max(1, num_threads − cores others hold)`` cores for a
        call at or above the floor; returns the number taken (give it
        back to :meth:`release`)."""
        me = get_ident()
        with self._lock:
            now = monotonic()
            self._seen.pop(me, None)  # in flight: counted in ``held``
            lingering = 0
            for who, seen in list(self._seen.items()):
                if seen is True:
                    self._seen[who] = seen = now
                lingering += seen > now - CORE_LINGER
            stripes = max(1, num_threads - self.held - lingering)
            self.held += stripes
            # Concurrent splits lend out at most num_threads − 1 stripes
            # between them; keep one thread per lendable stripe so none
            # queues behind another call's.
            while stripes > 1 and self._workers < num_threads - 1:
                threading.Thread(
                    target=self._serve, daemon=True,
                    name=f"repro-kernel-{self._workers}",
                ).start()
                self._workers += 1
        return stripes

    def release(self, stripes: int) -> None:
        with self._lock:
            self.held -= stripes
            self._seen[get_ident()] = monotonic()

    def submit(self, task, part, home: int) -> Future:
        """Queue ``task(part)`` for a kernel thread; ``home`` is the CPU
        the submitting thread runs on (``-1``: unknown)."""
        future: Future = Future()
        self._tasks.put((future, task, part, home))
        return future

    def _serve(self) -> None:
        while True:
            self._run(*self._tasks.get())

    @staticmethod
    def _run(future: Future, task, part, home: int) -> None:
        # Its own frame, so an idle thread holds no reference to the last
        # call's operands (the task closes over whole iterate panels).
        try:
            if home >= 0 and _getcpu() == home:
                _leave(home)
            task(part)
        except BaseException as error:  # noqa: BLE001 - re-raised by the caller
            future.set_exception(error)
        else:
            future.set_result(None)


def _leave(cpu: int) -> None:
    """Migrate the calling thread off ``cpu`` now.

    A stripe thread is woken by the caller and Linux places it on the
    caller's CPU unless its wake-up path finds an idle one — which, on
    last-level-cache domains of a few CPUs (a 2-vCPU machine), it does
    not look for once one CPU is busy (``SIS_UTIL``).  The stripes then
    time-share the caller's core until the periodic balancer separates
    them, a second or more later; a 10 ms call never sees the second
    core.  Excluding the CPU from the thread's affinity moves it
    immediately; the mask is restored at once, so the thread stays free
    to run anywhere afterwards (and it tends to stay put: wake-ups
    prefer the previous CPU while that is idle).
    """
    try:
        allowed = os.sched_getaffinity(0)
        if len(allowed) > 1:
            os.sched_setaffinity(0, allowed - {cpu})
            os.sched_setaffinity(0, allowed)
    except OSError:  # pragma: no cover - placement stays the scheduler's
        pass


_cores = _Cores()


def _reset_after_fork() -> None:
    # The child has none of the parent's threads, and the parent's lock
    # and held count may have been captured mid-call.
    global _cores
    _cores = _Cores()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_after_fork)


def striped(work: int, split, task) -> None:
    """Run ``task(part)`` over ``split(stripes)``, one part per idle core.

    ``split(stripes)`` returns at most ``stripes`` disjoint parts that
    together cover the call; the calling thread runs the first, this
    process's kernel threads the rest, and the call returns once all
    have finished (re-raising the first failure).  Below the work floor,
    or with one thread configured, this is exactly ``task(split(1)[0])``
    — no pool, and no ledger beyond noting that the caller is busy.
    ``task`` must not itself call a kernel: a stripe waiting on stripes
    of its own could exhaust the threads it waits for.
    """
    if num_threads == 1 or work < WORK_FLOOR:
        if num_threads > 1:
            _cores.touch()
        for part in split(1):
            task(part)
        return
    cores = _cores  # a fork hook may swap the module global mid-call
    stripes = cores.claim()
    try:
        parts = split(stripes)
        home = _getcpu() if _getcpu is not None and len(parts) > 1 else -1
        pending = [cores.submit(task, part, home) for part in parts[1:]]
        error = None
        try:
            if parts:
                task(parts[0])
        except BaseException as caught:  # noqa: BLE001 - re-raised below
            error = caught
        for future in pending:
            # Always wait: a stripe still running writes into the
            # caller's buffers.
            failure = future.exception()
            error = error or failure
        if error is not None:
            raise error
    finally:
        cores.release(stripes)


def _tile(matrix, x: np.ndarray, out: np.ndarray, r0: int, r1: int) -> None:
    """``out[r0:r1] <- matrix[r0:r1] @ x`` on a zero-copy row slice of the
    operator (indptr rebased by the slice's first nonzero position).
    Rows are computed independently by the scipy kernels, so any cover
    of the row range by such slices is bitwise identical to one call."""
    indptr, indices, data = matrix.indptr, matrix.indices, matrix.data
    if r1 - r0 < out.shape[0]:
        p0, p1 = int(indptr[r0]), int(indptr[r1])
        out = out[r0:r1]
        indptr = indptr[r0 : r1 + 1]
        if p0:
            indptr = indptr - p0
        indices, data = indices[p0:p1], data[p0:p1]
    out.fill(0.0)  # the scipy kernels accumulate into their output
    if x.ndim == 1:
        _csr_matvec(r1 - r0, matrix.shape[1], indptr, indices, data, x, out)
    else:
        _csr_matvecs(
            r1 - r0, matrix.shape[1], x.shape[1], indptr, indices, data,
            x.ravel(), out.ravel(),
        )


def _stripe_bounds(indptr, stripes: int) -> list:
    """Cut the rows into at most ``stripes`` contiguous ``(r0, r1)`` runs
    holding about equal nonzeros — not equal rows: degrees are
    heavy-tailed, so equal-row stripes leave one thread with the hubs.
    Empty runs are dropped."""
    targets = int(indptr[-1]) * np.arange(1, stripes) // stripes
    cuts = [0, *np.searchsorted(indptr, targets).tolist(), indptr.size - 1]
    return [(r0, r1) for r0, r1 in zip(cuts, cuts[1:]) if r0 < r1]


def spmm(matrix, x: np.ndarray, out: np.ndarray):
    """``out <- matrix @ x`` for CSR ``matrix`` and a 1-D or C-contiguous
    ``(n, B)`` operand."""
    if _csr_matvecs is None:
        np.copyto(out, matrix @ x)
        return out
    work = matrix.data.size * (1 if x.ndim == 1 else x.shape[1])
    if num_threads == 1 or work < WORK_FLOOR:
        # What :func:`striped` would do, without building its arguments:
        # the whole product is one slice on the calling thread.
        if num_threads > 1:
            _cores.touch()
        _tile(matrix, x, out, 0, matrix.shape[0])
        return out
    striped(
        work,
        lambda stripes: _stripe_bounds(matrix.indptr, stripes),
        lambda run: _tile(matrix, x, out, *run),
    )
    return out


#: The SpMV is the same routine (one frame fewer on the small-call path
#: than a wrapper).
spmv = spmm
