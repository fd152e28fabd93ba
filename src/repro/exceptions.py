"""Exception hierarchy for the ``repro`` library.

All exceptions raised intentionally by this package derive from
:class:`ReproError` so callers can catch library failures with a single
``except`` clause while letting programming errors propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class GraphFormatError(ReproError):
    """An edge-list file or in-memory edge structure is malformed."""


class DanglingNodeError(ReproError):
    """A graph contains nodes with zero out-degree and the chosen
    normalization policy forbids them."""


class NotPreprocessedError(ReproError):
    """A two-phase method was queried before :meth:`preprocess` ran."""


class MemoryBudgetExceeded(ReproError):
    """Preprocessed data exceeded the configured memory budget.

    Mirrors the paper's 200 GB workstation cap under which BEAR-APPROX and
    NB-LIN fail on the larger datasets (Section IV-A2).
    """

    def __init__(self, method: str, required_bytes: int, budget_bytes: int):
        self.method = method
        self.required_bytes = required_bytes
        self.budget_bytes = budget_bytes
        super().__init__(
            f"{method} requires {required_bytes} bytes of preprocessed data "
            f"which exceeds the memory budget of {budget_bytes} bytes"
        )


class ConvergenceError(ReproError):
    """An iterative solver failed to converge within its iteration cap."""


class ServerOverloaded(ReproError):
    """The serving admission queue is full and the request was rejected.

    Raised by :meth:`repro.serving.Scheduler.submit` (and therefore
    :meth:`repro.serving.Server.submit`) when ``max_pending`` requests
    are already waiting — backpressure instead of unbounded queueing.
    Clients should retry with backoff or shed load.
    """

    #: Overload is transient by definition — the queue drains.  Retry
    #: policies (:class:`repro.resilience.RetryPolicy`) key on this.
    retryable = True

    def __init__(self, pending: int, max_pending: int):
        self.pending = pending
        self.max_pending = max_pending
        super().__init__(
            f"admission queue full: {pending} requests pending "
            f"(max_pending={max_pending})"
        )

    def __reduce__(self):
        # args holds the formatted message, not the two constructor
        # parameters — without this, pickling the exception across a
        # process boundary breaks reconstruction.
        return (type(self), (self.pending, self.max_pending))


class DeadlineExceeded(ReproError):
    """A request's ``deadline_ms`` elapsed before a worker computed it.

    Raised onto the request's future by the dispatch path (never
    mid-compute: a batch that started in time is allowed to finish, so
    results are always either complete or typed failures).  Deadlined
    requests must not be blindly retried — the deadline already passed —
    so this is **not** retryable.
    """

    retryable = False

    def __init__(self, deadline_ms: float, waited_ms: float):
        self.deadline_ms = float(deadline_ms)
        self.waited_ms = float(waited_ms)
        super().__init__(
            f"deadline of {self.deadline_ms:g} ms exceeded after "
            f"{self.waited_ms:.1f} ms in queue"
        )

    def __reduce__(self):
        # Same pickling concern as ServerOverloaded: args holds the
        # formatted message, not the constructor parameters.
        return (type(self), (self.deadline_ms, self.waited_ms))


class WorkerFailure(ReproError, RuntimeError):
    """A shard worker process failed mid-protocol.

    ``kind`` distinguishes the failure modes the recovery paths treat
    differently:

    * ``"died"`` — the pipe reported EOF / broke: the process is gone
      (or going).  The supervisor or the sweep retry respawns it.
    * ``"timeout"`` — no reply within the step timeout: hung or wedged.
      Treated like death (the worker is killed and respawned) because a
      wedged worker holds shared panels hostage.
    * ``"error"`` — the worker itself reported an exception (its
      traceback is in ``detail``).  The process is healthy; only the
      step failed, so recovery retries without a respawn.
    * ``"init"`` — the worker never came up.

    Inherits :class:`RuntimeError` so callers written against the
    pre-resilience protocol (which raised bare ``RuntimeError``) keep
    working.  Worker death is transient — the deployment respawns — so
    the failure is retryable.
    """

    retryable = True

    def __init__(self, shard: int, kind: str, detail: str = ""):
        self.shard = int(shard)
        self.kind = str(kind)
        self.detail = str(detail)
        super().__init__(
            f"shard {self.shard} worker {self.kind}"
            + (f": {self.detail}" if self.detail else "")
        )

    def __reduce__(self):
        return (type(self), (self.shard, self.kind, self.detail))


class ParameterError(ReproError, ValueError):
    """An algorithm parameter is outside its valid domain."""
