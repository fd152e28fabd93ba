"""Micro-batching request scheduler.

The paper's serving argument (and PR 1's measured ~4x) is that one
batched online pass beats per-seed queries — but live traffic arrives
one request at a time, from many client threads.  :class:`Scheduler`
closes that gap: clients :meth:`submit` single
:class:`~repro.engine.QueryRequest`\\ s and immediately get a
:class:`~concurrent.futures.Future`; workers call :meth:`next_batch`,
which blocks until a *micro-batch* is ready and hands the whole batch
over for one ``Engine.batch`` pass.

A batch is ready when either trigger fires:

* **size** — ``max_batch`` requests are pending (full batch, zero added
  latency), or
* **age** — the oldest pending request has waited ``max_wait_ms``
  (bounded latency under light traffic; ``0`` dispatches immediately).

Admission control is a hard bound: once ``max_pending`` requests are
queued, :meth:`submit` raises
:class:`~repro.exceptions.ServerOverloaded` instead of queueing more —
latency stays bounded and overload is visible to clients, not hidden in
an ever-deeper queue.
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field

import numpy as np

from repro.engine import QueryRequest
from repro.exceptions import ParameterError, ServerOverloaded
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace

__all__ = ["Scheduler", "PendingRequest"]


@dataclass
class PendingRequest:
    """One queued request: the request itself, the future its client
    holds, and its arrival time (``perf_counter``) for queue-time
    metrics and the age trigger."""

    request: QueryRequest
    submitted_at: float
    future: "Future" = field(default_factory=Future)
    #: ``perf_counter`` instant after which the request must not be
    #: dispatched (``None`` = no deadline).  Derived from the request's
    #: ``deadline_ms`` at submission; checked at dispatch time by
    #: :func:`repro.serving.server.dispatch_batch`.
    deadline_at: float | None = None
    #: Trace identity minted at admission when tracing is enabled and
    #: the request is sampled; ``None`` rides for free otherwise.
    trace_id: str | None = None
    #: The request's root span, opened at admission and finished when
    #: its future resolves (outcome tagged ``ok``/``error``/
    #: ``deadline_exceeded``/``cancelled``).
    root_span: "obs_trace.Span | None" = None


class Scheduler:
    """Coalesce single-request submissions into dispatchable batches.

    Parameters
    ----------
    max_batch:
        Largest batch handed to one :meth:`next_batch` call.
    max_wait_ms:
        Longest a request may sit queued before a partial batch is
        dispatched anyway.  ``0`` means dispatch as soon as a worker is
        free (no artificial coalescing delay).
    max_pending:
        Admission bound: :meth:`submit` raises
        :class:`~repro.exceptions.ServerOverloaded` when this many
        requests are already queued.  ``0`` disables the bound.
    """

    def __init__(
        self,
        max_batch: int = 32,
        max_wait_ms: float = 2.0,
        max_pending: int = 1024,
    ):
        # Counts follow validate_k's rule: bools and floats raise rather
        # than truncate (max_batch=2.5 must not quietly mean 2).
        for name, value in (
            ("max_batch", max_batch), ("max_pending", max_pending)
        ):
            if isinstance(value, (bool, np.bool_)) or not isinstance(
                value, (int, np.integer)
            ):
                raise ParameterError(
                    f"{name} must be an integer, got {type(value).__name__}"
                )
        if max_batch < 1:
            raise ParameterError("max_batch must be at least 1")
        # NaN passes a plain ``< 0`` check and makes the age trigger
        # never fire: the queue would wait forever.
        if not math.isfinite(max_wait_ms) or max_wait_ms < 0:
            raise ParameterError("max_wait_ms must be finite and non-negative")
        if max_pending < 0:
            raise ParameterError("max_pending must be non-negative")
        self._max_batch = int(max_batch)
        self._max_wait_seconds = float(max_wait_ms) / 1e3
        self._max_pending = int(max_pending)
        self._queue: deque[PendingRequest] = deque()
        self._condition = threading.Condition()
        self._closed = False
        self._overloads = 0
        registry = obs_metrics.get_registry()
        self._depth_gauge = registry.gauge(
            "repro_scheduler_depth", "Requests currently queued."
        )
        self._overload_counter = registry.counter(
            "repro_scheduler_overloads_total",
            "Submissions rejected at the admission bound.",
        )

    @property
    def max_batch(self) -> int:
        return self._max_batch

    @property
    def max_wait_ms(self) -> float:
        return self._max_wait_seconds * 1e3

    @property
    def max_pending(self) -> int:
        return self._max_pending

    @property
    def pending(self) -> int:
        """Requests currently queued (admission-control depth)."""
        with self._condition:
            return len(self._queue)

    @property
    def overloads(self) -> int:
        """Lifetime count of submissions rejected at the admission
        bound."""
        with self._condition:
            return self._overloads

    @property
    def closed(self) -> bool:
        return self._closed

    def submit(self, request: QueryRequest) -> "Future":
        """Queue one request; returns the future its result lands on.

        Raises :class:`~repro.exceptions.ServerOverloaded` when the
        admission bound is hit and :class:`RuntimeError` after
        :meth:`close`.
        """
        pending = PendingRequest(request, time.perf_counter())
        deadline_ms = getattr(request, "deadline_ms", None)
        if deadline_ms is not None:
            pending.deadline_at = (
                pending.submitted_at + float(deadline_ms) / 1e3
            )
        trace_id = obs_trace.new_trace_id()
        if trace_id is not None:
            pending.trace_id = trace_id
            pending.root_span = obs_trace.start_span(
                "request",
                trace_id,
                begin=pending.submitted_at,
                seed=int(getattr(request, "seed", -1)),
            )
        with self._condition:
            if self._closed:
                raise RuntimeError("scheduler is closed")
            if self._max_pending and len(self._queue) >= self._max_pending:
                self._overloads += 1
                self._overload_counter.inc()
                raise ServerOverloaded(len(self._queue), self._max_pending)
            self._queue.append(pending)
            self._depth_gauge.set(len(self._queue))
            self._condition.notify()
        return pending.future

    def next_batch(
        self, timeout: float | None = None
    ) -> list[PendingRequest] | None:
        """Block until a micro-batch is ready, then pop and return it.

        Returns up to ``max_batch`` requests once the size or age
        trigger fires.  A ``timeout`` expiry dispatches whatever partial
        batch is queued (the worker is idle anyway) or returns ``None``
        if the queue is empty; ``None`` is also the shutdown signal once
        the scheduler is closed and drained.
        """
        deadline = (
            None if timeout is None else time.perf_counter() + timeout
        )
        with self._condition:
            while True:
                now = time.perf_counter()
                expired = deadline is not None and now >= deadline
                if self._queue:
                    oldest_age = now - self._queue[0].submitted_at
                    if (
                        len(self._queue) >= self._max_batch
                        or oldest_age >= self._max_wait_seconds
                        or self._closed
                        or expired
                    ):
                        batch = [
                            self._queue.popleft()
                            for _ in range(
                                min(len(self._queue), self._max_batch)
                            )
                        ]
                        self._depth_gauge.set(len(self._queue))
                        if self._queue:
                            # More than one batch is ready: wake another
                            # waiting worker for the remainder.
                            self._condition.notify()
                        return batch
                    # Partial batch: sleep until the age trigger would
                    # fire (a submit that fills the batch wakes us
                    # earlier).
                    wait = self._max_wait_seconds - oldest_age
                    if deadline is not None:
                        wait = min(wait, deadline - now)
                else:
                    if self._closed or expired:
                        return None
                    wait = None if deadline is None else deadline - now
                self._condition.wait(wait)

    def close(self) -> None:
        """Stop admitting requests and wake every blocked worker.

        Already-queued requests stay dispatchable — workers keep
        receiving batches until the queue drains, then get ``None``.
        """
        with self._condition:
            self._closed = True
            self._condition.notify_all()

    def cancel_pending(self) -> int:
        """Drop every queued request, cancelling its future; returns the
        number cancelled.  Used for non-draining shutdown."""
        with self._condition:
            dropped = list(self._queue)
            self._queue.clear()
            self._depth_gauge.set(0)
        for pending in dropped:
            pending.future.cancel()
            if pending.root_span is not None:
                pending.root_span.finish(outcome="cancelled")
        return len(dropped)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Scheduler(max_batch={self._max_batch}, "
            f"max_wait_ms={self.max_wait_ms:g}, pending={self.pending})"
        )
