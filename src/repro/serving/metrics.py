"""Serving-side latency accounting.

Every request that flows through :class:`repro.serving.Server` is timed
twice: *queue time* (submit → a worker picks its micro-batch up) and
*compute time* (its share of the batch's online pass).  The split is the
first thing to look at when a serving deployment misbehaves — a fast
engine behind a deep queue and a slow engine behind an empty one need
opposite fixes (more workers / bigger ``max_batch`` vs kernel work).

:class:`LatencyStats` is a thread-safe recorder of those samples with
percentile snapshots (p50/p95/p99), bounded to the most recent
``capacity`` requests so a long-lived server's metrics stay O(1).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Sequence

import numpy as np

from repro.obs import metrics as obs_metrics

__all__ = ["LatencyStats", "percentiles"]


#: Default sample-window size: percentiles reflect the most recent
#: requests, and memory stays bounded on a long-lived server.
_DEFAULT_WINDOW = 65536


def percentiles(
    samples: Sequence[float], points: Sequence[float] = (50, 95, 99)
) -> dict[str, float]:
    """``{"p50": ..., "p95": ..., "p99": ...}`` for ``samples`` (empty
    input yields ``0.0`` everywhere — a server that has answered nothing
    has no latency, not NaN)."""
    if not len(samples):
        return {f"p{point:g}": 0.0 for point in points}
    values = np.percentile(np.asarray(samples, dtype=np.float64), points)
    return {
        f"p{point:g}": float(value) for point, value in zip(points, values)
    }


class LatencyStats:
    """Thread-safe per-request latency recorder.

    Parameters
    ----------
    capacity:
        Size of the rolling sample window percentiles are computed over
        (counters are exact over the whole lifetime).
    """

    #: Failure-path counters every snapshot carries (zeros when nothing
    #: went wrong, so report consumers never need ``.get`` fallbacks):
    #: ``failures`` — requests whose dispatch finally failed; ``retries``
    #: — batch re-runs a retry policy absorbed; ``respawns`` — dead
    #: workers (threads or shard processes) replaced by supervision;
    #: ``deadlines_exceeded`` — requests failed fast at dispatch because
    #: their queue deadline passed.
    COUNTERS = ("failures", "retries", "respawns", "deadlines_exceeded")

    #: Registry family behind each counter (dual-write: the instance
    #: keeps exact lifetime counts for its own snapshot, the process
    #: registry aggregates across every recorder for ``expose()``).
    _COUNTER_HELP = {
        "failures": "Requests whose dispatch finally failed.",
        "retries": "Batch re-runs absorbed by a retry policy.",
        "respawns": "Dead workers (threads or processes) respawned.",
        "deadlines_exceeded": "Requests failed fast on an expired deadline.",
    }

    def __init__(self, capacity: int = _DEFAULT_WINDOW):
        self._lock = threading.Lock()
        self._queue_seconds: deque[float] = deque(maxlen=capacity)
        self._compute_seconds: deque[float] = deque(maxlen=capacity)
        self._total_seconds: deque[float] = deque(maxlen=capacity)
        self._completed = 0
        self._first_record_at: float | None = None
        self._last_completion_at = 0.0
        self._counters = {name: 0 for name in self.COUNTERS}
        self._phase_seconds: dict[str, float] = {}
        self._phase_counts: dict[str, int] = {}

    def count(self, name: str, n: int = 1) -> None:
        """Bump a failure-path counter (see :attr:`COUNTERS`; unknown
        names are admitted so callers can add experiment-local ones)."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + int(n)
        help_text = self._COUNTER_HELP.get(name, "")
        obs_metrics.get_registry().counter(
            f"repro_{name}_total", help_text
        ).inc(n)

    def record(
        self,
        queue_seconds: float,
        compute_seconds: float,
        total_seconds: float,
    ) -> None:
        """Record one completed request's timing split."""
        now = time.perf_counter()
        with self._lock:
            self._queue_seconds.append(queue_seconds)
            self._compute_seconds.append(compute_seconds)
            self._total_seconds.append(total_seconds)
            self._completed += 1
            if self._first_record_at is None:
                # The span starts when its request did, not when the
                # recorder was built — idle time before the first
                # request must not deflate the rate.
                self._first_record_at = now - total_seconds
            self._last_completion_at = now
            self._phase_seconds["queue"] = (
                self._phase_seconds.get("queue", 0.0) + queue_seconds
            )
            self._phase_counts["queue"] = (
                self._phase_counts.get("queue", 0) + 1
            )
        registry = obs_metrics.get_registry()
        registry.counter(
            "repro_requests_total", "Requests completed successfully."
        ).inc()
        registry.histogram(
            "repro_request_seconds", "End-to-end request latency."
        ).observe(total_seconds)
        registry.histogram(
            "repro_phase_seconds",
            "Per-batch time credited to each request lifecycle phase.",
            labelnames=("phase",),
        ).labels(phase="queue").observe(queue_seconds)

    def record_phases(self, phases: dict[str, float]) -> None:
        """Fold one dispatched batch's phase breakdown into the stats.

        ``phases`` maps lifecycle phase names (``dispatch``/``sweep``/
        ``gather``/``select``) to seconds spent there for the batch; the
        queue phase is accounted per request by :meth:`record`.
        """
        if not phases:
            return
        with self._lock:
            for name, seconds in phases.items():
                self._phase_seconds[name] = (
                    self._phase_seconds.get(name, 0.0) + float(seconds)
                )
                self._phase_counts[name] = (
                    self._phase_counts.get(name, 0) + 1
                )
        family = obs_metrics.get_registry().histogram(
            "repro_phase_seconds",
            "Per-batch time credited to each request lifecycle phase.",
            labelnames=("phase",),
        )
        for name, seconds in phases.items():
            family.labels(phase=name).observe(float(seconds))

    def snapshot(self) -> dict[str, float]:
        """Counters plus latency percentiles, all in one consistent view.

        ``throughput_qps`` is completed requests over the span from the
        first recorded request's submission to the last completion —
        idle time before traffic starts or after it stops does not
        deflate the rate.
        """
        with self._lock:
            totals = list(self._total_seconds)
            queues = list(self._queue_seconds)
            computes = list(self._compute_seconds)
            completed = self._completed
            counters = dict(self._counters)
            phases = {
                name: {
                    "total_ms": self._phase_seconds[name] * 1e3,
                    "mean_ms": (
                        self._phase_seconds[name]
                        / max(self._phase_counts.get(name, 1), 1)
                    )
                    * 1e3,
                    "count": self._phase_counts.get(name, 0),
                }
                for name in sorted(self._phase_seconds)
            }
            span = (
                self._last_completion_at - self._first_record_at
                if self._first_record_at is not None
                else 0.0
            )
        latency_ms = {
            key: value * 1e3
            for key, value in percentiles(totals).items()
        }
        return {
            "completed": completed,
            "throughput_qps": completed / span if span > 0 else 0.0,
            "queue_mean_ms": float(np.mean(queues)) * 1e3 if queues else 0.0,
            "compute_mean_ms": (
                float(np.mean(computes)) * 1e3 if computes else 0.0
            ),
            "latency_p50_ms": latency_ms["p50"],
            "latency_p95_ms": latency_ms["p95"],
            "latency_p99_ms": latency_ms["p99"],
            "latency_max_ms": float(max(totals)) * 1e3 if totals else 0.0,
            "phases": phases,
            **counters,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        snap = self.snapshot()
        return (
            f"LatencyStats(completed={snap['completed']}, "
            f"p99={snap['latency_p99_ms']:.2f}ms)"
        )
