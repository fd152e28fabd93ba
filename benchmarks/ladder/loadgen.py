"""Single-thread load generation against a ``submit(QueryRequest)`` front.

Two drivers, both run on the calling thread (the reference box has two
cores; a client thread pool would compete with the workers it measures):

* :func:`run_open_loop` — arrivals on a fixed schedule, submitted whether
  or not earlier requests completed.  Latency is **completion − due
  time**, so a stall charges every request that was due while it lasted
  (no coordinated omission), and the generator's own lateness
  (submit − due) is kept beside it.
* :func:`run_window` — a fixed number of requests kept in flight, for
  saturation throughput.

Completions are stamped by ``Future.add_done_callback`` on whichever
thread resolves the future.  A refused submit, a future that raises, and
a future still unresolved at the drain timeout are failed operations.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import wait
from dataclasses import dataclass, field

import numpy as np

#: Sub-windows every timed phase is cut into; throughput metrics are the
#: median over them.
SUBWINDOWS = 5

#: Seconds to wait for in-flight requests once a phase stops sending.
DRAIN_TIMEOUT = 30.0


@dataclass
class Phase:
    """Raw record of one timed phase; times are seconds from its start."""

    duration: float
    due: np.ndarray
    submitted: np.ndarray
    done: np.ndarray  # NaN where the operation failed
    queue_ms: np.ndarray  # submit -> batch picked up; NaN if not stamped
    batch_ms: np.ndarray  # batch picked up -> batch finished (whole batch)
    errors: list = field(repr=False, default_factory=list)

    @property
    def sent(self) -> int:
        return int(self.due.size)

    @property
    def failed(self) -> int:
        return int(np.isnan(self.done).sum())

    @property
    def succeeded(self) -> int:
        return self.sent - self.failed

    def latency_ms(self) -> np.ndarray:
        """Completion − due time of the succeeded requests."""
        ok = ~np.isnan(self.done)
        return (self.done[ok] - self.due[ok]) * 1e3

    def lateness_ms(self) -> np.ndarray:
        """Submit − due time: how late the generator itself ran."""
        return (self.submitted - self.due) * 1e3

    def within(self, limit_ms: float) -> float:
        """Share of *sent* requests answered inside ``limit_ms``; a
        failed request misses any limit."""
        if not self.sent:
            return 0.0
        return float((self.latency_ms() <= limit_ms).sum()) / self.sent

    def backlog_growing(self) -> bool:
        """Whether latency kept rising through the phase: the median of
        the last sub-window is more than double that of the first and
        exceeds it by more than a millisecond."""
        ok = ~np.isnan(self.done)
        if ok.sum() < 2 * SUBWINDOWS:
            return True
        latency = (self.done[ok] - self.due[ok]) * 1e3
        edges = self.duration / SUBWINDOWS
        first = latency[self.due[ok] < edges]
        last = latency[self.due[ok] >= self.duration - edges]
        if not first.size or not last.size:
            return True
        head, tail = float(np.median(first)), float(np.median(last))
        return tail > 2.0 * head and tail - head > 1.0


def lateness_valid(phase: Phase, limit_ms: float) -> bool:
    """A phase whose generator ran later than a tenth of the latency
    limit at p99 did not offer the schedule it claims."""
    late = phase.lateness_ms()
    return bool(late.size) and float(np.percentile(late, 99)) <= limit_ms / 10.0


def poisson_offsets(
    rng: np.random.Generator, rate: float, seconds: float
) -> np.ndarray:
    """Arrival times in ``[0, seconds)`` of a Poisson process."""
    count = int(rate * seconds * 1.25) + 32
    offsets = rng.exponential(1.0 / rate, size=count).cumsum()
    while offsets[-1] < seconds:  # pragma: no cover - 25 % head-room
        extra = rng.exponential(1.0 / rate, size=count).cumsum()
        offsets = np.concatenate([offsets, offsets[-1] + extra])
    return offsets[offsets < seconds]


def _collect(duration, due, submitted, done, futures, refused) -> Phase:
    """Fold the futures' outcomes into a :class:`Phase`."""
    live = [future for future in futures if future is not None]
    wait(live, timeout=DRAIN_TIMEOUT)
    count = len(futures)
    queue_ms = np.full(count, np.nan)
    batch_ms = np.full(count, np.nan)
    errors = list(refused)
    for index, future in enumerate(futures):
        if future is None:
            continue
        if not future.done():
            future.cancel()
            errors[index] = TimeoutError("unresolved at drain timeout")
        elif future.cancelled():
            errors[index] = RuntimeError("cancelled")
        elif future.exception() is not None:
            errors[index] = future.exception()
        else:
            timing = getattr(future, "repro_timing", None)
            if timing is not None:
                queue_ms[index] = timing["queue_ms"]
                batch_ms[index] = timing["total_ms"] - timing["queue_ms"]
        if errors[index] is not None:
            done[index] = np.nan
    return Phase(
        duration=duration,
        due=np.asarray(due, dtype=np.float64),
        submitted=np.asarray(submitted, dtype=np.float64),
        done=np.asarray(done, dtype=np.float64),
        queue_ms=queue_ms,
        batch_ms=batch_ms,
        errors=errors,
    )


def run_open_loop(front, requests, offsets, duration: float) -> Phase:
    """Submit ``requests[i]`` at ``offsets[i]`` seconds, never waiting
    for a reply.  ``time.sleep`` paces the schedule (it releases the
    interpreter lock; spinning would steal it from the workers)."""
    count = len(requests)
    due = np.asarray(offsets, dtype=np.float64)
    submitted = np.full(count, np.nan)
    done = np.full(count, np.nan)
    futures: list = [None] * count
    refused: list = [None] * count
    clock = time.perf_counter
    start = clock() + 0.002

    def stamp(index):
        def on_done(_future):
            done[index] = clock() - start
        return on_done

    for index in range(count):
        delay = start + due[index] - clock()
        if delay > 0:
            time.sleep(delay)
        submitted[index] = clock() - start
        try:
            future = front.submit(requests[index])
        except Exception as error:  # noqa: BLE001 - refusal is an outcome
            refused[index] = error
            continue
        futures[index] = future
        future.add_done_callback(stamp(index))
    return _collect(duration, due, submitted, done, futures, refused)


def run_window(front, requests, window: int, duration: float) -> Phase:
    """Keep ``window`` requests in flight for ``duration`` seconds,
    cycling over ``requests``.  Every request is due the moment a slot
    frees, so ``due`` equals ``submitted``."""
    slots = threading.Semaphore(window)
    submitted: list[float] = []
    done: list[float] = []
    futures: list = []
    refused: list = []
    clock = time.perf_counter
    start = clock()

    def stamp(index):
        def on_done(_future):
            done[index] = clock() - start
            slots.release()
        return on_done

    index = 0
    while True:
        if not slots.acquire(timeout=DRAIN_TIMEOUT):
            break  # the front stopped answering; _collect reports it
        now = clock() - start
        if now >= duration:
            break
        submitted.append(now)
        done.append(np.nan)
        try:
            future = front.submit(requests[index % len(requests)])
        except Exception as error:  # noqa: BLE001 - refusal is an outcome
            futures.append(None)
            refused.append(error)
            slots.release()
        else:
            futures.append(future)
            refused.append(None)
            future.add_done_callback(stamp(index))
        index += 1
    return _collect(duration, list(submitted), submitted, done, futures,
                    refused)


def window_rates(
    done: np.ndarray, duration: float, windows: int = SUBWINDOWS
) -> np.ndarray:
    """Completions per second in each of ``windows`` consecutive
    sub-windows holding equal numbers of the completions inside
    ``[0, duration)``.  Cutting by count rather than by time keeps the
    rate a measured time: micro-batches complete 64 at once, and a
    count per fixed interval would move in steps of a few per cent."""
    stamps = np.asarray(done, dtype=np.float64)
    stamps = np.sort(stamps[stamps < duration])  # drops NaN too
    if stamps.size < windows:
        return np.asarray([stamps.size / duration])
    cuts = np.round(np.linspace(0, stamps.size, windows + 1)).astype(int)
    ends = stamps[cuts[1:] - 1]
    starts = np.concatenate([[0.0], ends[:-1]])
    return np.diff(cuts) / (ends - starts)


def median_iqr(values) -> tuple[float, float]:
    """Median and inter-quartile range of ``values``: a phase's
    throughput over its sub-windows, and the in-run spread printed
    beside it."""
    array = np.asarray(values, dtype=np.float64)
    low, mid, high = np.percentile(array, [25, 50, 75])
    return float(mid), float(high - low)


def mean_rate(phase: Phase) -> float:
    """Completions per second from the phase's start to its end or its
    last completion, whichever is later (so a phase shorter than one
    batch still has a rate)."""
    done = phase.done[~np.isnan(phase.done)]
    if not done.size:
        return 0.0
    return float(done.size) / max(phase.duration, float(done.max()))
