"""Self-test of the load generator against a fake front end.

The fake serves requests first-in first-out on one thread with a fixed
service time, and can be told to block a ``submit`` call or to fail
requests.  Every timing assertion here is against an injected delay of
hundreds of milliseconds with a margin of at least a third of it.
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import Future

import numpy as np

import loadgen


class FakeFront:
    """``submit(request) -> Future`` with a fixed service time."""

    def __init__(self, service_s=0.001, block_at=None, block_s=0.0,
                 refuse=(), fail=()):
        self._service_s = service_s
        self._block_at, self._block_s = block_at, block_s
        self._refuse, self._fail = set(refuse), set(fail)
        self._queue: queue.Queue = queue.Queue()
        self._submitted = 0
        self._lock = threading.Lock()
        self.in_flight = 0
        self.max_in_flight = 0
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def submit(self, request):
        index = self._submitted
        self._submitted += 1
        if index == self._block_at:
            time.sleep(self._block_s)  # the generator itself is held up
        if index in self._refuse:
            raise RuntimeError("refused")
        future: Future = Future()
        with self._lock:
            self.in_flight += 1
            self.max_in_flight = max(self.max_in_flight, self.in_flight)
        self._queue.put((index, future))
        return future

    def _serve(self):
        while True:
            item = self._queue.get()
            if item is None:
                return
            index, future = item
            time.sleep(self._service_s)
            with self._lock:
                self.in_flight -= 1
            if index in self._fail:
                future.set_exception(ValueError("failed"))
            else:
                future.set_result(index)

    def close(self):
        self._queue.put(None)
        self._thread.join(5.0)
        assert not self._thread.is_alive()


def uniform(rate, seconds):
    return np.arange(int(rate * seconds)) / rate


def test_latency_is_taken_from_due_time_and_lateness_is_reported():
    # The 21st submit blocks the generator for 0.3 s: the requests due
    # while it was blocked are sent late, and must be charged the wait.
    front = FakeFront(block_at=20, block_s=0.3)
    offsets = uniform(100.0, 0.6)
    phase = loadgen.run_open_loop(front, list(range(offsets.size)), offsets, 0.6)
    front.close()
    assert phase.sent == offsets.size and phase.failed == 0
    after = slice(21, 31)  # due within 0.1 s of the blocked call
    from_due = (phase.done[after] - phase.due[after]) * 1e3
    from_submit = (phase.done[after] - phase.submitted[after]) * 1e3
    assert from_due.min() > 100.0  # the stall shows in the following requests
    assert from_submit.max() < 100.0  # and would be hidden from submit time
    assert phase.lateness_ms()[after].min() > 100.0
    assert phase.lateness_ms()[:20].max() < 100.0
    assert np.allclose(phase.latency_ms(), (phase.done - phase.due) * 1e3)


def test_late_generator_is_flagged_invalid():
    front = FakeFront(block_at=5, block_s=0.3)
    offsets = uniform(100.0, 0.5)
    phase = loadgen.run_open_loop(front, list(range(offsets.size)), offsets, 0.5)
    front.close()
    # p99 lateness is near 300 ms: invalid against a 1 s limit (a tenth
    # is 100 ms), valid against a 10 s one.
    assert not loadgen.lateness_valid(phase, limit_ms=1000.0)
    assert loadgen.lateness_valid(phase, limit_ms=10000.0)


def test_refused_and_failed_requests_are_failed_operations():
    front = FakeFront(refuse={3}, fail={5, 6})
    offsets = uniform(200.0, 0.1)
    phase = loadgen.run_open_loop(front, list(range(offsets.size)), offsets, 0.1)
    front.close()
    assert phase.sent == 20
    assert phase.failed == 3 and phase.succeeded == 17
    assert isinstance(phase.errors[3], RuntimeError)
    assert isinstance(phase.errors[5], ValueError)
    assert phase.latency_ms().size == 17
    # A failed request misses any latency limit, however generous.
    assert phase.within(1e9) == 17 / 20


def test_window_keeps_the_stated_number_in_flight():
    front = FakeFront(service_s=0.0005)
    phase = loadgen.run_window(front, list(range(64)), window=8, duration=0.3)
    front.close()
    assert phase.failed == 0 and phase.sent > 8
    assert front.max_in_flight <= 8
    rates = loadgen.window_rates(phase.done, phase.duration)
    assert rates.size == loadgen.SUBWINDOWS and np.all(rates > 0)


def test_window_rates_and_arrival_schedule():
    done = np.array([0.1, 0.2, 0.3, 1.5, np.nan, 2.5])
    rates = loadgen.window_rates(done, duration=2.0, windows=2)
    # Two completions by 0.2 s, two more by 1.5 s; NaN and the one after
    # the phase ended count nowhere.
    assert np.allclose(rates, [2 / 0.2, 2 / 1.3])
    rng = np.random.default_rng(0)
    offsets = loadgen.poisson_offsets(rng, 1000.0, 1.0)
    assert 800 < offsets.size < 1200 and offsets.max() < 1.0
    assert np.all(np.diff(offsets) > 0)
    again = loadgen.poisson_offsets(np.random.default_rng(0), 1000.0, 1.0)
    assert np.array_equal(offsets, again)  # the seed fixes the schedule


def test_backlog_detection():
    due = np.linspace(0.0, 1.0, 200, endpoint=False)
    nothing = np.full(due.size, np.nan)

    def phase(latency_s):
        return loadgen.Phase(
            duration=1.0, due=due, submitted=due, done=due + latency_s,
            queue_ms=nothing, batch_ms=nothing,
        )

    assert not phase(np.full(due.size, 0.005)).backlog_growing()
    assert phase(0.005 + due * 0.5).backlog_growing()  # 5 ms -> 500 ms
