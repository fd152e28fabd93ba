"""Cross-process sampling profiler for the serving stack.

``repro.obs`` can already say *how long* a phase took; this module
answers *where the CPU went* below the phase level.  A lightweight
sampler thread wakes ``REPRO_PROFILE_HZ`` times a second, walks every
live thread's Python stack (:func:`sys._current_frames`), and folds
each into a semicolon-joined **collapsed stack** — the format
``flamegraph.pl`` and speedscope consume directly::

    pid:1234;MainThread;repro.serving.server:dispatch_batch;... 27

The same sampler runs inside every :class:`~repro.sharding.ShardWorker`
process (armed at startup exactly like ``REPRO_FAULTS``: the child
re-reads the environment, discards any state a fork carried over, and
starts its own sampler).  Worker samples ship back to the router on the
existing step-reply channel and are merged here, so one profile sees
the whole process tree — every stack's root frame names the PID it was
caught in.

Gating follows the ``REPRO_METRICS`` pattern: profiling is **off** by
default and the disabled path is a single module-bool check
(:func:`arm` returns immediately; no thread exists, no per-event cost
anywhere).  Enable with ``REPRO_PROFILE=1`` (inherited by worker
processes) or :func:`set_profiling`; write the merged profile with
:func:`collapsed` or :func:`profile_snapshot` and read it back with
``python -m repro obs profile PATH``.

The sampler sees Python frames.  Time spent inside a compiled kernel
(Numba, BLAS) is attributed to the ``repro.kernels`` call site holding
the frame — which is exactly the attribution the self-time table wants:
kernel cost lands on the kernel entry point, not smeared into
unknowable native frames.
"""

from __future__ import annotations

import os
import sys
import threading

__all__ = [
    "PROFILE_ENV_VAR",
    "PROFILE_HZ_ENV_VAR",
    "PROFILE_SCHEMA",
    "arm",
    "collapsed",
    "drain_local",
    "ingest",
    "profile_snapshot",
    "profiling_enabled",
    "reset",
    "reset_after_fork",
    "running",
    "sample_hz",
    "self_time",
    "set_profile_hz",
    "set_profiling",
    "stop",
]

PROFILE_ENV_VAR = "REPRO_PROFILE"
PROFILE_HZ_ENV_VAR = "REPRO_PROFILE_HZ"
PROFILE_SCHEMA = "repro-profile/1"

#: Default sampling rate.  A prime just under 100 Hz — the flamegraph
#: folklore choice: off any round scheduler period, so periodic work is
#: sampled fairly instead of strobed.
DEFAULT_HZ = 97.0
_MAX_HZ = 2000.0
_MAX_DEPTH = 64

_FALSY = {"", "0", "false", "off", "no"}


def _env_enabled() -> bool:
    raw = os.environ.get(PROFILE_ENV_VAR)
    if raw is None:
        return False
    return raw.strip().lower() not in _FALSY


def _env_hz() -> float:
    raw = os.environ.get(PROFILE_HZ_ENV_VAR)
    if raw:
        try:
            value = float(raw)
        except ValueError:
            return DEFAULT_HZ
        if value > 0:
            return min(value, _MAX_HZ)
    return DEFAULT_HZ


#: The gate.  Hot paths check this bare module bool (or ``running()``)
#: first — the same disabled-path contract ``REPRO_METRICS=0`` keeps.
_enabled = _env_enabled()

_hz_override: float | None = None

_state_lock = threading.Lock()
_active: "_Sampler | None" = None

#: Folded stacks accumulated in this process: stopped local sampler
#: epochs plus everything :func:`ingest` merged from worker replies.
_merged: dict[str, int] = {}
_merged_lock = threading.Lock()


def profiling_enabled() -> bool:
    """Whether the profiler is armed-or-armable (``REPRO_PROFILE``)."""
    return _enabled


def set_profiling(on: bool | None) -> None:
    """Force profiling on/off; ``None`` re-reads ``REPRO_PROFILE``.

    Turning it off stops a running sampler (its samples are kept)."""
    global _enabled
    _enabled = _env_enabled() if on is None else bool(on)
    if not _enabled:
        stop()


def sample_hz() -> float:
    """The effective sampling rate (override, else ``REPRO_PROFILE_HZ``)."""
    return _hz_override if _hz_override is not None else _env_hz()


def set_profile_hz(hz: float | None) -> None:
    """Override the sampling rate; ``None`` re-reads the environment.
    Takes effect at the next :func:`arm`."""
    global _hz_override
    if hz is None:
        _hz_override = None
    else:
        hz = float(hz)
        if hz <= 0:
            raise ValueError("sampling rate must be positive")
        _hz_override = min(hz, _MAX_HZ)


class _Sampler(threading.Thread):
    """The sampling loop: one daemon thread folding every *other*
    thread's stack at a fixed rate."""

    def __init__(self, hz: float):
        super().__init__(name="repro-obs-profiler", daemon=True)
        self.hz = hz
        self._interval = 1.0 / hz
        self._halt = threading.Event()
        self._lock = threading.Lock()
        self._folded: dict[str, int] = {}

    def run(self) -> None:
        root = f"pid:{os.getpid()}"
        while not self._halt.wait(self._interval):
            try:
                frames = sys._current_frames()
            except Exception:  # pragma: no cover - interpreter teardown
                return
            folded = []
            for tid, frame in frames.items():
                if tid == self.ident:
                    continue
                parts = []
                depth = 0
                while frame is not None and depth < _MAX_DEPTH:
                    module = frame.f_globals.get("__name__", "?")
                    parts.append(f"{module}:{frame.f_code.co_name}")
                    frame = frame.f_back
                    depth += 1
                parts.append(root)
                parts.reverse()
                folded.append(";".join(parts))
            del frames
            with self._lock:
                for stack in folded:
                    self._folded[stack] = self._folded.get(stack, 0) + 1

    def halt(self) -> None:
        self._halt.set()
        self.join(timeout=5.0)

    def drain(self) -> dict[str, int]:
        with self._lock:
            folded, self._folded = self._folded, {}
        return folded

    def peek(self) -> dict[str, int]:
        with self._lock:
            return dict(self._folded)


def arm() -> bool:
    """Start the sampler in this process if profiling is enabled.

    Idempotent, and the disabled path is one module-bool check — every
    deployment constructor and worker entry point calls this
    unconditionally.  Returns whether a sampler is running afterwards.
    """
    if not _enabled:
        return False
    global _active
    with _state_lock:
        if _active is None or not _active.is_alive():
            _active = _Sampler(sample_hz())
            _active.start()
    return True


def running() -> bool:
    """Whether a sampler thread is live in this process."""
    return _active is not None


def stop() -> None:
    """Stop the sampler (if any), folding its samples into the merged
    profile.  Idempotent; :func:`profile_snapshot` still sees
    everything collected."""
    global _active
    with _state_lock:
        sampler, _active = _active, None
    if sampler is not None:
        sampler.halt()
        ingest(sampler.drain())


def drain_local() -> dict[str, int]:
    """Take (and clear) the running sampler's folded stacks.

    This is the worker-side shipping hook: each step reply carries the
    increment since the previous reply, so the router's merged profile
    converges on worker truth without a second channel.  Returns ``{}``
    when no sampler runs.
    """
    sampler = _active
    if sampler is None:
        return {}
    return sampler.drain()


def ingest(folded: dict[str, int]) -> None:
    """Merge a folded-stack increment (local epoch or a worker's
    shipped samples) into the process profile."""
    if not folded:
        return
    with _merged_lock:
        for stack, count in folded.items():
            try:
                count = int(count)
            except (TypeError, ValueError):
                continue
            if count > 0:
                _merged[stack] = _merged.get(stack, 0) + count


def folded_samples() -> dict[str, int]:
    """Everything collected so far: merged epochs plus a non-draining
    peek at the live sampler."""
    with _merged_lock:
        combined = dict(_merged)
    sampler = _active
    if sampler is not None:
        for stack, count in sampler.peek().items():
            combined[stack] = combined.get(stack, 0) + count
    return combined


def collapsed() -> str:
    """The profile in collapsed-stack format (``flamegraph.pl`` input):
    one ``stack count`` line per distinct stack, sorted by weight."""
    samples = folded_samples()
    lines = [
        f"{stack} {count}"
        for stack, count in sorted(
            samples.items(), key=lambda item: (-item[1], item[0])
        )
    ]
    return "\n".join(lines) + "\n" if lines else ""


def self_time(top: int | None = None) -> list[tuple[str, int]]:
    """Aggregated self-time: samples whose *leaf* frame is each symbol,
    heaviest first — kernel and phase entry points surface here."""
    totals: dict[str, int] = {}
    for stack, count in folded_samples().items():
        leaf = stack.rsplit(";", 1)[-1]
        totals[leaf] = totals.get(leaf, 0) + count
    ranked = sorted(totals.items(), key=lambda item: (-item[1], item[0]))
    return ranked if top is None else ranked[:top]


def pids() -> list[int]:
    """Distinct process ids the profile saw (root frame of each stack)."""
    seen: set[int] = set()
    for stack in folded_samples():
        root = stack.split(";", 1)[0]
        if root.startswith("pid:"):
            try:
                seen.add(int(root[4:]))
            except ValueError:
                continue
    return sorted(seen)


def profile_snapshot() -> dict:
    """The profile as a ``repro-profile/1`` JSON document."""
    samples = folded_samples()
    return {
        "schema": PROFILE_SCHEMA,
        "enabled": _enabled,
        "hz": sample_hz(),
        "pid": os.getpid(),
        "pids": pids(),
        "samples": sum(samples.values()),
        "stacks": samples,
        "self_time": [list(item) for item in self_time(25)],
    }


def reset() -> None:
    """Drop every collected sample (tests, fresh measurement runs)."""
    stop()
    with _merged_lock:
        _merged.clear()


def reset_after_fork() -> None:
    """Discard profiler state a forked child inherited.

    The parent's sampler *object* survives a fork but its thread does
    not, and the parent's samples are not this process's truth.  Worker
    entry points call this before :func:`arm`, mirroring
    ``faults.reset_fault_plan()``.
    """
    global _active, _enabled
    with _state_lock:
        _active = None
    with _merged_lock:
        _merged.clear()
    _enabled = _env_enabled()
