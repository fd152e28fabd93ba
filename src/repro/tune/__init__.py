"""Hardware autotuning and placement for the serving stack.

Every perf-critical knob in the repo used to be a static default:
``stream_block`` (Engine block width), ``max_batch``/``max_wait_ms``
(Scheduler), worker and shard counts, Numba thread count.  This package
measures the actual machine and picks them, in three layers:

1. **Measurement** — :func:`repro.tune.probe.probe_measurements` times
   the real kernels (``spmv``/``spmm``/``select_top_k_many``) on the
   live graph (or a scaled stand-in) across a small grid of block
   widths and thread counts.
2. **Decision** — :func:`autotune` wraps the probe in a versioned
   on-disk cache (``~/.cache/repro/tune-<machine-fingerprint>.json``)
   keyed on a hardware fingerprint; :class:`TuneProfile` holds the
   picked knobs, ``TuneProfile.apply()`` installs the process-global
   one, and ``Engine(tune=...)`` / ``Server(tune=...)`` /
   ``Router(tune=...)`` resolve the per-instance ones.  Precedence is
   always ``explicit arg > env var > tuned profile > static default``.
3. **Placement** — :mod:`repro.tune.pinning` pins shard worker
   processes and server worker threads to disjoint cores, NUMA-aware
   when ``/sys/devices/system/node`` exists, degrading to unpinned with
   a :class:`~repro.tune.pinning.PinningWarning` everywhere else.

None of it changes results: tuning and pinning pick schedules, and
every schedule is bitwise identical by the kernel layer's contract
(asserted across thread counts and pinned/unpinned runs in the suite).
"""

from __future__ import annotations

from repro.tune.fingerprint import (
    MachineFingerprint,
    machine_fingerprint,
)
from repro.tune.pinning import (
    PinningWarning,
    cpu_topology,
    first_touch,
    pin_current,
    plan_pinning,
)
from repro.tune.probe import probe_measurements
from repro.tune.profile import (
    PROFILE_SCHEMA,
    TuneProfile,
    autotune,
    cache_dir,
    cache_path,
    derive_profile,
    load_cached,
)

__all__ = [
    "MachineFingerprint",
    "machine_fingerprint",
    "PinningWarning",
    "cpu_topology",
    "plan_pinning",
    "pin_current",
    "first_touch",
    "probe_measurements",
    "PROFILE_SCHEMA",
    "TuneProfile",
    "autotune",
    "derive_profile",
    "cache_dir",
    "cache_path",
    "load_cached",
]
