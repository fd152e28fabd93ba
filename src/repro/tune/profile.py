"""Tuned profiles: measurements → knob recommendations, cached on disk.

A :class:`TuneProfile` bundles a machine fingerprint, the raw probe
measurements, and the knobs derived from them.  Profiles round-trip
through a versioned JSON cache under ``~/.cache/repro/`` (respecting
``XDG_CACHE_HOME``; ``REPRO_TUNE_CACHE`` overrides the directory
outright, which tests use) named ``tune-<fingerprint-key>.json`` — the
fingerprint key hashes CPU model, topology, affinity, cgroup quota,
backend, dtype, and library versions, so invalidation is structural:
a changed machine simply never finds the old file.

Precedence contract (enforced by :meth:`TuneProfile.apply` and the
``tune=`` parameters on Engine / Server / Router)::

    explicit argument  >  environment variable  >  tuned profile  >  static default

``apply()`` therefore skips the global knob when its environment
override is set: ``REPRO_KERNEL_THREADS`` beats the tuned thread count.
Constructor sites skip the profile whenever the caller passed an
explicit value.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, replace
from pathlib import Path

from repro.exceptions import ParameterError
from repro.tune.fingerprint import MachineFingerprint, machine_fingerprint

__all__ = [
    "PROFILE_SCHEMA",
    "TuneProfile",
    "cache_dir",
    "cache_path",
    "load_cached",
    "derive_profile",
    "autotune",
]

PROFILE_SCHEMA = "repro-tune-profile/1"

#: Scheduler-knob clamps: a tuned micro-batch must stay inside the range
#: the Scheduler's own validation (and sane latency) accepts.
_MIN_BATCH, _MAX_BATCH = 8, 1024
_MIN_WAIT_MS, _MAX_WAIT_MS = 0.5, 8.0


def cache_dir() -> Path:
    """Directory tuned profiles are cached in (created on first save)."""
    override = os.environ.get("REPRO_TUNE_CACHE", "").strip()
    if override:
        return Path(override)
    xdg = os.environ.get("XDG_CACHE_HOME", "").strip()
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro"


def cache_path(fingerprint: MachineFingerprint) -> Path:
    """The cache file a profile for ``fingerprint`` lives at."""
    return cache_dir() / f"tune-{fingerprint.key()}.json"


@dataclass(frozen=True)
class TuneProfile:
    """Fingerprint + measurements + the knobs derived from them."""

    fingerprint: MachineFingerprint
    measurements: dict
    stream_block: int
    kernel_threads: int | None
    workers: int
    shards: int
    max_batch: int
    max_wait_ms: float
    probe_seconds: float
    created_at: str = ""

    def to_dict(self) -> dict:
        return {
            "schema": PROFILE_SCHEMA,
            "fingerprint": self.fingerprint.to_dict(),
            "fingerprint_key": self.fingerprint.key(),
            "measurements": self.measurements,
            "stream_block": int(self.stream_block),
            "kernel_threads": (
                None if self.kernel_threads is None else int(self.kernel_threads)
            ),
            "workers": int(self.workers),
            "shards": int(self.shards),
            "max_batch": int(self.max_batch),
            "max_wait_ms": float(self.max_wait_ms),
            "probe_seconds": float(self.probe_seconds),
            "created_at": self.created_at,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "TuneProfile":
        schema = payload.get("schema")
        if schema != PROFILE_SCHEMA:
            raise ParameterError(
                f"unsupported tune-profile schema {schema!r}; "
                f"expected {PROFILE_SCHEMA!r}"
            )
        kernel_threads = payload.get("kernel_threads")
        return cls(
            fingerprint=MachineFingerprint.from_dict(
                payload.get("fingerprint", {})
            ),
            measurements=dict(payload.get("measurements", {})),
            stream_block=int(payload["stream_block"]),
            kernel_threads=(
                None if kernel_threads is None else int(kernel_threads)
            ),
            workers=int(payload["workers"]),
            shards=int(payload["shards"]),
            max_batch=int(payload["max_batch"]),
            max_wait_ms=float(payload["max_wait_ms"]),
            probe_seconds=float(payload.get("probe_seconds", 0.0)),
            created_at=str(payload.get("created_at", "")),
        )

    def save(self, path: str | Path | None = None) -> Path:
        """Write the profile as JSON; defaults to its cache location."""
        target = Path(path) if path is not None else cache_path(self.fingerprint)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(json.dumps(self.to_dict(), indent=2) + "\n")
        return target

    @classmethod
    def load(cls, path: str | Path) -> "TuneProfile":
        return cls.from_dict(json.loads(Path(path).read_text()))

    def apply(self) -> dict[str, object]:
        """Apply the profile's *global* knobs; returns what happened.

        Sets the kernel thread count — the one knob with process-global
        state — honoring the precedence contract: a set
        ``REPRO_KERNEL_THREADS`` wins over the profile and the knob is
        reported ``"env-override"`` instead of applied.  Per-instance
        knobs (``stream_block``, worker/shard counts, scheduler limits)
        are resolved at the constructors that accept ``tune=``;
        ``apply()`` deliberately does not touch them.
        """
        from repro import kernels

        applied: dict[str, object] = {}
        if os.environ.get("REPRO_KERNEL_THREADS", "").strip():
            applied["kernel_threads"] = "env-override"
        elif self.kernel_threads is not None:
            kernels.set_num_threads(self.kernel_threads)
            applied["kernel_threads"] = self.kernel_threads
        else:
            applied["kernel_threads"] = None
        return applied

    def matches(self, fingerprint: MachineFingerprint) -> bool:
        """Whether this profile was measured under ``fingerprint``."""
        return self.fingerprint.key() == fingerprint.key()


def _argmin(table: dict) -> int | None:
    """Key of the smallest value; ties break toward the smaller key."""
    if not table:
        return None
    return int(min(table.items(), key=lambda kv: (kv[1], int(kv[0])))[0])


def derive_profile(
    fingerprint: MachineFingerprint,
    measurements: dict,
    probe_seconds: float,
    created_at: str = "",
) -> TuneProfile:
    """Turn raw probe measurements into a :class:`TuneProfile`.

    Measured knobs (``stream_block``, ``kernel_threads``) take the
    fastest grid cell — ``stream_block`` by *per-column* time, since a
    wider product always costs more in total but may amortize better.
    Placement knobs (``workers``, ``shards``) come from the
    fingerprint: one shard per NUMA node when there are several,
    otherwise up to four shards over the effective cores, and the
    remaining cores become each shard's kernel threads.
    """
    blocks = {int(k): float(v) for k, v in measurements.get(
        "spmm_block_seconds", {}).items()}
    threads = {int(k): float(v) for k, v in measurements.get(
        "spmm_thread_seconds", {}).items()}

    per_column = {w: s / w for w, s in blocks.items()}
    stream_block = _argmin(per_column) or 128
    kernel_threads = _argmin(threads)

    cores = fingerprint.effective_cpus()
    numa_count = len(fingerprint.numa)
    if numa_count > 1:
        shards = min(numa_count, cores)
    else:
        shards = max(1, min(4, cores))
    workers = max(1, min(4, cores))
    if kernel_threads is not None:
        # One shard process per core group; its kernels use the rest.
        kernel_threads = max(1, min(kernel_threads, cores // shards or 1))

    max_batch = max(_MIN_BATCH, min(_MAX_BATCH, int(stream_block)))
    block_seconds = blocks.get(int(stream_block))
    if block_seconds is None:
        max_wait_ms = 2.0
    else:
        # Coalescing longer than one block product buys nothing.
        max_wait_ms = min(
            _MAX_WAIT_MS, max(_MIN_WAIT_MS, block_seconds * 1e3)
        )

    return TuneProfile(
        fingerprint=fingerprint,
        measurements=dict(measurements),
        stream_block=int(stream_block),
        kernel_threads=kernel_threads,
        workers=int(workers),
        shards=int(shards),
        max_batch=int(max_batch),
        max_wait_ms=float(round(max_wait_ms, 3)),
        probe_seconds=float(probe_seconds),
        created_at=created_at,
    )


def load_cached(
    fingerprint: MachineFingerprint | None = None,
) -> TuneProfile | None:
    """The cached profile for this machine, or ``None``.

    ``None`` covers every miss mode the same way: no cache file, a
    corrupt file, an old schema version, or a profile whose fingerprint
    no longer matches (the key is in the filename *and* re-checked in
    the payload, so a renamed file cannot smuggle stale knobs in).
    """
    if fingerprint is None:
        fingerprint = machine_fingerprint()
    path = cache_path(fingerprint)
    try:
        profile = TuneProfile.load(path)
    except (OSError, ValueError, KeyError, ParameterError):
        return None
    if not profile.matches(fingerprint):
        return None
    return profile


def autotune(
    graph=None,
    *,
    force: bool = False,
    save: bool = True,
    **probe_kwargs,
) -> TuneProfile:
    """The tuned profile for this machine: cached if available, else
    freshly measured (and saved unless ``save=False``).

    ``force=True`` re-measures even when a cached profile exists.  Extra
    keyword arguments go to
    :func:`repro.tune.probe.probe_measurements` (grid and graph-size
    controls).
    """
    from datetime import datetime, timezone

    from repro.tune.probe import probe_measurements

    fingerprint = machine_fingerprint()
    if not force:
        cached = load_cached(fingerprint)
        if cached is not None:
            return cached
    begin = time.perf_counter()
    measurements = probe_measurements(
        graph, fingerprint=fingerprint, **probe_kwargs
    )
    probe_seconds = time.perf_counter() - begin
    profile = derive_profile(
        fingerprint,
        measurements,
        probe_seconds,
        created_at=datetime.now(timezone.utc).isoformat(timespec="seconds"),
    )
    if save:
        profile.save()
    return profile


def _replace(profile: TuneProfile, **fields) -> TuneProfile:
    """Dataclass ``replace`` re-exported for tests building variants."""
    return replace(profile, **fields)
