"""Hardware fingerprinting for the autotuner.

A :class:`MachineFingerprint` captures everything that makes a tuned
profile transferable — or not: CPU model, logical core count, the CPU
set this process may actually run on (``sched_getaffinity``), NUMA
topology, any cgroup CPU quota (containers routinely grant 1.5 cores of
a 64-core host), the kernel backend and compute dtype, and the versions
of the numeric libraries installed beside the kernels.  Profiles are
cached on disk keyed by :meth:`MachineFingerprint.key`, so a profile
tuned inside a quota-limited container never configures a bare-metal
run and a library upgrade invalidates every stale profile.

The same fingerprint is stamped into every benchmark-ladder result
(``env.machine``), and ``benchmarks/compare.py`` compares only runs
whose fingerprints match, so single-core numbers are never held against
multi-core ones.

Everything here degrades gracefully: missing ``/proc``, ``/sys`` or
cgroup files simply leave fields ``None`` (macOS, restricted sandboxes).
"""

from __future__ import annotations

import hashlib
import importlib.metadata
import json
import os
import platform
from dataclasses import dataclass, field

import numpy as np


def _read_text(path: str) -> str | None:
    try:
        with open(path, "r", encoding="ascii") as handle:
            return handle.read()
    except OSError:
        return None


def _cpu_model(proc_cpuinfo: str = "/proc/cpuinfo") -> str | None:
    """The first ``model name`` line of ``/proc/cpuinfo`` (Linux)."""
    text = _read_text(proc_cpuinfo)
    if text is None:
        return platform.processor() or None
    for line in text.splitlines():
        if line.lower().startswith("model name"):
            _, _, value = line.partition(":")
            return value.strip() or None
    return platform.processor() or None


def parse_cpulist(text: str) -> tuple[int, ...]:
    """Parse the kernel's cpulist format (``"0-3,8-11"``) into cpu ids."""
    cpus: list[int] = []
    for chunk in text.strip().split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        start, dash, end = chunk.partition("-")
        if dash:
            cpus.extend(range(int(start), int(end) + 1))
        else:
            cpus.append(int(chunk))
    return tuple(sorted(set(cpus)))


def numa_nodes(
    sysfs: str = "/sys/devices/system/node",
) -> dict[int, tuple[int, ...]]:
    """NUMA node id -> cpu ids, from sysfs.  Empty when unavailable."""
    nodes: dict[int, tuple[int, ...]] = {}
    try:
        entries = sorted(os.listdir(sysfs))
    except OSError:
        return nodes
    for entry in entries:
        if not entry.startswith("node") or not entry[4:].isdigit():
            continue
        text = _read_text(os.path.join(sysfs, entry, "cpulist"))
        if text is None:
            continue
        cpus = parse_cpulist(text)
        if cpus:
            nodes[int(entry[4:])] = cpus
    return nodes


def cgroup_cpu_quota(cgroup_root: str = "/sys/fs/cgroup") -> float | None:
    """Effective CPU quota in cores from cgroup v2 or v1, else ``None``.

    cgroup v2 exposes ``cpu.max`` (``"<quota> <period>"`` or ``"max
    <period>"``); v1 exposes ``cpu/cpu.cfs_quota_us`` / ``cfs_period_us``
    with ``-1`` meaning unlimited.  Unlimited quotas return ``None`` —
    only an actual restriction is worth recording.
    """
    text = _read_text(os.path.join(cgroup_root, "cpu.max"))
    if text is not None:
        quota_str, _, period_str = text.strip().partition(" ")
        if quota_str != "max":
            try:
                quota, period = float(quota_str), float(period_str)
            except ValueError:
                return None
            if quota > 0 and period > 0:
                return quota / period
        return None
    quota_text = _read_text(os.path.join(cgroup_root, "cpu", "cpu.cfs_quota_us"))
    period_text = _read_text(
        os.path.join(cgroup_root, "cpu", "cpu.cfs_period_us")
    )
    if quota_text is None or period_text is None:
        return None
    try:
        quota, period = float(quota_text), float(period_text)
    except ValueError:
        return None
    if quota > 0 and period > 0:
        return quota / period
    return None


def affinity_cpus() -> tuple[int, ...]:
    """CPU ids this process may run on (all cpus where unsupported)."""
    getter = getattr(os, "sched_getaffinity", None)
    if getter is None:
        return tuple(range(os.cpu_count() or 1))
    try:
        return tuple(sorted(getter(0)))
    except OSError:  # pragma: no cover - exotic kernels
        return tuple(range(os.cpu_count() or 1))


def _numba_version() -> str | None:
    """Installed Numba's version, or ``None``.

    No kernel uses Numba; the field stays so fingerprints, profile keys
    and benchmark-ladder ``env.machine`` records keep their shape and
    still tell an environment with Numba from one without.
    """
    try:
        return importlib.metadata.version("numba")
    except importlib.metadata.PackageNotFoundError:
        return None


@dataclass(frozen=True)
class MachineFingerprint:
    """Identity of (machine, numeric configuration) a profile is valid for."""

    cpu_model: str | None
    cpu_count: int
    affinity: tuple[int, ...]
    numa: dict[int, tuple[int, ...]] = field(default_factory=dict)
    cgroup_quota: float | None = None
    backend: str = "numpy"
    dtype: str = "float64"
    numba_version: str | None = None
    numpy_version: str = ""

    def effective_cpus(self) -> int:
        """Cores genuinely available: affinity mask capped by cgroup quota."""
        cores = len(self.affinity) or 1
        if self.cgroup_quota is not None:
            cores = min(cores, max(1, int(self.cgroup_quota)))
        return cores

    def to_dict(self) -> dict:
        return {
            "cpu_model": self.cpu_model,
            "cpu_count": self.cpu_count,
            "affinity": list(self.affinity),
            "numa": {str(k): list(v) for k, v in sorted(self.numa.items())},
            "cgroup_quota": self.cgroup_quota,
            "backend": self.backend,
            "dtype": self.dtype,
            "numba_version": self.numba_version,
            "numpy_version": self.numpy_version,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "MachineFingerprint":
        return cls(
            cpu_model=payload.get("cpu_model"),
            cpu_count=int(payload.get("cpu_count", 1)),
            affinity=tuple(int(c) for c in payload.get("affinity", ())),
            numa={
                int(k): tuple(int(c) for c in v)
                for k, v in payload.get("numa", {}).items()
            },
            cgroup_quota=payload.get("cgroup_quota"),
            backend=str(payload.get("backend", "numpy")),
            dtype=str(payload.get("dtype", "float64")),
            numba_version=payload.get("numba_version"),
            numpy_version=str(payload.get("numpy_version", "")),
        )

    def key(self) -> str:
        """Short stable digest naming the profile cache file.

        Hashes every field: a backend flip, an affinity change, a new
        quota, or a library upgrade each produce a different key, which
        is exactly the invalidation policy — stale profiles are never
        *read*, they are simply never found.
        """
        blob = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def machine_fingerprint(
    backend: str | None = None, dtype: str | None = None
) -> MachineFingerprint:
    """Fingerprint the current process's machine and kernel configuration."""
    from repro import kernels

    return MachineFingerprint(
        cpu_model=_cpu_model(),
        cpu_count=os.cpu_count() or 1,
        affinity=affinity_cpus(),
        numa=numa_nodes(),
        cgroup_quota=cgroup_cpu_quota(),
        backend=backend if backend is not None else kernels.get_backend(),
        dtype=(
            dtype
            if dtype is not None
            else np.dtype(kernels.compute_dtype()).name
        ),
        numba_version=_numba_version(),
        numpy_version=str(np.__version__),
    )
