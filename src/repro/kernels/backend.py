"""Backend selection and compute-dtype policy for the sparse-kernel layer.

The kernel layer offers two implementations of the CSR primitives:

``"numba"``
    JIT-compiled, ``prange``-parallel kernels (:mod:`._numba_backend`).
    Auto-selected at import when Numba is installed.
``"numpy"``
    A pure NumPy/SciPy fallback (:mod:`._numpy_backend`) that is *bitwise
    identical* to ``csr_array @ x`` — the code path every hot loop used
    before the kernel layer existed.

Selection happens once at import (``REPRO_KERNEL=numba|numpy`` overrides
the auto-detection) and can be changed at runtime with :func:`set_backend`.
Detection uses ``importlib.util.find_spec`` so importing this module stays
cheap; the Numba module itself is only imported — and its kernels only
compiled — on first use.

The *compute dtype* policy lives here too: ``float64`` (default, exact) or
the opt-in ``float32`` (``REPRO_KERNEL_DTYPE=float32`` or
:func:`set_compute_dtype`).  See :mod:`repro.kernels` for the documented
error impact.
"""

from __future__ import annotations

import importlib
import importlib.util
import os
import warnings
from types import ModuleType

import numpy as np

from repro.exceptions import ParameterError
from repro.kernels import _numpy_backend

__all__ = [
    "available_backends",
    "get_backend",
    "set_backend",
    "numba_available",
    "compute_dtype",
    "set_compute_dtype",
    "cache_token",
    "shard_annotation",
    "set_shard_annotation",
    "num_threads",
    "set_num_threads",
    "kernel_threads",
]

_BACKEND_NAMES = ("numba", "numpy")

#: Detected once at import; tests monkeypatch this to simulate a missing
#: Numba installation (the forced-fallback path).
_NUMBA_INSTALLED = importlib.util.find_spec("numba") is not None

_DTYPES = {"float32": np.float32, "float64": np.float64}


def numba_available() -> bool:
    """Whether the Numba backend can be activated in this environment."""
    return _NUMBA_INSTALLED


def available_backends() -> tuple[str, ...]:
    """Backends usable in this environment, preferred first."""
    if _NUMBA_INSTALLED:
        return ("numba", "numpy")
    return ("numpy",)


def _auto_backend() -> str:
    return "numba" if _NUMBA_INSTALLED else "numpy"


def _resolve_env_backend() -> str:
    requested = os.environ.get("REPRO_KERNEL", "").strip().lower()
    if not requested or requested == "auto":
        return _auto_backend()
    if requested not in _BACKEND_NAMES:
        warnings.warn(
            f"REPRO_KERNEL={requested!r} is not one of {_BACKEND_NAMES}; "
            "falling back to auto-selection",
            stacklevel=2,
        )
        return _auto_backend()
    if requested == "numba" and not _NUMBA_INSTALLED:
        warnings.warn(
            "REPRO_KERNEL=numba requested but Numba is not importable; "
            "using the NumPy fallback",
            stacklevel=2,
        )
        return "numpy"
    return requested


_active_backend: str = _resolve_env_backend()


def _resolve_env_dtype() -> type:
    requested = os.environ.get("REPRO_KERNEL_DTYPE", "").strip().lower()
    if not requested:
        return np.float64
    if requested not in _DTYPES:
        warnings.warn(
            f"REPRO_KERNEL_DTYPE={requested!r} is not one of "
            f"{tuple(_DTYPES)}; keeping float64",
            stacklevel=2,
        )
        return np.float64
    return _DTYPES[requested]


_compute_dtype: type = _resolve_env_dtype()


def _resolve_env_threads() -> int | None:
    requested = os.environ.get("REPRO_KERNEL_THREADS", "").strip().lower()
    if not requested or requested == "auto":
        return None
    try:
        value = int(requested)
    except ValueError:
        value = 0
    if value < 1:
        warnings.warn(
            f"REPRO_KERNEL_THREADS={requested!r} is not a positive integer "
            "or 'auto'; using the backend default",
            stacklevel=2,
        )
        return None
    return value


#: Requested kernel thread count; ``None`` means backend default (Numba's
#: full launch pool; the cores this process may run on for NumPy).
#: Deliberately **not** part of :func:`cache_token`: the kernels are row
#: parallel with a fixed per-row accumulation order, so results are
#: bitwise identical across thread counts — the test suite asserts that
#: invariant rather than the token recording the count.
_kernel_threads: int | None = _resolve_env_threads()
_numpy_backend.set_num_threads(_kernel_threads)


def kernel_threads() -> int | None:
    """The configured thread-count policy (``None`` = backend default)."""
    return _kernel_threads


def num_threads() -> int:
    """Thread count the active backend may run one kernel call on.

    The NumPy backend reports the configured policy (default: the cores
    this process may run on) — the ceiling of its row stripes; a call
    uses fewer when its work is small or other callers hold cores
    (see :mod:`repro.kernels`).  The Numba backend reports its live pool
    size (the configured policy clamped to the pool Numba launched with
    — the pool cannot grow after import).
    """
    return int(_backend_module().num_threads)


def set_num_threads(count: int | None) -> int | None:
    """Set the kernel thread-count policy; returns the previous setting.

    ``count`` must be a positive integer, or ``None``/``"auto"`` to
    restore the backend default.  The policy caps the Numba backend's
    ``prange`` pool (applied immediately when Numba is active, or on
    first activation otherwise) and the NumPy backend's row stripes
    (``1`` runs every kernel serially on the calling thread and starts
    no kernel threads).  Thread count never changes results — see
    :data:`_kernel_threads` — so this setting is absent from
    :func:`cache_token` by design.
    """
    global _kernel_threads
    previous = _kernel_threads
    if count is None or count == "auto":
        _kernel_threads = None
    else:
        count = int(count)
        if count < 1:
            raise ParameterError(
                f"kernel thread count must be positive, got {count}"
            )
        _kernel_threads = count
    _numpy_backend.set_num_threads(_kernel_threads)
    if _numba_module is not None:
        _numba_module.set_num_threads(_kernel_threads)
    return previous


def get_backend() -> str:
    """Name of the active backend (``"numba"`` or ``"numpy"``)."""
    return _active_backend


def set_backend(name: str | None) -> str:
    """Select the kernel backend; returns the previously active name.

    ``name`` may be ``"numba"``, ``"numpy"``, or ``"auto"``/``None`` to
    re-run the import-time selection (``REPRO_KERNEL`` included, so a
    forced-fallback environment stays forced).  Requesting ``"numba"``
    when Numba is not importable raises
    :class:`~repro.exceptions.ParameterError` (unlike the env-var route,
    which warns and falls back — an explicit API call deserves a hard
    error).
    """
    global _active_backend
    previous = _active_backend
    if name is None or name == "auto":
        _active_backend = _resolve_env_backend()
        return previous
    if name not in _BACKEND_NAMES:
        raise ParameterError(
            f"unknown kernel backend {name!r}; choose from {_BACKEND_NAMES}"
        )
    if name == "numba" and not _NUMBA_INSTALLED:
        raise ParameterError(
            "the numba backend was requested but Numba is not installed; "
            "use the 'numpy' fallback or install numba"
        )
    _active_backend = name
    return previous


def compute_dtype() -> type:
    """The dtype iterate loops allocate and accumulate in
    (``numpy.float64`` unless the float32 policy was opted into)."""
    return _compute_dtype


def set_compute_dtype(dtype: str | type | np.dtype) -> type:
    """Set the compute dtype policy; returns the previous dtype.

    Accepts ``"float32"`` / ``"float64"`` or the NumPy dtypes themselves.
    ``float32`` halves iterate-buffer traffic at a documented accuracy
    cost (see the :mod:`repro.kernels` package docstring); callers that
    cache results keyed by numeric configuration must include
    :func:`cache_token` in their keys.
    """
    global _compute_dtype
    key = np.dtype(dtype).name
    if key not in _DTYPES:
        raise ParameterError(
            f"compute dtype must be float32 or float64, got {key!r}"
        )
    previous = _compute_dtype
    _compute_dtype = _DTYPES[key]
    return previous


#: Shard annotation of this process, or ``None`` outside shard workers.
_shard_annotation: str | None = None


def shard_annotation() -> str | None:
    """This process's shard annotation (``None`` in ordinary processes).

    :class:`repro.sharding.ShardWorker` processes stamp themselves with
    ``"<shard>/<num_shards>"`` at startup, so every kernel product — and
    every :func:`cache_token` — computed inside a worker names the row
    stripe it ran on.
    """
    return _shard_annotation


def set_shard_annotation(tag: str | None) -> str | None:
    """Set the process-wide shard annotation; returns the previous one.

    Sharded execution is bitwise identical to the single-process product
    by contract (row stripes change the schedule, not the per-row
    arithmetic), so the annotation records *how* results were produced
    rather than gating their reuse.
    """
    global _shard_annotation
    previous = _shard_annotation
    _shard_annotation = None if tag is None else str(tag)
    return previous


def cache_token(graph=None) -> str:
    """Opaque token identifying the numeric configuration of results.

    ``backend:shard:graph:dtype``.  Two runs with equal tokens compute
    with the same backend, sharding, *graph generation*, and dtype, so
    their score vectors are interchangeable; score caches (e.g. the
    :class:`~repro.engine.Engine` LRU) must key on this so a float32 run
    never serves cached float64 vectors (or vice versa).  The shard
    component (see :mod:`repro.sharding`) keeps caches honest about
    *how* results were produced even though sharded and plain products
    are bitwise identical by contract.

    ``graph`` optionally supplies the substrate results were computed
    on.  A static graph (or ``None``) contributes the constant
    ``graph-static`` component; a mutable substrate exposing
    ``epoch_token()`` (:class:`repro.dynamic.DynamicGraph`) contributes
    ``graph-<epoch_token>``, which changes on **every** mutation and
    compaction — so a mutated graph can never hit a pre-update cache
    entry.  While mutations are pending the epoch token carries an
    ``~overlay-1e-12`` suffix naming the documented overlay accuracy
    tier (:data:`repro.dynamic.OVERLAY_TOLERANCE`), the same way the
    dtype component already names the float32 tier.
    """
    shard = "shard-none" if _shard_annotation is None else (
        f"shard-{_shard_annotation}"
    )
    epoch = getattr(graph, "epoch_token", None)
    generation = "graph-static" if epoch is None else f"graph-{epoch()}"
    return (
        f"{_active_backend}:{shard}:{generation}:"
        f"{np.dtype(_compute_dtype).name}"
    )


_numba_module: ModuleType | None = None


def _backend_module() -> ModuleType:
    """The implementation module of the active backend (lazy import)."""
    global _numba_module
    if _active_backend == "numba":
        if _numba_module is None:
            _numba_module = importlib.import_module(
                "repro.kernels._numba_backend"
            )
            if _kernel_threads is not None:
                _numba_module.set_num_threads(_kernel_threads)
        return _numba_module
    return _numpy_backend
