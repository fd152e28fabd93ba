"""The sharded Engine replica.

:func:`shard_engine` is the implementation behind
:meth:`repro.engine.Engine.shard`: like
:meth:`~repro.engine.Engine.replicate` it produces an Engine that shares
every read-only piece of the source (preprocessed arrays, graph, score
cache) while owning its own scratch — but instead of
serving on the calling thread, its method is re-bound to a
:class:`~repro.sharding.ShardedOperator`, so every iterate sweep of the
online phase fans out across shard worker processes.

The replica is a :class:`ShardedEngine`: a plain
:class:`~repro.engine.Engine` in every observable way (``batch`` /
``serve`` / ``stats`` behave identically, results are bitwise identical
to the source engine's), plus the lifecycle the worker pool needs
(:meth:`ShardedEngine.close`, context management, :attr:`shards`).
"""

from __future__ import annotations

import threading

from repro import kernels
from repro.engine import Engine
from repro.exceptions import ParameterError
from repro.sharding.operator import ShardedOperator
from repro.sharding.plan import ShardPlan
from repro.sharding.store import DEFAULT_PANEL_COLS
from repro.sharding.worker import DEFAULT_STEP_TIMEOUT

__all__ = ["ShardedEngine", "shard_engine"]


class ShardedEngine(Engine):
    """An Engine replica whose online phase runs across shard workers.

    Never constructed directly — call :meth:`repro.engine.Engine.shard`.
    Close it (or use it as a context manager) when serving ends: that
    stops the worker processes and unlinks the shared-memory segments.
    """

    _shards: ShardedOperator

    @property
    def shards(self) -> ShardedOperator:
        """The distributed operator (plan, workers, shared store)."""
        return self._shards

    def stats(self) -> dict:
        """Engine counters plus the shard deployment's
        (:meth:`ShardedOperator.shard_stats`) under ``"shards"``."""
        merged = super().stats()
        merged["shards"] = self._shards.shard_stats()
        return merged

    def close(self) -> None:
        """Stop the shard workers and release shared memory (idempotent)."""
        self._shards.close()
        Engine.close(self)

    @property
    def closed(self) -> bool:
        return self._shards.closed

    def __enter__(self) -> "ShardedEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardedEngine(method={self._method.name}, "
            f"n={self.graph.num_nodes}, shards={self._shards.num_shards}, "
            f"closed={self.closed})"
        )


def shard_engine(
    engine: Engine,
    num_shards: int | None = None,
    plan: ShardPlan | None = None,
    panel_cols: int = DEFAULT_PANEL_COLS,
    start_method: str | None = None,
    step_timeout: float = DEFAULT_STEP_TIMEOUT,
    warm: bool = True,
    pin: bool = False,
    supervise: bool = True,
    heartbeat_ms: float | None = None,
) -> ShardedEngine:
    """Build the sharded replica of ``engine`` (see ``Engine.shard``)."""
    if num_shards is not None and num_shards < 1:
        raise ParameterError("num_shards must be at least 1")
    if plan is None:
        plan = ShardPlan.uniform(
            engine.graph.num_nodes, 2 if num_shards is None else num_shards
        )
    elif num_shards is not None and plan.num_shards != num_shards:
        # An explicit plan fixes the worker count; a contradicting
        # num_shards is almost certainly a bug.
        raise ParameterError(
            f"plan has {plan.num_shards} shards but num_shards="
            f"{num_shards} was requested"
        )
    operator = ShardedOperator(
        engine.graph,
        plan,
        panel_cols=panel_cols,
        start_method=start_method,
        step_timeout=step_timeout,
        warm=warm,
        pin=pin,
        supervise=supervise,
        heartbeat_ms=heartbeat_ms,
    )
    try:
        clone = object.__new__(ShardedEngine)
        clone._tune = getattr(engine, "_tune", None)
        clone._stream_block = engine._stream_block
        clone._memory_budget_bytes = engine._memory_budget_bytes
        clone._preprocess_seconds = 0.0
        clone._method = engine.method.replicate()
        # The re-binding that makes the replica sharded: the method's
        # online phase now sweeps through the distributed operator.
        clone._method._graph = operator
        # Ranking masks and epochs stay on the structural graph,
        # exactly as on the source engine.
        clone._graph = engine.graph
        clone._score_cache = engine.cache
        clone._warm_start = engine._warm_start
        clone._epoch_graph = engine._epoch_graph
        clone._synced_epoch_token = (
            clone._epoch_graph.epoch_token()
            if clone._epoch_graph is not None
            else None
        )
        clone._hits = 0
        clone._misses = 0
        clone._queries_served = 0
        clone._online_seconds = 0.0
        clone._workspace = kernels.Workspace()
        clone._lock = threading.RLock()
        clone._obs_name = f"engine-{id(clone):x}"
        clone._exporter = None
        clone._owns_exporter = False
        clone._shards = operator
        return clone
    except BaseException:  # pragma: no cover - construction safety
        operator.close()
        raise
