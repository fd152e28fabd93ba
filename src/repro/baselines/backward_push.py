"""Backward (reverse) push — the local operator behind bidirectional PPR
methods (FAST-PPR, BiPPR, HubPPR).

For a fixed *target* ``t``, backward push maintains an estimate ``p`` and
residual ``r`` over potential sources with the invariant

.. math::

    \\pi_s(t) \\;=\\; p(s) + \\sum_v r(v)\\, \\pi_s(v) \\quad \\forall s,

starting from ``r = e_t``.  A push on ``v`` moves ``c·r(v)`` into ``p(v)``
and spreads ``(1-c)·r(v)/dout(u)`` to every *in*-neighbor ``u`` of ``v``.
Pushing until ``max_v r(v) ≤ rmax`` bounds the bias of the bidirectional
estimator by ``rmax`` (Lofgren et al., 2016).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.exceptions import ParameterError
from repro.graph.graph import Graph

__all__ = ["BackwardPushResult", "backward_push"]


@dataclass(frozen=True)
class BackwardPushResult:
    """Outcome of a backward-push run for one target node.

    Attributes
    ----------
    estimate:
        ``p`` — settled contribution such that
        ``π_s(t) ≈ p(s) + Σ_v r(v) π_s(v)``.
    residual:
        ``r`` — remaining residual, all entries ``≤ rmax`` on return.
    pushes:
        Number of push operations performed.
    """

    estimate: np.ndarray
    residual: np.ndarray
    pushes: int


def backward_push(
    graph: Graph,
    target: int,
    rmax: float,
    c: float = 0.15,
    max_pushes: int = 50_000_000,
) -> BackwardPushResult:
    """Run backward push for ``target`` until all residuals are ``≤ rmax``."""
    if rmax <= 0:
        raise ParameterError("rmax must be positive")
    if not 0.0 < c < 1.0:
        raise ParameterError("restart probability c must be in (0, 1)")
    n = graph.num_nodes
    if not 0 <= target < n:
        raise ParameterError(f"target {target} out of range")

    # In-neighbors with the correct 1/dout(u) weights are exactly the
    # rows of Ã^T: row v of transition_transpose lists (u, 1/dout(u)).
    trans_t = graph.transition_transpose
    indptr = trans_t.indptr
    indices = trans_t.indices
    weights = trans_t.data

    estimate = np.zeros(n)
    residual = np.zeros(n)
    residual[target] = 1.0

    queue: deque[int] = deque([target])
    in_queue = np.zeros(n, dtype=bool)
    in_queue[target] = True
    pushes = 0

    while queue:
        node = queue.popleft()
        in_queue[node] = False
        mass = residual[node]
        if mass <= rmax:
            continue
        pushes += 1
        if pushes > max_pushes:
            raise ParameterError(
                f"backward_push exceeded {max_pushes} pushes; rmax={rmax} "
                "is too small for this graph"
            )
        estimate[node] += c * mass
        residual[node] = 0.0
        start, end = indptr[node], indptr[node + 1]
        sources = indices[start:end]
        residual[sources] += (1.0 - c) * mass * weights[start:end]
        for source in sources[residual[sources] > rmax]:
            if not in_queue[source]:
                queue.append(int(source))
                in_queue[source] = True

    return BackwardPushResult(estimate=estimate, residual=residual, pushes=pushes)
