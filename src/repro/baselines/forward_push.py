"""Forward Push (Andersen, Chung, Lang — FOCS 2006).

Local residual propagation: maintain an estimate vector ``p`` and a
residual vector ``r`` with the invariant

.. math::

    \\pi_s(t) \\;=\\; p(t) + \\sum_v r(v)\\, \\pi_v(t) \\quad \\forall t,

starting from ``r = e_s``.  A *push* on node ``v`` converts the fraction
``c`` of its residual into estimate and spreads the remaining ``1-c``
evenly over its out-neighbors.  Pushing until ``r(v) < rmax · dout(v)``
for all ``v`` guarantees per-node error below ``rmax`` in the
degree-normalized sense, at total cost ``O(1/(c · rmax))`` independent of
the graph size — the locality property FORA builds on.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.exceptions import ParameterError
from repro.graph.graph import Graph

__all__ = ["ForwardPushResult", "forward_push"]


@dataclass(frozen=True)
class ForwardPushResult:
    """Outcome of a forward-push run.

    Attributes
    ----------
    estimate:
        The settled score vector ``p`` (lower bound on the RWR scores).
    residual:
        The remaining residual vector ``r``; the invariant above relates
        it to the exact scores.
    pushes:
        Number of push operations performed.
    """

    estimate: np.ndarray
    residual: np.ndarray
    pushes: int


def forward_push(
    graph: Graph,
    seed: int,
    rmax: float,
    c: float = 0.15,
    degree_scaled: bool = True,
    max_pushes: int = 50_000_000,
) -> ForwardPushResult:
    """Run forward push from ``seed`` until all residuals fall below the
    threshold.

    Parameters
    ----------
    graph:
        Input graph.
    seed:
        Source node.
    rmax:
        Residual threshold.  With ``degree_scaled`` (FORA's convention) a
        node is pushed while ``r(v) > rmax * dout(v)``; otherwise while
        ``r(v) > rmax``.
    c:
        Restart probability.
    degree_scaled:
        Threshold convention (see above).
    max_pushes:
        Safety cap on push operations.

    Returns
    -------
    ForwardPushResult
    """
    if rmax <= 0:
        raise ParameterError("rmax must be positive")
    if not 0.0 < c < 1.0:
        raise ParameterError("restart probability c must be in (0, 1)")
    n = graph.num_nodes
    if not 0 <= seed < n:
        raise ParameterError(f"seed {seed} out of range")

    indptr = graph.adjacency.indptr
    indices = graph.adjacency.indices
    out_degree = (indptr[1:] - indptr[:-1]).astype(np.int64)

    estimate = np.zeros(n)
    residual = np.zeros(n)
    residual[seed] = 1.0

    threshold = rmax * np.maximum(out_degree, 1) if degree_scaled else np.full(n, rmax)

    queue: deque[int] = deque([seed])
    in_queue = np.zeros(n, dtype=bool)
    in_queue[seed] = True
    pushes = 0

    while queue:
        node = queue.popleft()
        in_queue[node] = False
        mass = residual[node]
        if mass <= threshold[node]:
            continue
        pushes += 1
        if pushes > max_pushes:
            raise ParameterError(
                f"forward_push exceeded {max_pushes} pushes; rmax={rmax} is "
                "too small for this graph"
            )
        estimate[node] += c * mass
        residual[node] = 0.0
        degree = out_degree[node]
        if degree == 0:
            # Dangling under 'uniform' policy: residual mass spreads so
            # thinly (1/n per node) that it falls below any practical
            # threshold; absorb it into the estimate at the node itself
            # to preserve total mass, matching the self-loop policy.
            estimate[node] += (1.0 - c) * mass
            continue
        share = (1.0 - c) * mass / degree
        targets = indices[indptr[node] : indptr[node + 1]]
        residual[targets] += share
        for target in targets[residual[targets] > threshold[targets]]:
            if not in_queue[target]:
                queue.append(int(target))
                in_queue[target] = True

    return ForwardPushResult(estimate=estimate, residual=residual, pushes=pushes)
