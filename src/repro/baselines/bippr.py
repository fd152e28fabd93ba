"""BiPPR (Lofgren, Banerjee, Goel — WSDM 2016): bidirectional pair-PPR.

BiPPR estimates a *single pair* score ``π_s(t)`` by combining backward
push at the target with Monte-Carlo walks at the source:

.. math::

    \\hat{\\pi}_s(t) \\;=\\; p_t(s)
        + \\frac{1}{W} \\sum_{w=1}^{W} r_t(V_w),

where ``(p_t, r_t)`` is the backward-push pair with residual threshold
``rmax`` and ``V_w`` is the stop node of the ``w``-th walk.  With
``W ≥ c_{bi} · rmax / δ`` walks the estimate is within relative error
``ε`` of any ``π_s(t) ≥ δ`` with high probability.

The paper lists BiPPR in related work (Section V) and compares against
its successor HubPPR ("the most recent study with the best performance
among bi-directional methods"); BiPPR is included here both as the
building block HubPPR indexes and as an extra baseline for pair queries.
Unlike the other classes it exposes a *pair* API (:meth:`query_pair`)
alongside the whole-vector adapter required by :class:`PPRMethod`.

The hot loop of both APIs is :func:`~repro.baselines.backward_push.
backward_push` (one run per target in the whole-vector adapter) — BiPPR
needs no queue loop of its own.
"""

from __future__ import annotations

import math

import numpy as np

from repro.baselines.backward_push import backward_push
from repro.baselines.montecarlo import sample_walk_endpoints
from repro.exceptions import ParameterError
from repro.graph.graph import Graph
from repro.method import PPRMethod

__all__ = ["BiPPR"]


class BiPPR(PPRMethod):
    """Bidirectional pair-PPR estimator.

    Parameters
    ----------
    epsilon:
        Target relative error for scores above ``delta``.
    delta:
        Significance threshold; ``None`` defers to ``1/n``.
    backward_rmax:
        Backward-push residual threshold (the time/accuracy dial: smaller
        means more push work and fewer walks).
    max_walks:
        Cap on Monte-Carlo walks per query.
    c:
        Restart probability.
    seed:
        RNG seed for the walk sampler.
    """

    name = "BiPPR"

    def __init__(
        self,
        epsilon: float = 0.5,
        delta: float | None = None,
        backward_rmax: float = 1e-3,
        max_walks: int = 200_000,
        c: float = 0.15,
        seed: int = 0,
    ):
        super().__init__()
        if epsilon <= 0:
            raise ParameterError("epsilon must be positive")
        if backward_rmax <= 0:
            raise ParameterError("backward_rmax must be positive")
        if not 0.0 < c < 1.0:
            raise ParameterError("restart probability c must be in (0, 1)")
        self.epsilon = float(epsilon)
        self.delta = delta
        self.backward_rmax = float(backward_rmax)
        self.max_walks = int(max_walks)
        self.c = float(c)
        self.seed = int(seed)
        self._rng = np.random.default_rng(seed)
        self._num_walks = 0

    def _preprocess(self, graph: Graph) -> None:
        n = graph.num_nodes
        delta = self.delta if self.delta is not None else 1.0 / n
        # Walks needed: (2e/ε²) · rmax/δ · ln(2/p_f) with p_f = 1/n.
        theory = (
            (2.0 * math.e / self.epsilon**2)
            * (self.backward_rmax / delta)
            * math.log(2.0 * n)
        )
        self._num_walks = int(min(theory, self.max_walks))

    def preprocessed_bytes(self) -> int:
        return 0  # plain BiPPR keeps no index (that is HubPPR's addition)

    # -- pair API ---------------------------------------------------------------

    def query_pair(self, source: int, target: int) -> float:
        """Estimate the single score ``π_source(target)``."""
        graph = self.graph
        for node, label in ((source, "source"), (target, "target")):
            if not 0 <= node < graph.num_nodes:
                raise ParameterError(f"{label} {node} out of range")
        push = backward_push(graph, target, rmax=self.backward_rmax, c=self.c)
        starts = np.full(self._num_walks, source, dtype=np.int64)
        stops = sample_walk_endpoints(graph, starts, c=self.c, rng=self._rng)
        walk_term = float(push.residual[stops].mean()) if stops.size else 0.0
        return float(push.estimate[source]) + walk_term

    # -- whole-vector adapter ------------------------------------------------------

    def _query(self, seed: int) -> np.ndarray:
        """Whole-vector estimate: one walk batch shared across targets,
        per-target backward pushes for the walk-mass refinement.

        This is exactly the expensive pattern the paper describes for
        bidirectional methods used as whole-vector solvers; kept simple
        here (no hub index) and practical only on small graphs.
        """
        graph = self.graph
        starts = np.full(self._num_walks, seed, dtype=np.int64)
        stops = sample_walk_endpoints(graph, starts, c=self.c, rng=self._rng)
        pi_hat = np.bincount(stops, minlength=graph.num_nodes).astype(np.float64)
        pi_hat /= max(stops.size, 1)

        scores = np.empty(graph.num_nodes)
        for target in range(graph.num_nodes):
            push = backward_push(
                graph, target, rmax=self.backward_rmax, c=self.c
            )
            residual_nodes = np.flatnonzero(push.residual)
            scores[target] = push.estimate[seed] + float(
                push.residual[residual_nodes] @ pi_hat[residual_nodes]
            )
        return scores
