"""Common interface for all RWR / personalized-PageRank methods.

Every method in the paper's evaluation — TPA itself and the six baselines —
follows the same two-phase protocol: an optional per-graph *preprocessing*
phase, then a per-seed *online* phase.  :class:`PPRMethod` captures that
protocol so the experiment harness can time, size, and score every method
uniformly (Figures 1, 7, 10).

The serving workload the paper motivates TPA with (Twitter-scale
"Who to Follow" — top-500 RWR for millions of users) is *many seeds against
one preprocessed graph*, so the protocol is batched: :meth:`PPRMethod.query_many`
answers a whole seed batch in one call, and methods whose online phase is a
power iteration override :meth:`PPRMethod._query_many` to push the entire
seed *matrix* through the iteration — one sparse matmul per step for the
whole batch instead of one Python-level query per seed.  The higher-level
request/result machinery lives in :mod:`repro.engine`.
"""

from __future__ import annotations

import copy
from abc import ABC, abstractmethod
from typing import Sequence

import numpy as np

from repro.exceptions import NotPreprocessedError, ParameterError
from repro.graph.graph import Graph
from repro.kernels import Workspace, select_top_k, select_top_k_many

__all__ = [
    "PPRMethod", "select_top_k", "banned_mask", "banned_mask_many", "validate_k",
]

#: Largest (B, n) exclusion-mask entry count drawn from the retained
#: workspace (64 Mi entries = 64 MB of bool).  Serving loops stay under
#: it (Engine blocks are stream_block wide), so they reuse one buffer;
#: a one-off huge direct top_k_many call allocates transiently instead
#: of pinning batch-proportional memory — and inflating
#: preprocessed_bytes — for the method's lifetime.
_RANK_MASK_RETAIN_LIMIT = 1 << 26


def validate_k(k: int | np.integer) -> int:
    """Normalize a top-``k`` result size to a plain ``int`` of at least 1.

    Every entry point that takes ``k`` checks it here.  Bools, floats and
    other non-integer types raise :class:`ParameterError` rather than
    being truncated (``k=2.5`` must not quietly return 2 results).
    """
    if isinstance(k, (bool, np.bool_)) or not isinstance(k, (int, np.integer)):
        raise ParameterError(f"k must be an integer, got {type(k).__name__}")
    if k < 1:
        raise ParameterError("k must be at least 1")
    return int(k)


def banned_mask(
    graph: Graph,
    seed: int,
    exclude_seed: bool,
    exclude_neighbors: bool,
    out: np.ndarray | None = None,
) -> np.ndarray | None:
    """Boolean mask of nodes excluded from a top-k ranking for ``seed``.

    Returns ``None`` when nothing is excluded (the common fast path).
    ``out`` optionally supplies a length-``n`` boolean buffer that is
    cleared and reused — serving loops pass a retained workspace buffer
    instead of allocating a fresh mask per request.
    """
    if not (exclude_seed or exclude_neighbors):
        return None
    n = graph.num_nodes
    if out is not None and out.shape == (n,) and out.dtype == np.bool_:
        banned = out
        banned[:] = False
    else:
        banned = np.zeros(n, dtype=bool)
    if exclude_seed:
        banned[seed] = True
    if exclude_neighbors and hasattr(graph, "out_neighbors"):
        neighbors = np.asarray(graph.out_neighbors(seed), dtype=np.int64)
        if neighbors.size:
            banned[neighbors] = True
    return banned


def banned_mask_many(
    graph: Graph,
    seeds: np.ndarray,
    exclude_seeds: bool,
    exclude_neighbors: bool,
    out: np.ndarray | None = None,
) -> np.ndarray | None:
    """Per-row exclusion masks for a seed batch: the ``(B, n)`` analog of
    :func:`banned_mask` (row ``j`` masks the ranking of ``seeds[j]``).

    Returns ``None`` when nothing is excluded.  Neighbor rows are filled
    with one vectorized CSR gather when the graph exposes its adjacency;
    duck-typed substrates fall back to per-row ``out_neighbors`` calls.
    ``out`` has the same reuse contract as in :func:`banned_mask`.
    """
    if not (exclude_seeds or exclude_neighbors):
        return None
    n = graph.num_nodes
    batch = seeds.size
    if out is not None and out.shape == (batch, n) and out.dtype == np.bool_:
        banned = out
        banned[:] = False
    else:
        banned = np.zeros((batch, n), dtype=bool)
    if exclude_seeds:
        banned[np.arange(batch), seeds] = True
    if exclude_neighbors:
        adjacency = getattr(graph, "adjacency", None)
        if adjacency is not None:
            indptr = adjacency.indptr
            lengths = (indptr[seeds + 1] - indptr[seeds]).astype(np.int64)
            total = int(lengths.sum())
            if total:
                starts = np.repeat(indptr[seeds].astype(np.int64), lengths)
                resets = np.repeat(np.cumsum(lengths) - lengths, lengths)
                positions = np.arange(total, dtype=np.int64) - resets + starts
                rows = np.repeat(np.arange(batch), lengths)
                banned[rows, adjacency.indices[positions]] = True
        elif hasattr(graph, "out_neighbors"):
            for row, seed in enumerate(seeds.tolist()):
                neighbors = np.asarray(
                    graph.out_neighbors(seed), dtype=np.int64
                )
                if neighbors.size:
                    banned[row, neighbors] = True
    return banned


class PPRMethod(ABC):
    """Abstract base class for single-source RWR estimators.

    Subclasses set :attr:`name` and implement :meth:`_preprocess`,
    :meth:`_query`, and :meth:`preprocessed_bytes`.  Methods whose online
    phase vectorizes over seeds additionally override :meth:`_query_many`.

    The public wrappers enforce the protocol: :meth:`query` and
    :meth:`query_many` raise
    :class:`~repro.exceptions.NotPreprocessedError` if the method has not
    been bound to a graph, and validate every seed's type and range in one
    place (:meth:`validate_seed` / :meth:`validate_seeds`).
    """

    #: Human-readable method name used in reports (e.g. ``"TPA"``).
    name: str = "abstract"

    #: Whether the online phase accepts ``x0=`` fixed-point guesses
    #: (see :meth:`query_many`).  Methods whose online phase iterates to
    #: a convergence tolerance (CPI) opt in; truncated-series methods
    #: (TPA's fixed-length family sweep) cannot — their warm restart
    #: lives in re-preprocessing instead.
    supports_warm_start: bool = False

    def __init__(self) -> None:
        self._graph: Graph | None = None
        # Retained scratch shared by the online phase: iterate ping-pong
        # buffers (CPI/TPA), seed matrices (NB_LIN), and the ranking
        # masks of the top-k paths all draw from it, so repeat queries at
        # a stable batch shape allocate nothing.  Subclasses count it in
        # preprocessed_bytes — retained buffers are resident serving
        # state.
        self._workspace = Workspace()

    # -- public protocol -------------------------------------------------------

    @property
    def graph(self) -> Graph:
        """The graph this method was preprocessed for."""
        if self._graph is None:
            raise NotPreprocessedError(
                f"{self.name}: preprocess() must run before the online phase"
            )
        return self._graph

    @property
    def is_preprocessed(self) -> bool:
        """Whether :meth:`preprocess` has completed."""
        return self._graph is not None

    def preprocess(self, graph: Graph) -> None:
        """Run the per-graph preprocessing phase.

        Methods without a preprocessing phase (e.g. BRPPR) still bind the
        graph here so the online phase can run.
        """
        self._graph = graph
        self._preprocess(graph)

    def replicate(self) -> "PPRMethod":
        """An online-phase replica for concurrent serving.

        The replica shares every read-only attribute with the original —
        the graph and the (potentially huge) preprocessed arrays are
        *not* copied — but owns fresh :class:`~repro.kernels.Workspace`
        scratch, because retained iterate buffers are exactly the state
        two threads must never share mid-query.  Every
        ``Workspace``-typed instance attribute is replaced, and every
        :class:`numpy.random.Generator` attribute is spawned into an
        independent child stream (Monte-Carlo baselines mutate their RNG
        per query), so subclasses that keep such state are covered
        without overriding; a subclass with *other* per-query mutable
        state must override and reset it too.

        This is the unit :class:`repro.serving.Server` hands each worker
        thread (via :meth:`repro.engine.Engine.replicate`).
        """
        if not self.is_preprocessed:
            raise NotPreprocessedError(
                f"{self.name}: preprocess() must run before replicate()"
            )
        clone = copy.copy(self)
        for name, value in vars(self).items():
            if isinstance(value, Workspace):
                setattr(clone, name, Workspace())
            elif isinstance(value, np.random.Generator):
                setattr(clone, name, value.spawn(1)[0])
        # Replicas of one method form a family rooted at the original
        # instance — shared score caches key their bind identity on it.
        clone._replica_root = getattr(self, "_replica_root", self)
        return clone

    # -- seed validation (shared by every entry point) -------------------------

    def validate_seed(self, seed: int | np.integer) -> int:
        """Normalize one seed to a plain ``int`` and check its range.

        Accepts Python ints and any NumPy integer scalar; rejects bools,
        floats and other types with :class:`TypeError` (a truncated float
        seed is almost always a bug) and out-of-range ids with
        :class:`~repro.exceptions.ParameterError` (a ``ValueError``).
        """
        if isinstance(seed, (bool, np.bool_)) or not isinstance(
            seed, (int, np.integer)
        ):
            raise TypeError(
                f"seed must be an integer node id, got {type(seed).__name__}"
            )
        seed = int(seed)
        n = self.graph.num_nodes
        if not 0 <= seed < n:
            raise ParameterError(
                f"seed {seed} out of range for graph with {n} nodes"
            )
        return seed

    def validate_seeds(self, seeds: Sequence[int] | np.ndarray) -> np.ndarray:
        """Normalize a seed batch to a 1-D ``int64`` array, checked in bulk.

        The dtype rules of :meth:`validate_seed` apply to the whole batch;
        an empty batch is allowed and yields an empty array.
        """
        arr = np.asarray(seeds)
        if arr.ndim != 1:
            raise ParameterError(
                f"seeds must be one-dimensional, got shape {arr.shape}"
            )
        if arr.size == 0:
            return np.empty(0, dtype=np.int64)
        if arr.dtype == bool or not np.issubdtype(arr.dtype, np.integer):
            raise TypeError(
                f"seeds must be integer node ids, got dtype {arr.dtype}"
            )
        arr = arr.astype(np.int64, copy=False)
        n = self.graph.num_nodes
        lo, hi = int(arr.min()), int(arr.max())
        if lo < 0 or hi >= n:
            raise ParameterError(
                f"seed ids must lie in [0, {n - 1}]; got range [{lo}, {hi}]"
            )
        return arr

    # -- online phase -----------------------------------------------------------

    def query(self, seed: int) -> np.ndarray:
        """Return the length-``n`` approximate RWR score vector for ``seed``."""
        return self._query(self.validate_seed(seed))

    def query_many(
        self,
        seeds: Sequence[int] | np.ndarray,
        x0: np.ndarray | None = None,
    ) -> np.ndarray:
        """Score a whole seed batch: returns a ``(len(seeds), n)`` matrix.

        Row ``i`` equals ``query(seeds[i])``.  The base implementation
        loops over :meth:`_query`; power-iteration methods (TPA, CPI,
        BRPPR/RPPR, NB_LIN, BEAR, BePI) override :meth:`_query_many` to
        propagate the whole seed matrix at once, which is the batched
        engine's headline speedup.

        ``x0`` optionally warm-starts the batch from per-seed guesses of
        the converged vectors (row ``i`` seeds ``seeds[i]``; an all-zero
        row means a cold start for that seed).  Only methods with
        :attr:`supports_warm_start` accept it — passing it to any other
        method raises :class:`~repro.exceptions.ParameterError` rather
        than silently ignoring the guess.
        """
        seeds_arr = self.validate_seeds(seeds)
        if seeds_arr.size == 0:
            return np.zeros((0, self.graph.num_nodes), dtype=np.float64)
        if x0 is not None:
            if not self.supports_warm_start:
                raise ParameterError(
                    f"{self.name} does not support x0 warm starts"
                )
            x0 = np.asarray(x0)
            if x0.shape != (seeds_arr.size, self.graph.num_nodes):
                raise ParameterError(
                    f"x0 must have shape ({seeds_arr.size}, "
                    f"{self.graph.num_nodes}); got {x0.shape}"
                )
            return self._query_many(seeds_arr, x0=x0)
        return self._query_many(seeds_arr)

    def top_k(self, seed: int, k: int, exclude_seed: bool = True,
              exclude_neighbors: bool = False) -> np.ndarray:
        """Top-``k`` nodes by approximate RWR score from ``seed``.

        This is the ranking primitive behind the paper's application
        examples (e.g. Twitter's top-500 "Who to Follow").

        Parameters
        ----------
        seed:
            Query node.
        k:
            Result size.
        exclude_seed:
            Drop the seed itself from the ranking (it always carries at
            least mass ``c``).
        exclude_neighbors:
            Also drop the seed's existing out-neighbors — the standard
            recommendation setting where known links are not re-suggested.
        """
        k = validate_k(k)
        seed = self.validate_seed(seed)
        scores = self._query(seed)
        if not (exclude_seed or exclude_neighbors):
            return select_top_k(scores, k)
        n = self.graph.num_nodes
        banned = banned_mask(
            self.graph, seed, exclude_seed, exclude_neighbors,
            out=self._workspace.request("rank.banned", (n,), np.bool_),
        )
        return select_top_k(
            scores, k, banned,
            scratch=self._workspace.request("rank.masked", (n,), np.float64),
        )

    def top_k_many(self, seeds: Sequence[int] | np.ndarray, k: int,
                   exclude_seeds: bool = True,
                   exclude_neighbors: bool = False) -> np.ndarray:
        """Top-``k`` rankings for a whole seed batch.

        Returns a ``(len(seeds), k)`` ``int64`` matrix; row ``i`` holds the
        ranking of ``seeds[i]`` best-first, padded with ``-1`` when fewer
        than ``k`` nodes remain after exclusion.  Scoring goes through
        :meth:`query_many`, so vectorized methods answer the whole batch
        with one pass over the graph, and selection goes through the
        batch-parallel :func:`repro.kernels.select_top_k_many` kernel —
        one call for the whole matrix, no per-row Python loop.  The
        exclusion masks are built vectorized into a retained workspace
        buffer, so a steady serving load allocates nothing here beyond
        the ``(B, k)`` result.
        """
        k = validate_k(k)
        seeds_arr = self.validate_seeds(seeds)
        scores = self.query_many(seeds_arr)
        if seeds_arr.size == 0:
            return np.empty((0, k), dtype=np.int64)
        banned = None
        if exclude_seeds or exclude_neighbors:
            shape = (seeds_arr.size, self.graph.num_nodes)
            out = None
            if shape[0] * shape[1] <= _RANK_MASK_RETAIN_LIMIT:
                out = self._workspace.request(
                    "rank.banned_many", shape, np.bool_
                )
            banned = banned_mask_many(
                self.graph, seeds_arr, exclude_seeds, exclude_neighbors,
                out=out,
            )
        return select_top_k_many(scores, k, banned=banned)

    @abstractmethod
    def preprocessed_bytes(self) -> int:
        """Size in bytes of the preprocessed data this method must keep
        resident for the online phase (Figure 1(a) / 10(a)).

        Excludes the graph itself, which every method shares.
        """

    # -- subclass hooks ----------------------------------------------------------

    @abstractmethod
    def _preprocess(self, graph: Graph) -> None:
        """Method-specific preprocessing; ``graph`` is already bound."""

    @abstractmethod
    def _query(self, seed: int) -> np.ndarray:
        """Method-specific online phase for a validated seed."""

    def _query_many(self, seeds: np.ndarray) -> np.ndarray:
        """Method-specific batched online phase for validated seeds.

        ``seeds`` is a non-empty 1-D ``int64`` array.  The default loops
        over :meth:`_query`; vectorized methods override it.
        """
        return np.stack([self._query(int(seed)) for seed in seeds])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "preprocessed" if self.is_preprocessed else "unbound"
        return f"{type(self).__name__}({state})"
