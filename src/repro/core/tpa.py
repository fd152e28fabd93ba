"""TPA: Two-Phase Approximation for RWR (Algorithms 2 and 3).

**Preprocessing phase** (Algorithm 2, once per graph): run PageRank-seeded
CPI and keep only the tail from iteration ``T`` onward — the *stranger*
vector ``r̃_stranger = p_stranger``.  Because PageRank is seed independent,
this single length-``n`` vector serves every future query, which is why
TPA's preprocessed data is the smallest among all methods (Figure 1(a)).

**Online phase** (Algorithm 3, once per seed): compute only the *family*
part — the first ``S`` CPI iterations from the seed — then

* estimate the neighbor part by rescaling the family part with the exact
  norm ratio ``((1-c)^S − (1-c)^T) / (1 − (1-c)^S)`` (Lemma 2), and
* add the precomputed stranger vector.

Total L1 error is bounded by ``2 (1-c)^S`` (Theorem 2) and is much smaller
in practice on graphs with block-wise structure (Table III).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro import kernels
from repro.core.bounds import neighbor_scale, total_bound
from repro.core.cpi import cpi, cpi_many
from repro.exceptions import NotPreprocessedError, ParameterError
from repro.graph.graph import Graph
from repro.method import PPRMethod

__all__ = ["TPA", "TPAParts"]


@dataclass(frozen=True)
class TPAParts:
    """Decomposition of one TPA query (used by the error experiments).

    Attributes
    ----------
    family:
        Exactly computed ``r_family = x(0) + ... + x(S-1)``.
    neighbor:
        The neighbor approximation ``r̃_neighbor`` (scaled family part).
    stranger:
        The precomputed stranger approximation ``r̃_stranger``
        (PageRank tail).
    scores:
        The full TPA estimate, ``family + neighbor + stranger``.
    """

    family: np.ndarray
    neighbor: np.ndarray
    stranger: np.ndarray

    @property
    def scores(self) -> np.ndarray:
        return self.family + self.neighbor + self.stranger


class TPA(PPRMethod):
    """The proposed method.

    Parameters
    ----------
    s_iteration:
        ``S`` — first iteration of the neighbor part; the online phase
        computes exactly ``S`` interim vectors.  Larger ``S`` means slower
        but more accurate queries (Figure 8).
    t_iteration:
        ``T`` — first iteration of the stranger part.  Governs the split
        between the neighbor and stranger approximations; the total error
        is U-shaped in ``T`` (Figure 9).
    c:
        Restart probability (paper default 0.15).
    tol:
        Convergence tolerance for the preprocessing PageRank run.

    Examples
    --------
    >>> from repro.graph import community_graph
    >>> from repro.core import TPA
    >>> graph = community_graph(500, avg_degree=8, seed=7)
    >>> method = TPA(s_iteration=5, t_iteration=10)
    >>> method.preprocess(graph)
    >>> scores = method.query(0)
    >>> scores.shape
    (500,)
    """

    name = "TPA"

    def __init__(
        self,
        s_iteration: int = 5,
        t_iteration: int = 10,
        c: float = 0.15,
        tol: float = 1e-9,
    ):
        super().__init__()
        if s_iteration < 1:
            raise ParameterError("S must be at least 1")
        if t_iteration < s_iteration:
            raise ParameterError(
                f"T must be at least S (T == S disables the neighbor part); "
                f"got S={s_iteration}, T={t_iteration}"
            )
        if not 0.0 < c < 1.0:
            raise ParameterError("restart probability c must be in (0, 1)")
        self.s_iteration = int(s_iteration)
        self.t_iteration = int(t_iteration)
        self.c = float(c)
        self.tol = float(tol)
        self._stranger: np.ndarray | None = None
        # Retained full-PageRank iterate for warm re-preprocessing on
        # mutable graphs (see _preprocess); None on static graphs, whose
        # single preprocessing run keeps the minimal footprint.
        self._pagerank: np.ndarray | None = None
        self._scale = neighbor_scale(self.c, self.s_iteration, self.t_iteration)
        # Online-phase iterate buffers come from the base class's
        # retained workspace, counted in preprocessed_bytes.
        # Preprocessing (Algorithm 2) runs once and uses throwaway
        # buffers so the post-preprocess footprint stays exactly one
        # stranger vector.

    # -- Algorithm 2: preprocessing phase ---------------------------------------

    def _preprocess(self, graph: Graph) -> None:
        """Compute (or warm-restart) the stranger vector.

        On a static graph this is exactly Algorithm 2: one PageRank-seeded
        CPI keeping only iterations ``T..∞``.  On a mutable substrate
        (anything exposing ``epoch_token()``, i.e.
        :class:`repro.dynamic.DynamicGraph`) the previous full PageRank
        iterate is retained and re-preprocessing *warm-restarts* from it:
        the converged pre-update PageRank is an excellent ``x0`` for the
        post-update fixed point, so the dominant cost — the unbounded
        PageRank tail — shrinks to a handful of iterations after small
        edits.  The stranger vector is then recovered as
        ``pagerank − head`` where ``head`` is the exact truncated sum of
        iterations ``0..T-1`` (a fixed ``T``-step run, cheap).

        TPA's *online* phase is a fixed-length truncated sum — there is
        no sound per-query warm start (``supports_warm_start`` stays
        ``False``); warm restart for TPA lives entirely here, in
        re-preprocessing.
        """
        dynamic = callable(getattr(graph, "epoch_token", None))
        warm = self._pagerank
        if (
            warm is not None
            and warm.shape == (graph.num_nodes,)
        ):
            # Warm path: full PageRank restarted from the retained
            # iterate, then split into head (iterations 0..T-1, exact
            # truncated run) and tail (the stranger vector).
            pagerank = cpi(
                graph,
                seeds=None,
                c=self.c,
                tol=self.tol,
                x0=np.ascontiguousarray(warm, dtype=warm.dtype),
            ).scores
            head = cpi(
                graph,
                seeds=None,
                c=self.c,
                tol=self.tol,
                start_iteration=0,
                terminal_iteration=self.t_iteration - 1,
            ).scores
            self._stranger = pagerank - head
            self._pagerank = pagerank
            return
        result = cpi(
            graph,
            seeds=None,  # PageRank seeding: q = 1/n
            c=self.c,
            tol=self.tol,
            start_iteration=self.t_iteration,
            terminal_iteration=None,
        )
        self._stranger = result.scores
        if dynamic:
            # Retain the full PageRank for the next (warm) re-preprocess.
            # Derived as head + stranger: one extra fixed-length truncated
            # run, paid only on mutable graphs — static preprocessing
            # stays byte-identical to Algorithm 2.
            head = cpi(
                graph,
                seeds=None,
                c=self.c,
                tol=self.tol,
                start_iteration=0,
                terminal_iteration=self.t_iteration - 1,
            ).scores
            self._pagerank = head + self._stranger

    @property
    def stranger_vector(self) -> np.ndarray:
        """The precomputed ``r̃_stranger`` (PageRank iterations ``T..∞``)."""
        if self._stranger is None:
            raise NotPreprocessedError("TPA: preprocess() has not run")
        return self._stranger

    def preprocessed_bytes(self) -> int:
        """Resident bytes the online phase depends on: the stranger vector
        (``8n`` — TPA's entire index, the smallest of any method in
        Figure 1(a)) plus the iterate buffers the online phase retains
        between queries (zero until the first query runs)."""
        if self._stranger is None:
            return 0
        return int(self._stranger.nbytes) + self._workspace.nbytes()

    # -- Algorithm 3: online phase -----------------------------------------------

    def query_parts(self, seed: int) -> TPAParts:
        """Run the online phase and return the three-part decomposition."""
        stranger = self.stranger_vector
        family = cpi(
            self.graph,
            seeds=seed,
            c=self.c,
            tol=self.tol,
            start_iteration=0,
            terminal_iteration=self.s_iteration - 1,
            workspace=self._workspace,
        ).scores
        neighbor = self._scale * family
        return TPAParts(family=family, neighbor=neighbor, stranger=stranger)

    def _query(self, seed: int) -> np.ndarray:
        parts = self.query_parts(seed)
        return parts.scores

    def _query_many(self, seeds: np.ndarray) -> np.ndarray:
        """Vectorized online phase: one batched CPI for the whole batch.

        The family parts of all ``B`` seeds propagate as one ``(n, B)``
        matrix — ``S`` sparse matmuls total instead of ``S`` SpMVs per
        seed — and the neighbor scaling plus the shared stranger vector
        are folded into the tiled transposition that produces the
        C-contiguous ``(B, n)`` result.  Row ``j`` equals
        ``query(seeds[j])`` exactly.
        """
        stranger = self.stranger_vector
        family = cpi_many(
            self.graph,
            seeds,
            c=self.c,
            tol=self.tol,
            start_iteration=0,
            terminal_iteration=self.s_iteration - 1,
            workspace=self._workspace,
        ).scores.T  # back to the (n, B) iteration layout
        scale = self._scale

        def combine(tile, r0, r1, mixed):
            # (scale·family + family) + stranger — float addition
            # commutes, so this matches the single-seed family + neighbor
            # + stranger bit for bit.
            np.multiply(tile, scale, out=mixed)
            mixed += tile
            mixed += stranger[r0:r1, np.newaxis]
            return mixed

        # One pass, tile by tile, straight into the (B, n) result: every
        # consumer (ranking, cache, result vectors) reads contiguous
        # rows, and the only (n, B)-sized allocation is the result.
        return kernels.rows_from_panel(family, fuse=combine)

    def query_seed_set(self, seeds: "list[int] | np.ndarray") -> np.ndarray:
        """Personalized PageRank over a seed *set* (uniform restart mass).

        CPI accepts any seed distribution (Algorithm 1, line 1), so the
        online phase generalizes unchanged: the family part is computed
        from the set's uniform seed vector and the same neighbor scaling
        and stranger tail apply.  The Theorem 2 bound holds verbatim —
        its proof never uses that ``q`` is a unit vector, only
        ``‖q‖₁ = 1``.
        """
        stranger = self.stranger_vector
        family = cpi(
            self.graph,
            seeds=list(seeds),
            c=self.c,
            tol=self.tol,
            start_iteration=0,
            terminal_iteration=self.s_iteration - 1,
            workspace=self._workspace,
        ).scores
        return family + self._scale * family + stranger

    def error_bound(self) -> float:
        """Theorem 2 upper bound on the L1 error of any query."""
        return total_bound(self.c, self.s_iteration)

    # -- persistence ---------------------------------------------------------------

    def save(self, directory: str | os.PathLike) -> None:
        """Persist the preprocessed state (the stranger vector + parameters).

        The preprocessing phase runs once per graph (Algorithm 2); saving
        its output lets a serving process :meth:`load` it and answer
        queries without redoing the PageRank run — the deployment pattern
        the paper's preprocessing/online split is designed for.
        """
        stranger = self.stranger_vector  # raises if not preprocessed
        path = Path(directory)
        path.mkdir(parents=True, exist_ok=True)
        np.save(path / "stranger.npy", stranger)
        meta = {
            "format": "repro-tpa-v1",
            "s_iteration": self.s_iteration,
            "t_iteration": self.t_iteration,
            "c": self.c,
            "tol": self.tol,
            "num_nodes": int(stranger.size),
        }
        with open(path / "tpa.json", "w", encoding="utf-8") as handle:
            json.dump(meta, handle)

    @classmethod
    def load(cls, directory: str | os.PathLike, graph: Graph) -> "TPA":
        """Rebuild a ready-to-query TPA from :meth:`save` output.

        ``graph`` must be the graph the state was preprocessed for (the
        node count is verified; deeper mismatches are the caller's
        responsibility, as with any index file).
        """
        path = Path(directory)
        meta_file = path / "tpa.json"
        if not meta_file.exists():
            raise ParameterError(f"{meta_file} not found; call save() first")
        with open(meta_file, "r", encoding="utf-8") as handle:
            meta = json.load(handle)
        if meta.get("format") != "repro-tpa-v1":
            raise ParameterError(f"unrecognized TPA state format in {meta_file}")
        if meta["num_nodes"] != graph.num_nodes:
            raise ParameterError(
                f"saved state is for a {meta['num_nodes']}-node graph, "
                f"got one with {graph.num_nodes} nodes"
            )
        method = cls(
            s_iteration=meta["s_iteration"],
            t_iteration=meta["t_iteration"],
            c=meta["c"],
            tol=meta["tol"],
        )
        method._graph = graph
        method._stranger = np.load(path / "stranger.npy")
        return method

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TPA(S={self.s_iteration}, T={self.t_iteration}, c={self.c}, "
            f"preprocessed={self.is_preprocessed})"
        )
