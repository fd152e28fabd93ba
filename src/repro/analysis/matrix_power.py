"""Densification of matrix powers ``(Ãᵀ)^i`` — Figures 3 and 4.

The stranger approximation's practical accuracy rests on an empirical
property: as ``i`` grows, ``(Ãᵀ)^i`` becomes dense with near-identical
columns, so the column-difference statistic

.. math::

    C_i \\;=\\; \\frac{1}{n} \\sum_{j \\ne s} \\lVert c^{(i)}_s - c^{(i)}_j \\rVert_1

(the determining factor in Lemma 1's proof) falls far below its worst-case
value of 2.  These functions measure the number of nonzeros (Figure 4(a)),
``C_i`` averaged over random seeds (Figure 4(b)), and a coarse block-count
grid of nonzeros that serves as the textual analog of Figure 3's spy plots.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro import kernels
from repro.exceptions import ParameterError
from repro.graph.graph import Graph

__all__ = ["matrix_power_nnz", "column_difference_statistic", "block_density_grid"]

#: Above this density the power is converted to dense storage to keep
#: repeated sparse-sparse products from thrashing.
_DENSIFY_THRESHOLD = 0.25


def _matrix_powers(graph: Graph, max_power: int) -> list[sp.csr_array | np.ndarray]:
    """Return ``[(Ãᵀ)^1, ..., (Ãᵀ)^max_power]``, densifying when warranted."""
    if max_power < 1:
        raise ParameterError("max_power must be at least 1")
    base = graph.transition_transpose
    powers: list[sp.csr_array | np.ndarray] = [base]
    current: sp.csr_array | np.ndarray = base
    n = graph.num_nodes
    for _ in range(max_power - 1):
        if isinstance(current, np.ndarray):
            # Powers commute, so advancing from the left keeps the
            # computation one blocked CSR x dense product on the kernel
            # layer — O(nnz · n) instead of the dense GEMM's O(n³), and
            # row-striped across idle cores.
            current = kernels.spmm(base, current)
        else:
            current = (current @ base).tocsr()
            if current.nnz > _DENSIFY_THRESHOLD * n * n:
                current = current.toarray()
        powers.append(current)
    return powers


def _nnz(matrix: sp.csr_array | np.ndarray) -> int:
    if isinstance(matrix, np.ndarray):
        return int(np.count_nonzero(matrix))
    return int(matrix.nnz)


def matrix_power_nnz(graph: Graph, powers: list[int]) -> dict[int, int]:
    """Number of nonzeros of ``(Ãᵀ)^i`` for each requested ``i``
    (Figure 4(a): nnz grows rapidly with ``i``)."""
    if not powers:
        raise ParameterError("powers must be non-empty")
    if min(powers) < 1:
        raise ParameterError("powers must be >= 1")
    computed = _matrix_powers(graph, max(powers))
    return {i: _nnz(computed[i - 1]) for i in powers}


def column_difference_statistic(
    graph: Graph,
    powers: list[int],
    num_seeds: int = 30,
    rng: np.random.Generator | int | None = 0,
) -> dict[int, float]:
    """``C_i`` averaged over ``num_seeds`` random seed columns
    (Figure 4(b): ``C_i`` decreases as ``i`` increases)."""
    if not powers:
        raise ParameterError("powers must be non-empty")
    rng = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    n = graph.num_nodes
    seeds = rng.choice(n, size=min(num_seeds, n), replace=False)

    computed = _matrix_powers(graph, max(powers))
    result: dict[int, float] = {}
    for i in powers:
        matrix = computed[i - 1]
        dense = matrix if isinstance(matrix, np.ndarray) else matrix.toarray()
        values = []
        for seed in seeds:
            seed_column = dense[:, seed][:, np.newaxis]
            diff = np.abs(dense - seed_column).sum(axis=0)
            # Exclude the seed column itself (j != s), then average by 1/n
            # exactly as the paper defines C_i.
            values.append(float(diff.sum() - diff[seed]) / n)
        result[i] = float(np.mean(values))
    return result


def block_density_grid(
    graph: Graph, power: int, grid: int = 16
) -> np.ndarray:
    """Nonzero counts of ``(Ãᵀ)^power`` aggregated over a ``grid × grid``
    partition of the matrix — a textual stand-in for Figure 3's spy plots.

    Returns a ``(grid, grid)`` integer array; entry ``(a, b)`` counts the
    nonzeros whose row falls in stripe ``a`` and column in stripe ``b``.
    """
    if power < 1:
        raise ParameterError("power must be >= 1")
    if grid < 1:
        raise ParameterError("grid must be >= 1")
    matrix = _matrix_powers(graph, power)[-1]
    n = graph.num_nodes
    grid = min(grid, n)
    edges = np.linspace(0, n, grid + 1).astype(np.int64)

    if isinstance(matrix, np.ndarray):
        counts = np.zeros((grid, grid), dtype=np.int64)
        for a in range(grid):
            rows = matrix[edges[a] : edges[a + 1]]
            nonzero_cols = np.nonzero(rows)[1]
            hist, _ = np.histogram(nonzero_cols, bins=edges)
            counts[a] = hist
        return counts

    coo = matrix.tocoo()
    row_bin = np.clip(np.searchsorted(edges, coo.row, side="right") - 1, 0, grid - 1)
    col_bin = np.clip(np.searchsorted(edges, coo.col, side="right") - 1, 0, grid - 1)
    counts = np.zeros((grid, grid), dtype=np.int64)
    np.add.at(counts, (row_bin, col_bin), 1)
    return counts
