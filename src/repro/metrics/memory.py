"""Memory accounting for preprocessed data.

The paper caps every method at the workstation's 200 GB and omits bars for
methods that run out of memory (Figure 1).  :class:`MemoryBudget` is the
scaled-down stand-in: experiments construct the heavy baselines with a
budget, and a method whose preprocessed data would exceed it raises
:class:`~repro.exceptions.MemoryBudgetExceeded`, which the reporting layer
renders as ``OOM``.
"""

from __future__ import annotations

from dataclasses import dataclass

import scipy.sparse as sp

from repro.exceptions import MemoryBudgetExceeded, ParameterError

__all__ = ["MemoryBudget", "format_bytes", "sparse_nbytes"]

#: Default scaled budget: the paper's 200 GB cap scaled by the ~1/3000
#: edge-count ratio between Friendster and its analog here, rounded to a
#: value under which BEAR-APPROX / NB-LIN fail on the three largest
#: analogs while every method passes on the four smallest — the same
#: feasibility split as the paper's Figure 1.
DEFAULT_BUDGET_BYTES = 64 * 1024 * 1024


@dataclass(frozen=True)
class MemoryBudget:
    """A byte budget for preprocessed data.

    Examples
    --------
    >>> budget = MemoryBudget(1024)
    >>> budget.check("toy", 512)
    >>> budget.check("toy", 4096)  # doctest: +ELLIPSIS
    Traceback (most recent call last):
        ...
    repro.exceptions.MemoryBudgetExceeded: toy requires 4096 bytes ...
    """

    limit_bytes: int = DEFAULT_BUDGET_BYTES

    def __post_init__(self) -> None:
        if self.limit_bytes <= 0:
            raise ParameterError("memory budget must be positive")

    def check(self, method_name: str, required_bytes: int) -> None:
        """Raise :class:`MemoryBudgetExceeded` when over budget."""
        if required_bytes > self.limit_bytes:
            raise MemoryBudgetExceeded(method_name, required_bytes, self.limit_bytes)

    def allows(self, required_bytes: int) -> bool:
        """Non-raising variant of :meth:`check`."""
        return required_bytes <= self.limit_bytes


def sparse_nbytes(matrix: sp.sparray | sp.spmatrix) -> int:
    """Bytes held by a CSR/CSC/COO sparse matrix's constituent arrays."""
    if hasattr(matrix, "data") and hasattr(matrix, "indices"):
        return int(matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes)
    if hasattr(matrix, "row"):  # COO
        return int(matrix.data.nbytes + matrix.row.nbytes + matrix.col.nbytes)
    raise ParameterError(f"unsupported sparse format: {type(matrix).__name__}")


def format_bytes(num_bytes: float) -> str:
    """Human-readable base-2 size string (``"12.3 MB"`` style)."""
    if num_bytes < 0:
        raise ParameterError("byte count must be non-negative")
    value = float(num_bytes)
    for unit in ("B", "KB", "MB", "GB", "TB"):
        if value < 1024.0 or unit == "TB":
            if unit == "B":
                return f"{int(value)} {unit}"
            return f"{value:.1f} {unit}"
        value /= 1024.0
    raise AssertionError("unreachable")
