"""Dynamic graphs: delta-overlay edge updates over the immutable substrates.

The package layers mutability over the repo's build-once CSR world:

* :class:`DeltaOverlay` — an append-only log of edge inserts/deletes,
  compiled on demand into a sparse delta operator through the same
  :func:`repro.kernels.scaled_values` contract as every decayed
  operator;
* :class:`DynamicGraph` — a graph-protocol facade (base product + delta
  fold) CPI/TPA and all baselines run on unmodified, with
  :meth:`~DynamicGraph.compact` folding the overlay into a fresh base
  whose results are bitwise identical to a from-scratch build;
* :data:`OVERLAY_TOLERANCE` — the documented ≤1e-12 accuracy tier of
  overlay-mode (uncompacted) results, surfaced in every
  :func:`repro.kernels.cache_token` minted against a dirty graph.

Queries beside a live edge mutator are measured by the ``dynamic-mixed``
workload of the benchmark ladder (``benchmarks/ladder/run.py``).
"""

from repro.dynamic.graph import DynamicGraph
from repro.dynamic.overlay import OVERLAY_TOLERANCE, DeltaOverlay

__all__ = [
    "DeltaOverlay",
    "DynamicGraph",
    "OVERLAY_TOLERANCE",
]
