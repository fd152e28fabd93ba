"""repro — reproduction of *TPA: Fast, Scalable, and Accurate Method for
Approximate Random Walk with Restart on Billion Scale Graphs* (Yoon, Jung,
Kang — ICDE 2018).

Quickstart
----------
Preprocess once, then serve seed batches through the engine — the paper's
deployment shape (Twitter-scale "Who to Follow" is top-500 RWR for
millions of users against one preprocessed graph):

>>> from repro import Engine, community_graph, create_method
>>> graph = community_graph(1000, avg_degree=10, seed=7)
>>> engine = Engine(create_method("tpa", s_iteration=5, t_iteration=10),
...                 graph)                      # Algorithm 2 runs here, once
>>> result = engine.query(0, k=10)              # one structured result
>>> recommendations = engine.serve(range(32), k=10)  # (32, 10) id matrix
>>> full = engine.query(0)                      # full score vector + metadata
>>> float(abs(full.scores).sum()) <= 1.0 + 1e-9
True

``engine.batch([...])`` takes :class:`QueryRequest` records and returns
:class:`QueryResult` records carrying scores or top-k ids plus wall-time,
preprocessed bytes, and the method's error bound.  All seeds in a batch
propagate through the graph together (one sparse matmul per iteration for
the whole batch) — see :meth:`PPRMethod.query_many`.

The original single-seed API remains fully supported:

>>> method = create_method("tpa", s_iteration=5, t_iteration=10)
>>> method.preprocess(graph)          # Algorithm 2: stranger approximation
>>> scores = method.query(0)          # Algorithm 3: family + neighbor approx

Kernel backends, float32 mode, and the perf trajectory
------------------------------------------------------
Every hot loop (CPI iterates, TPA's phases, the power-iteration
baselines) runs its CSR SpMV/SpMM products on :mod:`repro.kernels`,
which auto-selects a Numba-JIT, thread-parallel backend at import when
Numba is installed and otherwise uses a pure NumPy/SciPy fallback that
is bitwise identical to the plain ``operator @ x`` path.  Control it
with ``REPRO_KERNEL=numba|numpy`` or ``repro.kernels.set_backend``:

>>> from repro import kernels
>>> kernels.get_backend() in ("numba", "numpy")
True

Opt into single-precision compute with ``REPRO_KERNEL_DTYPE=float32``
or ``kernels.set_compute_dtype("float32")`` — roughly half the memory
traffic for an L1 error below ``~1e-5`` on the bundled graphs (see the
:mod:`repro.kernels` docstring for when to keep float64).  The Engine's
LRU cache keys on ``kernels.cache_token()``, so switching backend or
dtype mid-serve never replays a stale vector.  ``Engine(...,
reorder="slashburn")`` additionally relabels the graph into SlashBurn
hub/spoke order so each CSR row's gathers cluster, translating node ids
at the API boundary.  Top-k serving streams in column blocks with the
compiled :func:`repro.kernels.select_top_k_many` selection fused into
the block loop — the full ``n x batch`` score matrix never
materializes.

Performance is measured by the benchmark ladder,
``python3 benchmarks/ladder/run.py``: four workloads, end-to-end and
per-layer metrics, with answer checks.  ``benchmarks/compare.py`` gates
a change's ladder results against its parent's.

Package map
-----------
* :mod:`repro.kernels` — the compiled sparse-kernel layer (backends,
  ``spmv``/``spmm``, ``Workspace``, SlashBurn locality reordering).
* :mod:`repro.engine` — the batched query engine (``Engine``,
  ``QueryRequest``/``QueryResult``) and the method registry
  (``available_methods`` / ``create_method``).
* :mod:`repro.core` — CPI (Algorithm 1) and TPA (Algorithms 2–3) with the
  paper's accuracy bounds.
* :mod:`repro.graph` — graph substrate, generators, dataset analogs,
  SlashBurn, partitioning.
* :mod:`repro.ranking` — reference PageRank / exact RWR solvers.
* :mod:`repro.baselines` — BRPPR, NB_LIN, BEAR-APPROX, FORA, HubPPR, BePI.
* :mod:`repro.serving` — concurrent serving (micro-batching ``Scheduler``,
  ``Server`` over Engine replicas, shared ``ScoreCache``).
* :mod:`repro.sharding` — sharded multi-process serving (``ShardPlan``,
  shared-memory ``ShardStore``, shard workers, ``Engine.shard()``, and
  ``Router``: a ``Server`` whose one worker serves on ``Engine.shard()``).
* :mod:`repro.dynamic` — dynamic graphs (``DynamicGraph`` delta-overlay
  edge updates, epoch-aware cache repair, warm-restarted serving).
* :mod:`repro.tune` — hardware autotuning (measured ``TuneProfile``
  knobs cached per machine fingerprint) and core/NUMA pinning.
* :mod:`repro.obs` — observability: process-global metrics registry
  (counters/gauges/histograms, Prometheus text + JSON exposition),
  low-overhead cross-process request tracing (``REPRO_TRACE``), a live
  HTTP exporter (``obs_port=`` / ``REPRO_OBS_PORT``), a cross-process
  sampling profiler (``REPRO_PROFILE``), and structured logging of the
  resilience layer's except-paths (``REPRO_LOG``).
* :mod:`repro.resilience` — fault tolerance for the serving stack:
  worker supervision/respawn (``Supervisor``), bounded retries
  (``RetryPolicy``), request deadlines, deterministic fault injection
  (``REPRO_FAULTS``), and crash-safe shared-memory cleanup.
* :mod:`repro.metrics` — L1 error, recall@k, memory and timing accounting.
* :mod:`repro.analysis` — matrix-power densification and block-wise drift.
* :mod:`repro.experiments` — one driver per paper table/figure
  (``python -m repro.experiments --list``).
"""

from repro.exceptions import (
    ReproError,
    GraphFormatError,
    DanglingNodeError,
    NotPreprocessedError,
    MemoryBudgetExceeded,
    ConvergenceError,
    ParameterError,
    ServerOverloaded,
    DeadlineExceeded,
    WorkerFailure,
)
from repro.method import PPRMethod, select_top_k
from repro.graph import (
    Graph,
    read_edge_list,
    write_edge_list,
    community_graph,
    rmat_graph,
    gnm_random_graph,
    rewire_random,
    ring_graph,
    star_graph,
    complete_graph,
    DATASETS,
    DatasetSpec,
    load_dataset,
    dataset_names,
    slashburn,
    partition_graph,
)
from repro.core import (
    cpi,
    cpi_many,
    cpi_parts,
    CPIResult,
    CPIManyResult,
    CPIMethod,
    TPA,
    TPAParts,
    family_norm,
    neighbor_norm,
    stranger_norm,
    neighbor_scale,
    stranger_bound,
    neighbor_bound,
    total_bound,
    convergence_iterations,
    select_parameters,
    sweep_s,
    sweep_t,
)
from repro.ranking import pagerank, pagerank_power, rwr_exact, rwr_direct, rwr_power
from repro.baselines import (
    BiPPR,
    BRPPR,
    FastPPR,
    RPPR,
    NBLin,
    BearApprox,
    Fora,
    HubPPR,
    BePI,
)
from repro.engine import (
    Engine,
    QueryRequest,
    QueryResult,
    available_methods,
    create_method,
    register_method,
)
from repro.graph.diskgraph import DiskGraph
from repro.graph.stats import GraphStats, graph_stats
from repro import kernels
from repro import obs
from repro import serving
from repro.serving import LatencyStats, Scheduler, ScoreCache, Server
from repro import sharding
from repro.sharding import Router, ShardPlan, ShardedEngine
from repro import dynamic
from repro.dynamic import DeltaOverlay, DynamicGraph, OVERLAY_TOLERANCE
from repro import tune
from repro.tune import MachineFingerprint, TuneProfile, autotune
from repro import resilience
from repro.resilience import RetryPolicy, Supervisor
from repro.metrics import (
    l1_error,
    top_k,
    recall_at_k,
    precision_at_k,
    ndcg_at_k,
    MemoryBudget,
    format_bytes,
)

__version__ = "1.0.0"

__all__ = [
    "ReproError",
    "GraphFormatError",
    "DanglingNodeError",
    "NotPreprocessedError",
    "MemoryBudgetExceeded",
    "ConvergenceError",
    "ParameterError",
    "ServerOverloaded",
    "DeadlineExceeded",
    "WorkerFailure",
    "PPRMethod",
    "select_top_k",
    "Engine",
    "QueryRequest",
    "QueryResult",
    "available_methods",
    "create_method",
    "register_method",
    "Graph",
    "read_edge_list",
    "write_edge_list",
    "community_graph",
    "rmat_graph",
    "gnm_random_graph",
    "rewire_random",
    "ring_graph",
    "star_graph",
    "complete_graph",
    "DATASETS",
    "DatasetSpec",
    "load_dataset",
    "dataset_names",
    "slashburn",
    "partition_graph",
    "cpi",
    "cpi_many",
    "cpi_parts",
    "CPIResult",
    "CPIManyResult",
    "CPIMethod",
    "TPA",
    "TPAParts",
    "family_norm",
    "neighbor_norm",
    "stranger_norm",
    "neighbor_scale",
    "stranger_bound",
    "neighbor_bound",
    "total_bound",
    "convergence_iterations",
    "select_parameters",
    "sweep_s",
    "sweep_t",
    "pagerank",
    "pagerank_power",
    "rwr_exact",
    "rwr_direct",
    "rwr_power",
    "BiPPR",
    "BRPPR",
    "FastPPR",
    "RPPR",
    "NBLin",
    "BearApprox",
    "DiskGraph",
    "GraphStats",
    "graph_stats",
    "Fora",
    "HubPPR",
    "BePI",
    "l1_error",
    "top_k",
    "recall_at_k",
    "precision_at_k",
    "ndcg_at_k",
    "MemoryBudget",
    "format_bytes",
    "kernels",
    "obs",
    "serving",
    "Server",
    "Scheduler",
    "ScoreCache",
    "LatencyStats",
    "sharding",
    "Router",
    "ShardPlan",
    "ShardedEngine",
    "dynamic",
    "DeltaOverlay",
    "DynamicGraph",
    "OVERLAY_TOLERANCE",
    "tune",
    "MachineFingerprint",
    "TuneProfile",
    "autotune",
    "resilience",
    "RetryPolicy",
    "Supervisor",
    "__version__",
]
