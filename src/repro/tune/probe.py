"""Micro-benchmark probe: time the actual kernels on the actual machine.

The measure-then-pick idiom (DGL's ASV kernel benchmarks run the same
way): every knob the serving stack exposes is decided by timing the
kernels it gates —

* ``spmm`` across a grid of operand widths → ``stream_block`` (and the
  scheduler's ``max_batch``/``max_wait_ms``, which bound how wide a
  micro-batch can grow and how long coalescing may stall it);
* ``spmm`` across a thread-count grid → ``kernels.set_num_threads`` —
  thread counts never change results, so the grid only trades
  wall-clock;
* ``spmv`` and ``select_top_k_many`` once each, recorded for the
  trajectory (they share the SpMM's winning configuration).

Timings are best-of-N wall clock on the live graph when it is small
enough, otherwise on a scaled synthetic stand-in with the same average
degree (recorded in the measurements, so a proxy probe is never mistaken
for a native one).  The whole probe is budgeted to stay well under the
60-second ceiling ``repro tune`` promises.
"""

from __future__ import annotations

import time

import numpy as np

from repro import kernels
from repro.tune.fingerprint import MachineFingerprint

__all__ = [
    "DEFAULT_BLOCK_GRID",
    "probe_measurements",
]

#: Stream-block widths the probe races (the Engine default 128 included).
DEFAULT_BLOCK_GRID = (32, 64, 128, 256)

#: Probe graphs larger than this are replaced by a same-degree stand-in.
_MAX_PROBE_NODES = 50_000

#: Ranking width of the top-k sample.
_PROBE_TOPK = 100


def _best_of(fn, repeats: int) -> float:
    samples = []
    for _ in range(repeats):
        begin = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - begin)
    return min(samples)


def _thread_grid(fingerprint: MachineFingerprint) -> tuple[int, ...]:
    """Powers of two up to the effective core count, the count included."""
    cores = fingerprint.effective_cpus()
    grid = []
    n = 1
    while n < cores:
        grid.append(n)
        n *= 2
    grid.append(cores)
    return tuple(dict.fromkeys(grid))


def _probe_graph(graph, nodes: int, avg_degree: int):
    """The live graph when it fits the probe budget, else a stand-in."""
    from repro.graph.generators import community_graph

    if graph is not None and graph.num_nodes <= _MAX_PROBE_NODES:
        return graph, False
    if graph is not None:
        nodes = _MAX_PROBE_NODES
        avg_degree = max(1, round(graph.num_edges / graph.num_nodes))
    return (
        community_graph(
            nodes,
            avg_degree=avg_degree,
            num_communities=max(8, nodes // 500),
            seed=7,
        ),
        graph is not None,
    )


def probe_measurements(
    graph=None,
    *,
    nodes: int = 8000,
    avg_degree: int = 12,
    block_grid: tuple[int, ...] = DEFAULT_BLOCK_GRID,
    thread_grid: tuple[int, ...] | None = None,
    repeats: int = 3,
    fingerprint: MachineFingerprint | None = None,
) -> dict:
    """Run the micro-bench grid; returns the raw measurements dict.

    ``graph`` is the live serving graph (``None`` builds a synthetic
    community graph of ``nodes``/``avg_degree``).  All timings are
    best-of-``repeats`` seconds.  The thread grid always restores the
    prior thread policy — probing must not leave the process
    reconfigured.
    """
    from repro.tune.fingerprint import machine_fingerprint

    if fingerprint is None:
        fingerprint = machine_fingerprint()
    graph, scaled = _probe_graph(graph, nodes, avg_degree)
    dtype = kernels.compute_dtype()
    rng = np.random.default_rng(0)
    n = graph.num_nodes
    operator = graph.decayed_operator(1.0, dtype=dtype)

    widths = tuple(sorted({int(w) for w in block_grid if int(w) >= 1}))
    max_width = max(widths)
    mat = rng.random((n, max_width)).astype(dtype)
    mat_out = np.empty_like(mat)
    vec = rng.random(n).astype(dtype)
    vec_out = np.empty_like(vec)

    # Warm-up pass: stripe-pool start-up and page faults land here, not
    # in a grid cell (a cold first cell would crown whatever ran second).
    kernels.spmv(operator, vec, out=vec_out)
    kernels.spmm(operator, mat, out=mat_out)

    spmv_seconds = _best_of(
        lambda: kernels.spmv(operator, vec, out=vec_out), repeats
    )

    blocks: dict[int, float] = {}
    for width in widths:
        x = np.ascontiguousarray(mat[:, :width])
        out = np.empty_like(x)
        kernels.spmm(operator, x, out=out)
        blocks[width] = _best_of(
            lambda x=x, out=out: kernels.spmm(operator, x, out=out), repeats
        )

    ref_width = min(64, max_width)
    ref_x = np.ascontiguousarray(mat[:, :ref_width])
    ref_out = np.empty_like(ref_x)

    k = min(_PROBE_TOPK, n - 1)
    scores = np.ascontiguousarray(mat[:, :ref_width].T)
    topk_out = np.empty((scores.shape[0], k), dtype=np.int64)
    kernels.select_top_k_many(scores, k, out=topk_out)
    topk_seconds = _best_of(
        lambda: kernels.select_top_k_many(scores, k, out=topk_out), repeats
    )

    threads: dict[int, float] = {}
    if thread_grid is None:
        thread_grid = _thread_grid(fingerprint)
    previous = kernels.kernel_threads()
    try:
        for count in thread_grid:
            kernels.set_num_threads(int(count))
            applied = kernels.num_threads()
            if applied in threads:  # a repeated grid entry is timed once
                continue
            kernels.spmm(operator, ref_x, out=ref_out)
            threads[applied] = _best_of(
                lambda: kernels.spmm(operator, ref_x, out=ref_out),
                repeats,
            )
    finally:
        kernels.set_num_threads(previous)

    return {
        "graph": {
            "nodes": int(n),
            "edges": int(graph.num_edges),
            "scaled_standin": bool(scaled),
        },
        "backend": kernels.get_backend(),
        "dtype": np.dtype(dtype).name,
        "repeats": int(repeats),
        "spmv_seconds": spmv_seconds,
        "topk_seconds": topk_seconds,
        "topk_k": int(k),
        "spmm_block_seconds": {str(w): s for w, s in blocks.items()},
        "spmm_thread_seconds": {str(c): s for c, s in threads.items()},
    }
