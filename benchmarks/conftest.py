"""Shared fixtures for the benchmark suite.

Each benchmark file regenerates one of the paper's tables or figures (the
ids of ``repro.experiments.registry.EXPERIMENTS``).  Benchmarks run on reduced-scale analogs by default so the
whole suite finishes in minutes; set ``REPRO_BENCH_SCALE`` (e.g. ``1.0``)
for full-size analog runs.

Recorded ``extra_info`` fields carry the non-timing measurements (bytes,
recall, errors) so a single ``pytest benchmarks/ --benchmark-only`` run
reproduces both axes of each figure.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.graph.datasets import DATASETS, load_dataset

BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.25"))

#: Datasets exercised per benchmark group: one small, one mid-sized.
BENCH_DATASETS = ("slashdot", "pokec")


@pytest.fixture(scope="session", params=BENCH_DATASETS)
def dataset_name(request):
    return request.param


@pytest.fixture(scope="session")
def dataset_graph(dataset_name):
    return load_dataset(dataset_name, scale=BENCH_SCALE)


@pytest.fixture(scope="session")
def dataset_spec(dataset_name):
    return DATASETS[dataset_name]


@pytest.fixture(scope="session")
def query_seeds(dataset_graph):
    rng = np.random.default_rng(0)
    return rng.choice(dataset_graph.num_nodes, size=5, replace=False)
