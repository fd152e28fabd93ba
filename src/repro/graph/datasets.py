"""Registry of scaled analogs of the paper's seven evaluation graphs.

The paper's Table II lists seven KONECT graphs from Slashdot (82 K nodes,
549 K edges) to Friendster (68 M nodes, 2.6 B edges).  Those graphs are not
available offline and the billion-edge ones do not fit this environment, so
each dataset here is a *deterministic synthetic analog*: a community-
structured power-law digraph (see :func:`~repro.graph.generators.
community_graph`) whose node count, edge density ordering (``m/n``), and
per-dataset ``S``/``T`` parameters mirror Table II at roughly 1/40 – 1/3400
linear scale.  This docstring is the substitution rationale that the
``table2`` experiment report cites.

Analog sizes can be scaled with the ``REPRO_SCALE`` environment variable or
the ``scale`` argument of :func:`load_dataset` (e.g. ``scale=4.0`` makes
every analog 4× larger).  Generated graphs are cached per process.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterator

from repro.exceptions import ParameterError
from repro.graph.generators import community_graph
from repro.graph.graph import Graph

__all__ = ["DatasetSpec", "DATASETS", "load_dataset", "dataset_names", "clear_cache"]


@dataclass(frozen=True)
class DatasetSpec:
    """Static description of one analog dataset.

    Attributes
    ----------
    name:
        Lower-case dataset key (e.g. ``"slashdot"``).
    paper_nodes, paper_edges:
        Sizes of the original KONECT graph from Table II, kept for
        reporting.
    analog_nodes:
        Node count of the synthetic analog at ``scale=1``.
    avg_degree:
        Target mean out-degree of the analog; chosen so the ``m/n`` ratio
        ordering matches the original datasets.
    s_iteration, t_iteration:
        The per-dataset ``S`` and ``T`` parameters of Table II.
    kind:
        ``"social"`` or ``"hyperlink"`` — hyperlink analogs use a higher
        intra-community probability (web graphs are more modular).
    seed:
        Base RNG seed; combined with the scale so different scales give
        different but deterministic graphs.
    """

    name: str
    paper_nodes: int
    paper_edges: int
    analog_nodes: int
    avg_degree: float
    s_iteration: int
    t_iteration: int
    kind: str
    seed: int

    def num_communities(self) -> int:
        """Community count grows slowly with analog size."""
        return max(8, self.analog_nodes // 125)

    def p_in(self) -> float:
        return 0.92 if self.kind == "hyperlink" else 0.88

    def reciprocity(self) -> float:
        """Edge mirroring rate: social graphs are strongly reciprocal,
        hyperlink graphs less so."""
        return 0.2 if self.kind == "hyperlink" else 0.4


# Ordered smallest to largest, exactly as in the paper's Table II footprint.
_SPECS = [
    DatasetSpec("slashdot", 82_144, 549_202, 2_000, 7.0, 5, 15, "social", 101),
    DatasetSpec("google", 875_713, 5_105_039, 4_000, 6.0, 5, 20, "hyperlink", 102),
    DatasetSpec("pokec", 1_632_803, 30_622_564, 5_000, 19.0, 5, 10, "social", 103),
    DatasetSpec("livejournal", 4_847_571, 68_475_391, 8_000, 14.0, 5, 10, "social", 104),
    DatasetSpec("wikilink", 12_150_976, 378_142_420, 10_000, 31.0, 5, 6, "hyperlink", 105),
    DatasetSpec("twitter", 41_652_230, 1_468_365_182, 14_000, 35.0, 4, 6, "social", 106),
    DatasetSpec("friendster", 68_349_466, 2_586_147_869, 20_000, 38.0, 4, 20, "social", 107),
]

DATASETS: dict[str, DatasetSpec] = {spec.name: spec for spec in _SPECS}

_CACHE: dict[tuple[str, float], Graph] = {}


def dataset_names() -> list[str]:
    """Dataset keys ordered smallest to largest, as the paper plots them."""
    return [spec.name for spec in _SPECS]


def _env_scale() -> float:
    raw = os.environ.get("REPRO_SCALE", "1.0")
    try:
        value = float(raw)
    except ValueError as exc:
        raise ParameterError(f"REPRO_SCALE must be a float, got {raw!r}") from exc
    if value <= 0:
        raise ParameterError("REPRO_SCALE must be positive")
    return value


def load_dataset(name: str, scale: float | None = None) -> Graph:
    """Generate (or fetch from cache) the analog graph for ``name``.

    Parameters
    ----------
    name:
        One of :func:`dataset_names` (case-insensitive).
    scale:
        Linear scale multiplier for the node count; defaults to the
        ``REPRO_SCALE`` environment variable (itself defaulting to 1.0).
    """
    key = name.lower()
    if key not in DATASETS:
        raise ParameterError(
            f"unknown dataset {name!r}; available: {', '.join(dataset_names())}"
        )
    spec = DATASETS[key]
    factor = _env_scale() if scale is None else float(scale)
    if factor <= 0:
        raise ParameterError("scale must be positive")

    cache_key = (key, factor)
    if cache_key not in _CACHE:
        n = max(64, int(round(spec.analog_nodes * factor)))
        _CACHE[cache_key] = community_graph(
            n,
            avg_degree=spec.avg_degree,
            num_communities=max(8, n // 125),
            p_in=spec.p_in(),
            reciprocity=spec.reciprocity(),
            seed=spec.seed,
        )
    return _CACHE[cache_key]


def clear_cache() -> None:
    """Drop all cached analog graphs (mainly for tests)."""
    _CACHE.clear()


def iter_datasets(scale: float | None = None) -> Iterator[tuple[DatasetSpec, Graph]]:
    """Yield ``(spec, graph)`` for every dataset, smallest first."""
    for spec in _SPECS:
        yield spec, load_dataset(spec.name, scale=scale)
