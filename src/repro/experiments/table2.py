"""Table II — dataset statistics with the per-dataset ``S`` and ``T``."""

from __future__ import annotations

from repro.experiments.config import ExperimentConfig
from repro.experiments.reporting import ExperimentResult
from repro.graph.datasets import DATASETS, load_dataset

__all__ = ["run"]


def run(config: ExperimentConfig) -> list[ExperimentResult]:
    table = ExperimentResult(
        "table2",
        "Dataset statistics (Table II): paper originals and synthetic analogs",
        [
            "dataset",
            "paper nodes",
            "paper edges",
            "analog nodes",
            "analog edges",
            "S",
            "T",
        ],
    )
    for dataset in config.datasets:
        spec = DATASETS[dataset]
        graph = load_dataset(dataset, scale=config.scale)
        table.add_row(
            dataset,
            f"{spec.paper_nodes:,}",
            f"{spec.paper_edges:,}",
            f"{graph.num_nodes:,}",
            f"{graph.num_edges:,}",
            spec.s_iteration,
            spec.t_iteration,
        )
    table.add_note(
        "Analogs are community-structured power-law digraphs "
        "(rationale: the repro.graph.datasets docstring); "
        f"scale factor {config.scale}."
    )
    return [table]
