"""Experiment drivers — one per table and figure of the paper's evaluation.

Every driver takes an :class:`~repro.experiments.config.ExperimentConfig`
and returns a list of :class:`~repro.experiments.reporting.ExperimentResult`
tables.  Run them from the command line::

    python -m repro.experiments --list
    python -m repro.experiments fig1 fig7 --seeds 5
    python -m repro.experiments all --markdown results.md

Experiment ids are the paper's artifact names (``table2``, ``fig1`` …
``fig10``, ``table3``) plus ``ablation`` and ``scaling``; the mapping is
:data:`repro.experiments.registry.EXPERIMENTS`.
"""

from repro.experiments.config import ExperimentConfig
from repro.experiments.reporting import ExperimentResult
from repro.experiments.registry import EXPERIMENTS, run_experiment

__all__ = ["ExperimentConfig", "ExperimentResult", "EXPERIMENTS", "run_experiment"]
