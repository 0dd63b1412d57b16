"""Experiment harnesses: one per table / figure of the paper's evaluation.

Every harness returns an :class:`~repro.experiments.reporting.ExperimentReport`
(or a small structured result) and can print the same rows / series the paper
reports.  The mapping from paper table/figure to harness is the
``EXPERIMENTS`` registry of :mod:`repro.experiments.cli`, which is also the
command-line entry point (installed as ``tcrowd-experiments``).
"""

from repro.experiments.case_studies import (
    run_figure3_worker_consistency,
    run_figure4_quality_calibration,
    run_figure6_attribute_correlation,
)
from repro.experiments.efficiency import (
    run_figure11_assignment_time,
    run_figure12_convergence,
    run_figure12_runtime,
)
from repro.experiments.end_to_end import run_figure2
from repro.experiments.heuristics import run_figure5
from repro.experiments.noise import run_figure10
from repro.experiments.reporting import ExperimentReport, format_table
from repro.experiments.synthetic import run_figure7, run_figure8, run_figure9
from repro.experiments.truth_inference import run_table7

__all__ = [
    "ExperimentReport",
    "format_table",
    "run_figure2",
    "run_figure3_worker_consistency",
    "run_figure4_quality_calibration",
    "run_figure5",
    "run_figure6_attribute_correlation",
    "run_figure7",
    "run_figure8",
    "run_figure9",
    "run_figure10",
    "run_figure11_assignment_time",
    "run_figure12_convergence",
    "run_figure12_runtime",
    "run_table7",
]
