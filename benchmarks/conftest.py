"""Shared helpers for the benchmark harness.

Every benchmark regenerates one table or figure of the paper (at a reduced
scale so the whole suite stays fast) and writes the resulting report text to
``benchmarks/_output/<experiment>.txt`` so the rows/series can be inspected
after a run.  Timing comes from pytest-benchmark; effectiveness numbers come
from the written reports (``scripts/run_all_experiments.py`` writes the
full-scale ones).
"""

from __future__ import annotations

import pathlib

import pytest

OUTPUT_DIR = pathlib.Path(__file__).parent / "_output"

#: Reduced-but-representative model settings shared by the benchmarks.
FAST_MODEL = {"max_iterations": 10, "m_step_iterations": 15}


@pytest.fixture(scope="session")
def report_writer():
    """Return a callable that stores an ExperimentReport's text on disk."""
    OUTPUT_DIR.mkdir(exist_ok=True)

    def write(report) -> None:
        path = OUTPUT_DIR / f"{report.experiment_id}.txt"
        path.write_text(report.to_text() + "\n", encoding="utf-8")

    return write


def run_once(benchmark, func, *args, **kwargs):
    """Run ``func`` exactly once under pytest-benchmark and return its result."""
    return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)
