"""Benchmarks: Figures 11 and 12 — efficiency of assignment and inference."""

from conftest import FAST_MODEL, run_once

from repro.experiments import (
    run_figure11_assignment_time,
    run_figure12_convergence,
    run_figure12_runtime,
)


def test_figure11_assignment_time(benchmark, report_writer):
    """Regenerate Figure 11: assignment cost vs answers collected per task."""
    report = run_once(
        benchmark, run_figure11_assignment_time, answers_per_task_levels=(2, 3, 4, 5),
        seed=7, num_rows=40, model_kwargs=FAST_MODEL,
    )
    report_writer(report)
    seconds = [row[2] for row in report.rows]
    assert all(value > 0 for value in seconds)


def test_figure12a_em_convergence(benchmark, report_writer):
    """Regenerate Figure 12(a): EM objective value per iteration."""
    report = run_once(
        benchmark, run_figure12_convergence, seed=7, num_rows=80, max_iterations=20,
    )
    report_writer(report)
    values = [value for _iteration, value in report.series["objective"]]
    assert len(values) >= 3
    assert values[-1] >= values[0]


def test_figure12b_inference_runtime(benchmark, report_writer):
    """Regenerate Figure 12(b): inference runtime vs number of answers."""
    report = run_once(
        benchmark, run_figure12_runtime, answer_counts=(1_000, 3_000, 10_000), seed=7,
        model_kwargs=FAST_MODEL,
    )
    report_writer(report)
    answers = [row[0] for row in report.rows]
    seconds = [row[2] for row in report.rows]
    assert answers == sorted(answers)
    # Runtime grows no worse than ~linearly with a generous constant: the
    # paper's complexity analysis is O(w v l |A|).
    ratio = (seconds[-1] / seconds[0]) / (answers[-1] / answers[0])
    assert ratio < 10.0

