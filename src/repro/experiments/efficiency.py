"""Figures 11 and 12 — efficiency of assignment and truth inference.

* Figure 11 — time to compute the structure-aware information gain for all
  candidate cells when a new worker arrives, as a function of the average
  number of answers collected per task (Celebrity).
* Figure 12(a) — EM objective value per iteration (convergence, Celebrity).
* Figure 12(b) — truth-inference runtime as a function of the number of
  answers (synthetic datasets of growing size).

Absolute times differ from the paper's 2012-era Python 2.7 testbed; the
relevant reproduction target is the *linear* scaling in the number of
answers (the complexity analyses at the end of Sections 4.3 and 5.1).
"""

from __future__ import annotations

import time
from typing import Iterable, Optional

from repro.core.inference import TCrowdModel
from repro.core.information_gain import as_cell_array
from repro.core.structure_gain import StructureAwareGainCalculator
from repro.datasets import generate_synthetic, load_celebrity
from repro.experiments.reporting import ExperimentReport


def run_figure11_assignment_time(
    answers_per_task_levels: Iterable[int] = (2, 3, 4, 5),
    seed: int = 7,
    num_rows: Optional[int] = 60,
    model_kwargs: Optional[dict] = None,
) -> ExperimentReport:
    """Figure 11: time to score all candidate cells for one incoming worker."""
    report = ExperimentReport(
        experiment_id="figure11",
        title="Efficiency of task assignment (Celebrity)",
        headers=["answers per task", "candidate cells", "seconds"],
    )
    points = []
    for level in answers_per_task_levels:
        kwargs = {"seed": seed, "answers_per_task": int(level)}
        if num_rows:
            kwargs["num_rows"] = num_rows
        dataset = load_celebrity(**kwargs)
        model = TCrowdModel(**(model_kwargs or {"max_iterations": 15}))
        result = model.fit(dataset.schema, dataset.answers)
        worker = dataset.answers.workers[0]
        calculator = StructureAwareGainCalculator(result, dataset.answers)
        candidates = as_cell_array(dataset.schema.cells())
        start = time.perf_counter()
        calculator.gains_batch(worker, candidates)
        elapsed = time.perf_counter() - start
        report.add_row(int(level), len(candidates), elapsed)
        points.append((int(level), elapsed))
    report.add_series("assignment seconds", points)
    report.add_note(
        f"num_rows={num_rows or 'paper size'}; one full scoring pass of the "
        "structure-aware information gain over every cell for one worker"
    )
    return report


def run_figure12_convergence(
    seed: int = 7,
    num_rows: Optional[int] = None,
    max_iterations: int = 20,
    model_kwargs: Optional[dict] = None,
) -> ExperimentReport:
    """Figure 12(a): EM objective value per iteration on Celebrity."""
    kwargs = {"seed": seed}
    if num_rows:
        kwargs["num_rows"] = num_rows
    dataset = load_celebrity(**kwargs)
    options = dict(model_kwargs or {})
    options.setdefault("max_iterations", max_iterations)
    model = TCrowdModel(**options)
    result = model.fit(dataset.schema, dataset.answers)
    report = ExperimentReport(
        experiment_id="figure12a",
        title="Truth inference convergence (objective value per EM iteration)",
        headers=["iteration", "objective value"],
    )
    points = [
        (iteration + 1, value)
        for iteration, value in enumerate(result.objective_trace)
    ]
    for iteration, value in points:
        report.add_row(iteration, value)
    report.add_series("objective", points)
    report.add_note(
        f"converged={result.converged} after {result.n_iterations} iterations "
        f"on {dataset.name} ({len(dataset.answers)} answers)"
    )
    return report


def run_figure12_runtime(
    answer_counts: Iterable[int] = (1_000, 3_000, 10_000, 30_000),
    seed: int = 7,
    answers_per_task: int = 5,
    num_columns: int = 10,
    model_kwargs: Optional[dict] = None,
) -> ExperimentReport:
    """Figure 12(b): truth-inference runtime vs number of answers (synthetic)."""
    report = ExperimentReport(
        experiment_id="figure12b",
        title="Truth inference running time vs number of answers",
        headers=["answers", "rows", "seconds", "answers per second"],
    )
    points = []
    for target in answer_counts:
        num_rows = max(int(target) // (answers_per_task * num_columns), 2)
        dataset = generate_synthetic(
            num_rows=num_rows,
            num_columns=num_columns,
            categorical_ratio=0.5,
            answers_per_task=answers_per_task,
            seed=seed,
        )
        model = TCrowdModel(**(model_kwargs or {"max_iterations": 15}))
        start = time.perf_counter()
        model.fit(dataset.schema, dataset.answers)
        elapsed = time.perf_counter() - start
        report.add_row(
            len(dataset.answers), num_rows, elapsed, len(dataset.answers) / elapsed
        )
        points.append((len(dataset.answers), elapsed))
    report.add_series("seconds", points)
    report.add_note(
        "The paper reports ~100 answers/second on a 2012-era machine; the "
        "reproduction target is the linear scaling, not the absolute rate."
    )
    return report
