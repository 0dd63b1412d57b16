"""Figure 5 — effectiveness of assignment heuristics.

All heuristics use T-Crowd's truth inference (as in the paper's case study);
only the assignment criterion differs:

* Random, Looping, Entropy (raw uniform entropy: the ``uncertainty``
  strategy),
* Inherent Information Gain (Section 5.1),
* Structure-Aware Information Gain (Section 5.2).
"""

from __future__ import annotations

from typing import Optional

from repro.baselines.assignment_simple import LoopingAssigner, RandomAssigner
from repro.config import StrategySpec
from repro.core.assignment import TCrowdAssigner
from repro.core.inference import TCrowdModel
from repro.datasets import load_restaurant
from repro.experiments.reporting import ExperimentReport
from repro.platform import CrowdsourcingSession
from repro.strategies import build_strategy


def run_figure5(
    seed: int = 11,
    num_rows: Optional[int] = 40,
    target_answers_per_task: float = 4.0,
    initial_answers_per_task: int = 1,
    eval_every: float = 0.5,
    refit_every: Optional[int] = None,
    model_kwargs: Optional[dict] = None,
    warm_start: bool = False,
) -> ExperimentReport:
    """Reproduce Figure 5 (assignment heuristics on Restaurant).

    As with Figure 2, ``warm_start`` defaults to ``False`` so the reproduced
    curves replay the validated seed trajectories; pass ``True`` to opt the
    refitting policies into the engine's warm-started EM.
    """
    kwargs = {"seed": seed}
    if num_rows:
        kwargs["num_rows"] = num_rows
    dataset = load_restaurant(**kwargs)
    schema = dataset.schema
    refit = refit_every or max(schema.num_columns, 5)
    model = TCrowdModel(**(model_kwargs or {"max_iterations": 15, "m_step_iterations": 20}))

    heuristics = [
        ("Random", RandomAssigner(schema, seed=seed + 1)),
        ("Looping", LoopingAssigner(schema)),
        (
            "Entropy",
            TCrowdAssigner(
                schema, model=model, refit_every=refit, warm_start=warm_start,
                strategy=build_strategy(StrategySpec(name="uncertainty")),
            ),
        ),
        (
            "Inherent Information Gain",
            TCrowdAssigner(
                schema, model=model, use_structure=False, refit_every=refit,
                warm_start=warm_start,
            ),
        ),
        (
            "Structure-Aware Information Gain",
            TCrowdAssigner(
                schema, model=model, use_structure=True, refit_every=refit,
                warm_start=warm_start,
            ),
        ),
    ]

    report = ExperimentReport(
        experiment_id="figure5",
        title="Effectiveness of assignment heuristics on Restaurant",
        headers=["Heuristic", "final answers/task", "final ErrorRate", "final MNAD"],
    )
    for name, policy in heuristics:
        session = CrowdsourcingSession(
            dataset,
            policy,
            model,
            target_answers_per_task=target_answers_per_task,
            initial_answers_per_task=initial_answers_per_task,
            eval_every_answers_per_task=eval_every,
            seed=seed + 100,
        )
        trace = session.run()
        final = trace.final
        report.add_row(name, round(final.answers_per_task, 2), final.error_rate, final.mnad)
        report.add_series(f"{name} ErrorRate", trace.series("error_rate"))
        report.add_series(f"{name} MNAD", trace.series("mnad"))
    report.add_note(
        f"num_rows={num_rows or 'paper size'}, budget={target_answers_per_task} "
        f"answers/task, seed={seed}; all heuristics use T-Crowd inference"
    )
    return report
