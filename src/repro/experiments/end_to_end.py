"""Figure 2 — end-to-end system comparison (effectiveness vs budget).

Each compared system pairs an assignment policy with its own truth-inference
method (as in the paper):

* **T-Crowd** — structure-aware information-gain assignment + T-Crowd inference;
* **AskIt!** — highest-uncertainty assignment + majority voting / averaging;
* **CDAS** — confidence-terminated random assignment + majority voting / averaging;
* **CRH** — random assignment + CRH inference;
* **CATD** — random assignment + CATD inference.

The harness runs one simulated crowdsourcing session per system over the same
dataset and budget and reports Error Rate and MNAD as a function of the
average number of answers per task — the five panels of Figure 2 correspond
to (dataset, metric) combinations.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.baselines import CATD, CRH
from repro.baselines.assignment_askit import AskItAssigner
from repro.baselines.assignment_cdas import CDASAssigner
from repro.baselines.assignment_simple import RandomAssigner
from repro.baselines.combined import CombinedInference
from repro.core.assignment import TCrowdAssigner
from repro.core.inference import TCrowdModel
from repro.datasets import load_celebrity, load_emotion, load_restaurant
from repro.experiments.reporting import ExperimentReport
from repro.platform import CrowdsourcingSession, SessionTrace
from repro.utils.exceptions import ConfigurationError

#: Dataset loaders and their paper budget (max answers per task in Figure 2).
_FIGURE2_DATASETS = {
    "Celebrity": (load_celebrity, 5.0),
    "Restaurant": (load_restaurant, 4.0),
    "Emotion": (load_emotion, 10.0),
}


def _build_policies(
    schema,
    seed: int,
    refit_every: int,
    model: TCrowdModel,
    warm_start: bool = False,
):
    """The five compared systems: (name, policy, inference)."""
    return [
        (
            "T-Crowd",
            TCrowdAssigner(
                schema,
                model=model,
                use_structure=True,
                refit_every=refit_every,
                warm_start=warm_start,
            ),
            model,
        ),
        ("AskIt!", AskItAssigner(schema), CombinedInference(name="MV+Median")),
        ("CDAS", CDASAssigner(schema, seed=seed + 1), CombinedInference(name="MV+Median")),
        ("CRH", RandomAssigner(schema, seed=seed + 2), CRH()),
        ("CATD", RandomAssigner(schema, seed=seed + 3), CATD()),
    ]


def run_figure2(
    dataset_name: str = "Celebrity",
    seed: int = 7,
    num_rows: Optional[int] = 40,
    target_answers_per_task: Optional[float] = None,
    initial_answers_per_task: int = 1,
    eval_every: float = 0.5,
    refit_every: Optional[int] = None,
    model_kwargs: Optional[dict] = None,
    warm_start: bool = False,
) -> ExperimentReport:
    """Reproduce one dataset's panels of Figure 2.

    ``num_rows`` defaults to a reduced table so the five sessions finish in
    seconds; pass ``None`` for the paper-sized tables.  ``target_answers_per_task``
    defaults to the paper's budget for the chosen dataset.  ``warm_start``
    opts T-Crowd's refits into reusing the previous inference result; the
    reproduction default stays ``False`` (cold starts) so the figure replays
    the validated seed trajectories — warm starts are tolerance-equivalent
    but break near-ties differently (see ``tests/test_engine.py``).
    """
    if dataset_name not in _FIGURE2_DATASETS:
        raise ConfigurationError(
            f"Unknown dataset {dataset_name!r}; choose from {sorted(_FIGURE2_DATASETS)}"
        )
    loader, paper_budget = _FIGURE2_DATASETS[dataset_name]
    budget = target_answers_per_task or paper_budget
    kwargs = {"seed": seed}
    if num_rows:
        kwargs["num_rows"] = num_rows
    dataset = loader(**kwargs)
    schema = dataset.schema
    refit = refit_every or max(schema.num_columns, 5)
    model = TCrowdModel(**(model_kwargs or {"max_iterations": 15, "m_step_iterations": 20}))

    report = ExperimentReport(
        experiment_id="figure2",
        title=f"End-to-end comparison on {dataset_name} (Error Rate / MNAD vs answers per task)",
        headers=["System", "final answers/task", "final ErrorRate", "final MNAD"],
    )
    traces: Dict[str, SessionTrace] = {}
    for name, policy, inference in _build_policies(
        schema, seed, refit, model, warm_start=warm_start
    ):
        session = CrowdsourcingSession(
            dataset,
            policy,
            inference,
            target_answers_per_task=budget,
            initial_answers_per_task=initial_answers_per_task,
            eval_every_answers_per_task=eval_every,
            seed=seed + 100,
        )
        trace = session.run()
        traces[name] = trace
        final = trace.final
        report.add_row(name, round(final.answers_per_task, 2), final.error_rate, final.mnad)
        if schema.categorical_indices:
            report.add_series(f"{name} ErrorRate", trace.series("error_rate"))
        if schema.continuous_indices:
            report.add_series(f"{name} MNAD", trace.series("mnad"))
    report.add_note(
        f"dataset={dataset_name}, num_rows={num_rows or 'paper size'}, "
        f"budget={budget} answers/task, seed={seed}, refit_every={refit}"
    )
    report.add_note(
        "Each system is evaluated with its own inference method; T-Crowd uses "
        "structure-aware information gain."
    )
    return report
