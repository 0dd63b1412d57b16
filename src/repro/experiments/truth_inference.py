"""Table 7 — effectiveness of truth inference.

Runs every compared method (T-Crowd, CRH, CATD, Majority Voting, D&S/EM,
GLAD, ZenCrowd, TC-onlyCate, Median, GTM, TC-onlyCont) on the three
(simulated) real datasets and reports Error Rate / MNAD, exactly like the
paper's Table 7.  Multiple trials regenerate the simulated datasets with
different seeds and the metrics are averaged.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.baselines import (
    CATD,
    CRH,
    DawidSkene,
    GLAD,
    GTM,
    MajorityVoting,
    MedianAggregator,
    ZenCrowd,
)
from repro.core.inference import TCrowdModel
from repro.core.restricted import TCrowdCategoricalOnly, TCrowdContinuousOnly
from repro.datasets import load_celebrity, load_emotion, load_restaurant
from repro.experiments.reporting import ExperimentReport
from repro.metrics import error_rate, mnad

#: Default dataset loaders keyed by display name.
DATASET_LOADERS: Dict[str, Callable] = {
    "Celebrity": load_celebrity,
    "Restaurant": load_restaurant,
    "Emotion": load_emotion,
}


def _method_registry(model_kwargs: Optional[dict] = None) -> List[tuple]:
    """(name, factory, handles_categorical, handles_continuous) for Table 7."""
    model_kwargs = dict(model_kwargs or {})
    return [
        ("T-Crowd", lambda: TCrowdModel(**model_kwargs), True, True),
        ("CRH", CRH, True, True),
        ("CATD", CATD, True, True),
        ("Maj. Voting", MajorityVoting, True, False),
        ("EM", DawidSkene, True, False),
        ("GLAD", GLAD, True, False),
        ("Zencrowd", ZenCrowd, True, False),
        ("TC-onlyCate", lambda: TCrowdCategoricalOnly(**model_kwargs), True, False),
        ("Median", MedianAggregator, False, True),
        ("GTM", GTM, False, True),
        ("TC-onlyCont", lambda: TCrowdContinuousOnly(**model_kwargs), False, True),
    ]


def evaluate_method(method, dataset) -> Dict[str, Optional[float]]:
    """Fit one method on one dataset and return its Error Rate / MNAD."""
    result = method.fit(dataset.schema, dataset.answers)
    metrics: Dict[str, Optional[float]] = {"error_rate": None, "mnad": None}
    if dataset.schema.categorical_indices and getattr(
        method, "supports_categorical", lambda: True
    )():
        metrics["error_rate"] = error_rate(result, dataset)
    if dataset.schema.continuous_indices and getattr(
        method, "supports_continuous", lambda: True
    )():
        metrics["mnad"] = mnad(result, dataset)
    return metrics


def run_table7(
    dataset_names: Optional[Sequence[str]] = None,
    seed: int = 7,
    trials: int = 1,
    num_rows: Optional[int] = None,
    model_kwargs: Optional[dict] = None,
) -> ExperimentReport:
    """Reproduce Table 7 (truth-inference effectiveness).

    ``trials`` regenerates each simulated dataset that many times with
    different seeds and averages the metrics; ``num_rows`` reduces the table
    sizes for quick runs (None keeps the paper's sizes).
    """
    names = list(dataset_names or DATASET_LOADERS)
    report = ExperimentReport(
        experiment_id="table7",
        title="Effectiveness of Truth Inference (Error Rate / MNAD)",
    )
    headers = ["Method"]
    for name in names:
        loader = DATASET_LOADERS[name]
        probe = loader(seed=seed, **({"num_rows": num_rows} if num_rows else {}))
        if probe.schema.categorical_indices:
            headers.append(f"{name} ErrorRate")
        if probe.schema.continuous_indices:
            headers.append(f"{name} MNAD")
    report.headers = headers

    methods = _method_registry(model_kwargs)
    accumulator: Dict[str, Dict[str, List[float]]] = {
        method_name: {} for method_name, *_ in methods
    }
    for trial in range(trials):
        for name in names:
            loader = DATASET_LOADERS[name]
            kwargs = {"seed": seed + trial}
            if num_rows:
                kwargs["num_rows"] = num_rows
            dataset = loader(**kwargs)
            has_cat = bool(dataset.schema.categorical_indices)
            has_cont = bool(dataset.schema.continuous_indices)
            for method_name, factory, handles_cat, handles_cont in methods:
                if not ((handles_cat and has_cat) or (handles_cont and has_cont)):
                    continue
                metrics = evaluate_method(factory(), dataset)
                store = accumulator[method_name]
                if handles_cat and has_cat and metrics["error_rate"] is not None:
                    store.setdefault(f"{name} ErrorRate", []).append(metrics["error_rate"])
                if handles_cont and has_cont and metrics["mnad"] is not None:
                    store.setdefault(f"{name} MNAD", []).append(metrics["mnad"])

    for method_name, *_ in methods:
        row: List = [method_name]
        for header in headers[1:]:
            values = accumulator[method_name].get(header)
            row.append(float(np.mean(values)) if values else None)
        report.add_row(*row)

    report.add_note(
        f"trials={trials}, seed={seed}, num_rows={num_rows or 'paper sizes'}; "
        "datasets are simulated equivalents of the paper's AMT collections "
        "(see the repro.datasets module docstrings)"
    )
    return report
