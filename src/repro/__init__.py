"""T-Crowd: Effective Crowdsourcing for Tabular Data (ICDE 2018) — reproduction.

The :mod:`repro` package implements the complete T-Crowd system described in
the paper, together with every substrate the evaluation depends on:

* :mod:`repro.core` — the unified worker model, EM truth inference,
  information-gain based task assignment, and the structure-aware extension.
* :mod:`repro.engine` — the incremental assignment engine that serves the
  online loop of Algorithm 2: bounded-staleness refits, the decision audit
  ledger and the hot-path timers.
* :mod:`repro.baselines` — all compared truth-inference and assignment
  baselines (Majority Voting, Median, Dawid & Skene, GLAD, ZenCrowd, GTM,
  CRH, CATD, CDAS, AskIt!, and the simple assignment heuristics).
* :mod:`repro.datasets` — the tabular dataset container, the synthetic table
  generator of Section 6.5, simulated Celebrity / Restaurant / Emotion
  datasets, worker-pool simulation, and noise injection.
* :mod:`repro.platform` — an AMT-like crowdsourcing platform simulator used
  for the end-to-end task-assignment experiments.
* :mod:`repro.metrics` — Error Rate, MNAD and supporting metrics.
* :mod:`repro.experiments` — one harness per table / figure of the paper.

Quickstart::

    from repro import datasets, TCrowdModel
    from repro.metrics import error_rate, mnad

    dataset = datasets.load_celebrity(seed=7)
    model = TCrowdModel()
    result = model.fit(dataset.schema, dataset.answers)
    print(error_rate(result, dataset))
    print(mnad(result, dataset))
"""

from repro.core.answers import Answer, AnswerSet
from repro.core.assignment import AssignmentPolicy, TCrowdAssigner
from repro.core.inference import InferenceResult, TCrowdModel
from repro.core.posteriors import Posterior
from repro.core.restricted import TCrowdCategoricalOnly, TCrowdContinuousOnly
from repro.core.schema import AttributeType, Column, TableSchema

__version__ = "1.0.0"

__all__ = [
    "Answer",
    "AnswerSet",
    "AssignmentPolicy",
    "AttributeType",
    "Column",
    "InferenceResult",
    "Posterior",
    "TableSchema",
    "TCrowdAssigner",
    "TCrowdCategoricalOnly",
    "TCrowdContinuousOnly",
    "TCrowdModel",
    "__version__",
]
