"""Answers-to-quality benchmark of the strategy zoo (``--strategies``).

Two measurements feed ``BENCH_engine.json``:

* :func:`verify_strategy_default_identical` — the **safety gate** for the
  strategy seam.  For every serving mode (plain, async) the scripted
  golden-trace session runs twice: once with the default spec (no
  strategy section beyond the implicit ``"paper"``) and once with
  ``strategy = "paper"`` pinned explicitly.  Assignment sequence and
  decision-chain head must match **bit for bit** — proving the strategy
  plumbing added to the factory, the assigner and the provenance genesis
  is invisible when the paper strategy is selected.  Hard-failed by
  ``run_bench.py`` and the CI perf gate.

* :func:`measure_strategy_curves` — the answers-to-quality comparison.
  Every strategy runs the same seeded
  :class:`~repro.platform.CrowdsourcingSession` on every scenario (clean
  crowd, worker churn, spam contamination, difficulty drift — see
  :mod:`repro.platform.scenario`), averaged over a fixed seed panel, and
  the per-checkpoint error-rate curve is recorded.  The paper's gain-based
  strategy must dominate the ``random`` and ``round_robin`` baselines on
  the *clean* scenario (mean error over checkpoints) — the
  ``strategy_paper_dominates_clean`` bit asserted by
  ``check_perf_regression.py``.

The benchmark parameters are **fixed** (not shrunk by ``--smoke``): the
dominance comparison needs the seed panel and the 24-row table to be
statistically meaningful, and every session is fully seeded so the
recorded numbers are deterministic.
"""

from __future__ import annotations

import pathlib
import sys
from typing import Dict, Iterable, Optional, Tuple

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.config import STRATEGY_NAMES, SessionSpec  # noqa: E402
from repro.datasets import load_celebrity  # noqa: E402
from repro.platform import CrowdsourcingSession  # noqa: E402

#: Every strategy in the zoo, paper first.
STRATEGIES: Tuple[str, ...] = STRATEGY_NAMES

#: Scenario name -> SimulationSpec perturbation knobs.
SCENARIOS: Dict[str, dict] = {
    "clean": {},
    "churn": {"worker_churn_rate": 0.25},
    "spam": {"spam_fraction": 0.3},
    "drift": {"difficulty_drift": 0.03},
}

#: The fixed benchmark configuration (see module docstring).
SEED_PANEL: Tuple[int, ...] = (7, 11, 23)
NUM_ROWS = 24
TARGET_ANSWERS_PER_TASK = 2.5
MODEL_KWARGS = {"max_iterations": 6, "m_step_iterations": 10}


def _strategy_options(name: str, seed: int) -> dict:
    """Extra StrategySpec knobs a strategy needs beyond its name."""
    if name in ("random", "epsilon_greedy"):
        return {"seed": seed}
    return {}


def run_strategy_session(
    strategy: str,
    scenario_kwargs: dict,
    seed: int = 7,
    num_rows: int = NUM_ROWS,
    target_answers_per_task: float = TARGET_ANSWERS_PER_TASK,
    model_kwargs: Optional[dict] = None,
) -> Dict[str, object]:
    """One seeded session of one strategy on one scenario.

    Returns the per-checkpoint error-rate curve (answers-per-task, error)
    plus the mean-over-checkpoints and final error — the quality numbers
    the curves aggregate.
    """
    builder = (
        SessionSpec.builder()
        .model(**dict(model_kwargs or MODEL_KWARGS))
        .policy(refit_every=1, warm_start=True)
        .simulation(
            seed=seed,
            target_answers_per_task=target_answers_per_task,
            **scenario_kwargs,
        )
        .strategy(strategy, **_strategy_options(strategy, seed))
    )
    dataset = load_celebrity(seed=seed, num_rows=num_rows)
    trace = CrowdsourcingSession.from_spec(dataset, builder.build()).run()
    curve = [
        [record.answers_per_task, record.error_rate]
        for record in trace.records
        if record.error_rate is not None
    ]
    errors = [point[1] for point in curve]
    return {
        "curve": curve,
        "mean_error_rate": sum(errors) / max(len(errors), 1),
        "final_error_rate": errors[-1] if errors else None,
        "answers_collected": trace.final.answers_collected,
    }


def measure_strategy_curves(
    seeds: Iterable[int] = SEED_PANEL,
    strategies: Iterable[str] = STRATEGIES,
    scenarios: Optional[Dict[str, dict]] = None,
    num_rows: int = NUM_ROWS,
    target_answers_per_task: float = TARGET_ANSWERS_PER_TASK,
    model_kwargs: Optional[dict] = None,
) -> Dict[str, object]:
    """Answers-to-quality curves for every strategy × scenario.

    Per (strategy, scenario) pair the per-seed results are averaged into
    ``mean_error_rate`` / ``final_error_rate``; the first seed's full curve
    is recorded as the representative trace.  The returned dict carries the
    ``strategy_paper_dominates_clean`` bit: paper's mean error on the clean
    scenario must not exceed either baseline's.
    """
    seeds = tuple(seeds)
    strategies = tuple(strategies)
    scenarios = dict(SCENARIOS if scenarios is None else scenarios)
    curves: Dict[str, dict] = {}
    for scenario_name, scenario_kwargs in scenarios.items():
        per_strategy: Dict[str, dict] = {}
        for strategy in strategies:
            runs = [
                run_strategy_session(
                    strategy,
                    scenario_kwargs,
                    seed=seed,
                    num_rows=num_rows,
                    target_answers_per_task=target_answers_per_task,
                    model_kwargs=model_kwargs,
                )
                for seed in seeds
            ]
            per_strategy[strategy] = {
                "mean_error_rate": sum(r["mean_error_rate"] for r in runs)
                / len(runs),
                "final_error_rate": sum(r["final_error_rate"] for r in runs)
                / len(runs),
                "curve": runs[0]["curve"],
            }
        curves[scenario_name] = per_strategy
    clean = curves.get("clean", {})
    paper_mean = clean.get("paper", {}).get("mean_error_rate")
    dominates = True
    for baseline in ("random", "round_robin"):
        baseline_mean = clean.get(baseline, {}).get("mean_error_rate")
        if paper_mean is not None and baseline_mean is not None:
            dominates &= paper_mean <= baseline_mean
    return {
        "strategy_seeds": list(seeds),
        "strategy_num_rows": int(num_rows),
        "strategy_target_answers_per_task": float(target_answers_per_task),
        "strategy_names": list(strategies),
        "strategy_scenarios": sorted(scenarios),
        "strategy_curves": curves,
        "strategy_paper_dominates_clean": bool(dominates),
    }


def verify_strategy_default_identical(
    scenario: Optional[dict] = None,
) -> Dict[str, object]:
    """Default spec vs pinned ``strategy="paper"``, across every serving mode.

    Compares the full assignment sequence and the decision-chain head of
    the scripted golden-trace session.  Any divergence means the strategy
    seam is not byte-neutral for the default — the regression the
    ``strategy_default_identical`` bit hard-fails on.
    """
    from repro.service.bench import SERVING_MODES, run_scripted_session

    results: Dict[str, object] = {}
    identical = True
    for mode in SERVING_MODES:
        base = run_scripted_session(mode, scenario=scenario)
        pinned = run_scripted_session(
            mode, scenario={**(scenario or {}), "strategy": "paper"}
        )
        same = (
            base["decisions"] == pinned["decisions"]
            and base["estimates"] == pinned["estimates"]
            and base["session"].recorder.chain_head
            == pinned["session"].recorder.chain_head
        )
        results[f"strategy_default_identical_{mode}"] = bool(same)
        identical &= same
    results["strategy_default_identical"] = bool(identical)
    return results


def measure_strategy_bench(scenario: Optional[dict] = None) -> Dict[str, object]:
    """Everything ``run_bench.py --strategies`` records."""
    stats = verify_strategy_default_identical(scenario=scenario)
    stats.update(measure_strategy_curves())
    return stats


if __name__ == "__main__":
    import json

    print(json.dumps(measure_strategy_bench(), indent=2))
