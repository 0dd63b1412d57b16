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
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.config import ServingSpec, SessionSpec
from repro.config.factory import wrap_policy
from repro.core.answers import AnswerSet
from repro.core.assignment import TCrowdAssigner, refit_model
from repro.core.inference import TCrowdModel
from repro.core.structure_gain import StructureAwareGainCalculator
from repro.datasets import generate_synthetic, load_celebrity
from repro.experiments.reporting import ExperimentReport
from repro.strategies import build_strategy
from repro.utils.exceptions import AssignmentError


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
        candidates = list(dataset.schema.cells())
        start = time.perf_counter()
        for row, col in candidates:
            calculator.gain(worker, row, col)
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


def default_max_stale(schema) -> int:
    """The historical production staleness default: two HITs' worth.

    Single definition — the legacy ``max_stale_answers=None`` keyword of
    :func:`measure_engine_speedup` and ``benchmarks/run_bench.py`` (when
    ``--max-stale`` is omitted) both resolve through here.
    """
    return 2 * schema.num_columns


def _truth_agreement(result_a, result_b, schema) -> float:
    """Fraction of cells whose point estimates agree between two fits.

    Categorical cells must produce the same label; continuous cells agree
    when the point estimates are within 5% of each other (or 0.1 absolute),
    mirroring the warm-vs-cold tolerances asserted in
    ``tests/test_engine.py``.
    """
    matches = 0
    total = schema.num_cells
    for row in range(schema.num_rows):
        for col in range(schema.num_columns):
            a = result_a.estimate(row, col)
            b = result_b.estimate(row, col)
            if schema.columns[col].is_categorical:
                matches += a == b
            else:
                matches += abs(float(a) - float(b)) <= max(
                    0.05 * abs(float(b)), 0.1
                )
    return matches / max(total, 1)


def measure_engine_speedup(
    seed: int = 7,
    num_rows: int = 60,
    target_answers_per_task: float = 2.0,
    refit_every: int = 1,
    model_kwargs: Optional[dict] = None,
    max_steps: Optional[int] = None,
    async_refit: bool = False,
    max_stale_answers: Optional[int] = None,
    async_refit_tol: Optional[float] = 1e-3,
    spec: Optional[SessionSpec] = None,
    timing_repeats: int = 1,
) -> Dict[str, object]:
    """Time the online assignment loop on the seed path vs the engine paths.

    Every path replays the exact same simulated session (same dataset, same
    worker arrivals, same answer oracle draws) through
    :class:`TCrowdAssigner` at the Algorithm 2 cadence (``refit_every=1`` by
    default).  Up to four configurations are timed:

    * **seed** — ``warm_start/vectorized/incremental`` all off: the
      from-scratch behaviour of the seed implementation (cold EM, scalar
      per-cell gains, full candidate rescans);
    * **engine (exact)** — incremental candidate indexing + vectorised batch
      gains.  These are pure refactors of the same arithmetic, so the
      assignment sequence must be *identical* to the seed path (returned as
      ``identical_assignments`` and asserted by the benchmark);
    * **engine (warm)** — additionally warm-starts each EM refit from the
      previous result.  Warm starts change the optimiser trajectory, so this
      path is equivalent only up to the EM tolerance (see
      ``tests/test_engine.py``); its step-level agreement with the seed
      sequence is reported as ``warm_vs_cold_agreement``, and because near-ties make
      that number look alarming on its own, the *posterior-truth* agreement
      between the warm path's final fit and a cold EM fit on the same
      answers is reported alongside as ``warm_truth_agreement`` (see
      :func:`_truth_agreement`);
    * **engine (async)** — only when ``async_refit`` is set.  Two runs:
      the staleness-equivalence run serves the exact engine configuration
      through an :class:`~repro.engine.AsyncRefitPolicy` at
      ``max_stale_answers=0`` (every select blocks until the model has
      seen all answers), whose sequence must replay the seed path bit for
      bit (``identical_assignments_async``) and whose final truth
      estimates must equal the seed path's exactly
      (``identical_estimates_async`` — the check that catches a stale
      scoring-cache hit); and the production run, which
      lets selects score against snapshots up to ``max_stale_answers``
      answers behind (default: two HITs' worth) while a background worker
      refits warm-started with objective-based early stopping
      (``async_refit_tol``).  Its wall-clock is compared against the
      *synchronous engine path*: ``speedup_async = seconds_engine_path /
      seconds_engine_async_path``.

    ``spec`` is the canonical way to configure the benchmark: a
    :class:`~repro.config.SessionSpec` supplies the policy options (every
    :class:`~repro.config.PolicySpec` field plus the model options; the
    ``warm_start`` / ``vectorized`` / ``incremental`` switches are the
    benchmark's own matrix axes and are overridden per timed path), the
    serving matrix (``serving.async_refit`` enables the async paths,
    ``serving.refit_tol`` sets the production refit tolerance) and the
    simulation budget
    (``simulation.target_answers_per_task`` / ``seed`` / ``max_steps``);
    only the dataset size (``num_rows``) stays a benchmark argument.  The
    individual keyword arguments remain as a convenience and are folded
    into a spec internally — the resolved spec is recorded in the returned
    stats as ``spec``.  Staleness semantics are defined once, on
    :class:`~repro.config.ServingSpec`, and the *timed production run*
    honours ``serving.max_stale_answers`` exactly (``0`` times the
    blocking mode, ``null`` the unbounded one); only the legacy
    ``max_stale_answers=None`` keyword keeps its historical meaning of
    "two HITs' worth", resolved against the dataset and recorded as the
    actual bound in the returned spec.

    ``timing_repeats`` re-runs every *timed* path that many times and
    reports the best (minimum) wall clock — the noise-robust estimator for
    the sub-second smoke tier, where a single sample can swing 2× on a
    shared machine.  The equivalence replays run once (their decisions are
    deterministic), and the recorded value is echoed back as
    ``timing_repeats``.
    """
    if spec is None:
        dataset = load_celebrity(seed=seed, num_rows=num_rows)
        builder = (
            SessionSpec.builder()
            .model(**dict(model_kwargs or {"max_iterations": 10, "m_step_iterations": 15}))
            .policy(refit_every=refit_every)
            .simulation(
                target_answers_per_task=target_answers_per_task,
                seed=seed,
                max_steps=max_steps,
            )
        )
        if async_refit:
            builder.async_refit(
                max_stale=(
                    default_max_stale(dataset.schema)
                    if max_stale_answers is None
                    else max_stale_answers
                ),
                refit_tol=async_refit_tol,
            )
        spec = builder.build()
    else:
        seed = spec.simulation.seed if spec.simulation.seed is not None else seed
        target_answers_per_task = spec.simulation.target_answers_per_task
        max_steps = spec.simulation.max_steps
        refit_every = spec.policy.refit_every
        model_kwargs = spec.policy.model.to_kwargs()
        async_refit = spec.serving.async_refit
        # The spec is honoured exactly: refit_tol=None means no objective
        # early stopping in the timed runs, exactly as it would through
        # from_spec or the HTTP service.
        async_refit_tol = spec.serving.refit_tol
        dataset = load_celebrity(seed=seed, num_rows=num_rows)
    schema = dataset.schema
    pool = dataset.worker_pool
    worker_ids = pool.worker_ids()
    activities = pool.activities()
    extra_answers = int(
        round((target_answers_per_task - 1.0) * schema.num_cells)
    )
    options = dict(model_kwargs or {"max_iterations": 10, "m_step_iterations": 15})

    def run_path(
        warm_start: bool,
        fast: bool,
        async_stale: object = "off",
        refit_tol: Optional[float] = None,
        capture_estimates: bool = False,
    ) -> Tuple[List[tuple], float, int, object, AnswerSet, Optional[dict]]:
        rng = np.random.default_rng(seed)
        answers = AnswerSet(schema)
        for row in range(schema.num_rows):
            chosen = int(rng.choice(len(worker_ids), p=activities))
            worker = worker_ids[chosen]
            for col in range(schema.num_columns):
                value = dataset.oracle.answer(worker, row, col, rng)
                answers.add_answer(worker, row, col, value)
        # Every PolicySpec field flows into the assigner except the
        # warm_start/vectorized/incremental switches, which are the
        # benchmark's matrix axes (each timed path overrides them), and
        # refit_tol, which only the production async runs enable.
        assigner = TCrowdAssigner(
            schema,
            model=TCrowdModel(**options),
            use_structure=spec.policy.use_structure,
            refit_every=refit_every,
            continuous_samples=spec.policy.continuous_samples,
            max_answers_per_cell=spec.policy.max_answers_per_cell,
            min_pairs=spec.policy.min_pairs,
            seed=spec.policy.seed,
            warm_start=warm_start,
            vectorized=fast,
            incremental=fast,
            refit_tol=refit_tol,
            strategy=build_strategy(spec.policy.strategy),
        )
        # The serving wrapper comes from the same factory table every other
        # entry point (platform session, HTTP service) uses.
        policy = wrap_policy(
            assigner,
            ServingSpec(
                async_refit=async_stale != "off",
                max_stale_answers=0 if async_stale == "off" else async_stale,
            ),
        )
        decisions: List[tuple] = []
        collected = 0
        steps = 0
        failures = 0
        try:
            start = time.perf_counter()
            while collected < extra_answers and failures < 10 * len(worker_ids):
                if max_steps is not None and steps >= max_steps:
                    break
                worker = worker_ids[int(rng.choice(len(worker_ids), p=activities))]
                batch = min(schema.num_columns, extra_answers - collected)
                try:
                    assignment = policy.select(worker, answers, k=batch)
                except AssignmentError:
                    failures += 1
                    continue
                failures = 0
                decisions.append((worker, assignment.cells))
                for row, col in assignment.cells:
                    value = dataset.oracle.answer(worker, row, col, rng)
                    answers.add_answer(worker, row, col, value)
                collected += len(assignment.cells)
                policy.observe(answers)
                steps += 1
            elapsed = time.perf_counter() - start
            estimates = None
            if capture_estimates:
                # Final truth estimates over the complete answer set, via the
                # policy's own final_result (a cold fit on the warm_start=False
                # paths) — the equivalence evidence for
                # identical_estimates_async.
                estimates = policy.final_result(answers).estimates()
        finally:
            if policy is not assigner:
                policy.close()
        return decisions, elapsed, collected, assigner, answers, estimates

    def timed_path(**kwargs):
        # Best-of-N wall clock: every repeat replays the identical session
        # (same rng seed), so the minimum is the run least perturbed by the
        # machine — the standard noise-robust estimator for tiny timings.
        # Decisions/estimates come from the first repeat (they are
        # deterministic across repeats anyway).
        first = run_path(**kwargs)
        best = first[1]
        for _ in range(timing_repeats - 1):
            best = min(best, run_path(**kwargs)[1])
        return (first[0], best) + first[2:]

    seed_decisions, seed_seconds, seed_collected, _, _, seed_estimates = timed_path(
        warm_start=False, fast=False, capture_estimates=async_refit
    )
    exact_decisions, exact_seconds, _, _, _, _ = timed_path(
        warm_start=False, fast=True
    )
    warm_decisions, warm_seconds, _, warm_assigner, warm_answers, _ = timed_path(
        warm_start=True, fast=True
    )
    agreement_steps = sum(
        1 for a, b in zip(seed_decisions, warm_decisions) if a == b
    )
    # Context for the (near-tie-dominated) step agreement: do the warm path's
    # final posteriors decode to the same truths a cold EM would infer from
    # the very same answers?  At refit_every > 1 the loop's last fit may
    # predate the last few answers — bring it up to date (one more warm
    # refit) so both fits see the identical answer set.
    cold_final = TCrowdModel(**options).fit(schema, warm_answers)
    warm_final = warm_assigner.last_result
    if warm_final is not None and (
        warm_assigner.answers_at_last_fit != len(warm_answers)
    ):
        warm_final = refit_model(
            warm_assigner.model, schema, warm_answers,
            previous=warm_final, warm_start=True,
        )
    warm_truth_agreement = (
        _truth_agreement(warm_final, cold_final, schema)
        if warm_final is not None
        else 0.0
    )
    stats: Dict[str, object] = {
        "spec": spec.to_dict(),
        "seed": seed,
        "num_rows": num_rows,
        "num_columns": schema.num_columns,
        "refit_every": refit_every,
        "target_answers_per_task": target_answers_per_task,
        "steps": len(seed_decisions),
        "answers_collected": seed_collected,
        "seconds_seed_path": seed_seconds,
        "seconds_engine_path": exact_seconds,
        "seconds_engine_warm_path": warm_seconds,
        "speedup": seed_seconds / max(exact_seconds, 1e-12),
        "speedup_warm": seed_seconds / max(warm_seconds, 1e-12),
        "identical_assignments": seed_decisions == exact_decisions,
        # warm_vs_cold_agreement counts steps where the warm path took the
        # exact same decision as the cold seed path — dominated by near-ties,
        # hence the honest name.
        "warm_vs_cold_agreement": agreement_steps / max(len(seed_decisions), 1),
        "warm_truth_agreement": warm_truth_agreement,
        "model_kwargs": options,
        "timing_repeats": int(timing_repeats),
    }
    if async_refit:
        # Staleness-equivalence run: max_stale_answers=0 disables background
        # refits and blocks every select until the model has seen all
        # answers, so the async serving path must replay the seed sequence
        # bit for bit.
        async_exact_decisions, _, _, _, _, async_estimates = run_path(
            warm_start=False, fast=True, async_stale=0, capture_estimates=True
        )
        stats["identical_assignments_async"] = (
            seed_decisions == async_exact_decisions
        )
        # The estimate-equality bit: both runs end with a cold fit over the
        # same final answer set (the async snapshot chain replays the
        # synchronous one at stale=0), so the decoded truths must match
        # exactly — a strictly stronger check than the assignment sequence,
        # and the one that would catch a stale scoring-cache hit.
        stats["identical_estimates_async"] = seed_estimates == async_estimates
        # Production run: the spec's staleness bound, honoured exactly
        # (0 times the blocking mode, None the unbounded one), with
        # background warm-started refits and objective-based early
        # stopping.  Compared against the *synchronous engine path*, not
        # the seed path: the async win is on top of the engine's.
        stale = spec.serving.max_stale_answers
        _, async_seconds, _, _, _, _ = timed_path(
            warm_start=True, fast=True, async_stale=stale,
            refit_tol=async_refit_tol,
        )
        stats["async_max_stale_answers"] = stale
        stats["async_refit_tol"] = async_refit_tol
        stats["seconds_engine_async_path"] = async_seconds
        stats["speedup_async"] = exact_seconds / max(async_seconds, 1e-12)
    return stats


def _nearest_rank(sorted_values: List[float], quantile: float) -> float:
    """Nearest-rank percentile over an ascending list (0 when empty)."""
    if not sorted_values:
        return 0.0
    rank = max(int(np.ceil(quantile * len(sorted_values))) - 1, 0)
    return float(sorted_values[min(rank, len(sorted_values) - 1)])


def profile_hot_path(
    seed: int = 7,
    num_rows: int = 60,
    target_answers_per_task: float = 2.0,
    max_stale_answers: Optional[int] = None,
    refit_tol: Optional[float] = 1e-3,
    model_kwargs: Optional[dict] = None,
    max_steps: Optional[int] = None,
) -> Dict[str, object]:
    """Run the async production path once with per-stage timers attached.

    Replays the same scripted session as :func:`measure_engine_speedup`'s
    async production run, but with a
    :class:`~repro.engine.HotPathProfile` wired into the policy stack, and
    returns the per-stage breakdown (``profile_stages``) plus the scoring
    cache hit counters.  Kept separate from the timed benchmark runs so the
    (small) profiling overhead never contaminates the recorded speedups.
    """
    from repro.engine import HotPathProfile

    dataset = load_celebrity(seed=seed, num_rows=num_rows)
    schema = dataset.schema
    pool = dataset.worker_pool
    worker_ids, activities = pool.worker_ids(), pool.activities()
    if max_stale_answers is None:
        max_stale_answers = default_max_stale(schema)
    options = dict(
        model_kwargs or {"max_iterations": 10, "m_step_iterations": 15}
    )
    rng = np.random.default_rng(seed)
    answers = AnswerSet(schema)
    for row in range(schema.num_rows):
        worker = worker_ids[int(rng.choice(len(worker_ids), p=activities))]
        for col in range(schema.num_columns):
            answers.add_answer(
                worker, row, col, dataset.oracle.answer(worker, row, col, rng)
            )
    assigner = TCrowdAssigner(
        schema,
        model=TCrowdModel(**options),
        refit_every=1,
        warm_start=True,
        refit_tol=refit_tol,
    )
    policy = wrap_policy(
        assigner,
        ServingSpec(async_refit=True, max_stale_answers=max_stale_answers),
    )
    profile = HotPathProfile()
    policy.set_profile(profile)
    extra = int(round((target_answers_per_task - 1.0) * schema.num_cells))
    collected = steps = failures = 0
    try:
        start = time.perf_counter()
        while collected < extra and failures < 10 * len(worker_ids):
            if max_steps is not None and steps >= max_steps:
                break
            worker = worker_ids[int(rng.choice(len(worker_ids), p=activities))]
            batch = min(schema.num_columns, extra - collected)
            try:
                assignment = policy.select(worker, answers, k=batch)
            except AssignmentError:
                failures += 1
                continue
            failures = 0
            for row, col in assignment.cells:
                answers.add_answer(
                    worker, row, col,
                    dataset.oracle.answer(worker, row, col, rng),
                )
            collected += len(assignment.cells)
            policy.observe(answers)
            steps += 1
        elapsed = time.perf_counter() - start
    finally:
        policy.close()
    return {
        "profile_stages": profile.to_dict(),
        "profile_steps": steps,
        "profile_seconds": elapsed,
        "profile_num_rows": num_rows,
        "profile_max_stale_answers": max_stale_answers,
        "profile_scoring_cache_hits": policy.scoring_cache_hits,
        "profile_scoring_cache_misses": policy.scoring_cache_misses,
    }


def measure_scale_benchmark(
    seed: int = 7,
    num_rows: int = 10_000,
    num_columns: int = 10,
    num_workers: int = 300,
    max_steps: int = 15,
    selects_per_step: int = 3,
    max_stale_answers: Optional[int] = None,
    refit_tol: Optional[float] = 1e-3,
    model_kwargs: Optional[dict] = None,
) -> Dict[str, object]:
    """The ``--scale`` benchmark tier: the serving paths at production size.

    Everything recorded by the default tier comes from a toy Celebrity
    slice; this tier drives a synthetic table of ``num_rows`` rows (>= 10k
    by default, one seed answer per cell) and a crowd of ``num_workers``
    workers through a bounded number of assignment steps on each serving
    path that stays feasible at this size:

    * **engine (sync)** — the warm-started synchronous engine, paying one
      EM refit per select (Algorithm 2 cadence);
    * **async** — bounded-staleness async refit serving, with the scoring
      cache over async snapshots.

    Each step has ``selects_per_step`` distinct workers poll for tasks
    before their answers are ingested in one batch — the serving pattern
    of a real crowd, where many workers request work between answer
    arrivals.  That access pattern is exactly what the async policy's
    scoring cache targets (repeat selects against an unchanged snapshot
    and answer prefix), so the recorded cache hit counts are meaningful
    rather than structurally zero.

    The from-scratch seed path is omitted — a cold EM per select over
    ~``num_rows * num_columns`` answers is minutes *per step* and measures
    nothing the small tier doesn't already pin.  Speedups are therefore
    relative to the synchronous engine path (``speedup_async_scale``),
    matching the small tier's ``speedup_async`` convention, with
    nearest-rank select p50/p99s
    alongside.  A cold-fit ``lbfgs``-vs-``newton`` M-step comparison over
    the full seeded answer set rides along (``scale_m_step``), recording
    ``iterations_run`` / ``stopped_by`` / wall-clock for both.
    """
    spec = (
        SessionSpec.builder()
        .model(**dict(model_kwargs or {"max_iterations": 8, "m_step_iterations": 15}))
        .policy(refit_every=1, warm_start=True)
        .simulation(seed=seed, max_steps=max_steps)
        .build()
    )
    options = spec.policy.model.to_kwargs()
    dataset = generate_synthetic(
        num_rows=num_rows,
        num_columns=num_columns,
        categorical_ratio=0.5,
        answers_per_task=1,
        num_workers=num_workers,
        seed=seed,
    )
    schema = dataset.schema
    pool = dataset.worker_pool
    worker_ids, activities = pool.worker_ids(), pool.activities()
    if max_stale_answers is None:
        max_stale_answers = default_max_stale(schema)

    def run_serving(serving: Optional[ServingSpec]):
        rng = np.random.default_rng(seed)
        answers = dataset.answers.copy()
        assigner = TCrowdAssigner(
            schema,
            model=TCrowdModel(**options),
            refit_every=spec.policy.refit_every,
            warm_start=True,
            refit_tol=refit_tol,
        )
        policy = (
            assigner if serving is None else wrap_policy(assigner, serving)
        )
        latencies: List[float] = []
        steps = failures = 0
        cache_stats = (0, 0)
        try:
            start = time.perf_counter()
            while steps < max_steps and failures < 10:
                # All of the step's selects run before any of its answers
                # are ingested (workers poll concurrently in production;
                # the driver serialises them for determinism).
                assignments = []
                for _poll in range(selects_per_step):
                    worker = worker_ids[
                        int(rng.choice(len(worker_ids), p=activities))
                    ]
                    before = time.perf_counter()
                    try:
                        assignment = policy.select(
                            worker, answers, k=num_columns
                        )
                    except AssignmentError:
                        failures += 1
                        continue
                    latencies.append(time.perf_counter() - before)
                    failures = 0
                    assignments.append(assignment)
                for assignment in assignments:
                    for row, col in assignment.cells:
                        answers.add_answer(
                            assignment.worker, row, col,
                            dataset.oracle.answer(
                                assignment.worker, row, col, rng
                            ),
                        )
                if assignments:
                    policy.observe(answers)
                    steps += 1
            elapsed = time.perf_counter() - start
            cache_stats = (
                getattr(policy, "scoring_cache_hits", 0),
                getattr(policy, "scoring_cache_misses", 0),
            )
        finally:
            if policy is not assigner:
                policy.close()
        latencies.sort()
        return {
            "seconds": elapsed,
            "steps": steps,
            "select_p50_ms": _nearest_rank(latencies, 0.50) * 1000.0,
            "select_p99_ms": _nearest_rank(latencies, 0.99) * 1000.0,
            "cache": cache_stats,
        }

    sync_run = run_serving(None)
    async_run = run_serving(
        ServingSpec(
            async_refit=True,
            max_stale_answers=max_stale_answers,
            refit_tol=refit_tol,
        )
    )

    # Cold-fit M-step comparison at scale: same answers, same budget, the
    # only difference is the optimiser behind Eq. 5.
    m_step_stats: Dict[str, object] = {}
    for variant in ("lbfgs", "newton"):
        model = TCrowdModel(**{**options, "m_step": variant})
        fit_start = time.perf_counter()
        result = model.fit(schema, dataset.answers, tol=refit_tol)
        fit_seconds = time.perf_counter() - fit_start
        m_step_stats[variant] = {
            "seconds": fit_seconds,
            "iterations_run": result.iterations_run,
            "stopped_by": result.stopped_by,
            "objective": result.objective_trace[-1],
        }
    m_step_stats["newton_speedup"] = (
        m_step_stats["lbfgs"]["seconds"]
        / max(m_step_stats["newton"]["seconds"], 1e-12)
    )

    return {
        "scale_spec": spec.to_dict(),
        "scale_num_rows": num_rows,
        "scale_num_columns": num_columns,
        "scale_num_workers": len(worker_ids),
        "scale_num_answers_seeded": len(dataset.answers),
        "scale_steps": max_steps,
        "scale_selects_per_step": selects_per_step,
        "scale_max_stale_answers": max_stale_answers,
        "seconds_engine_scale": sync_run["seconds"],
        "seconds_async_scale": async_run["seconds"],
        "speedup_async_scale": (
            sync_run["seconds"] / max(async_run["seconds"], 1e-12)
        ),
        "scale_select_p50_ms": async_run["select_p50_ms"],
        "scale_select_p99_ms": async_run["select_p99_ms"],
        "scale_select_p50_ms_engine": sync_run["select_p50_ms"],
        "scale_select_p99_ms_engine": sync_run["select_p99_ms"],
        "scale_scoring_cache_hits": async_run["cache"][0],
        "scale_scoring_cache_misses": async_run["cache"][1],
        "scale_m_step": m_step_stats,
    }


def run_engine_speedup(
    seed: int = 7,
    num_rows: int = 60,
    target_answers_per_task: float = 2.0,
    refit_every: int = 1,
    model_kwargs: Optional[dict] = None,
    max_steps: Optional[int] = None,
    async_refit: bool = False,
    max_stale_answers: Optional[int] = None,
    spec: Optional[SessionSpec] = None,
) -> ExperimentReport:
    """Engine-vs-seed wall-clock of the online loop (Algorithm 2 cadence).

    The companion of Figures 11/12 for the incremental engine: how much
    faster the warm-started, vectorised, incrementally-indexed loop runs at
    ``refit_every=1`` while taking identical assignment decisions.
    """
    stats = measure_engine_speedup(
        seed=seed,
        num_rows=num_rows,
        target_answers_per_task=target_answers_per_task,
        refit_every=refit_every,
        model_kwargs=model_kwargs,
        max_steps=max_steps,
        async_refit=async_refit,
        max_stale_answers=max_stale_answers,
        spec=spec,
    )
    return engine_speedup_report(stats)


def engine_speedup_report(stats: Dict[str, object]) -> ExperimentReport:
    """Format the output of :func:`measure_engine_speedup` as a report."""
    report = ExperimentReport(
        experiment_id="engine_speedup",
        title="Incremental engine speedup of the online assignment loop",
        headers=["path", "seconds", "speedup", "identical decisions"],
    )
    report.add_row("seed (cold EM, scalar gains, full rescans)",
                   stats["seconds_seed_path"], 1.0, True)
    report.add_row("engine (batch gains, O(1) indexes)",
                   stats["seconds_engine_path"], stats["speedup"],
                   stats["identical_assignments"])
    report.add_row("engine + warm-start EM",
                   stats["seconds_engine_warm_path"], stats["speedup_warm"],
                   f"agreement={stats['warm_vs_cold_agreement']:.2f}")
    series = [
        (0, stats["seconds_seed_path"]),
        (1, stats["seconds_engine_path"]),
        (2, stats["seconds_engine_warm_path"]),
    ]
    if "speedup_async" in stats:
        report.add_row(
            f"engine, async refit (max_stale={stats['async_max_stale_answers']}, "
            f"tol={stats['async_refit_tol']})",
            stats["seconds_engine_async_path"],
            stats["speedup_async"],
            f"exact@stale=0: {stats['identical_assignments_async']}",
        )
        series.append((3, stats["seconds_engine_async_path"]))
    report.add_series("seconds", series)
    report.add_note(
        f"num_rows={stats['num_rows']}, refit_every={stats['refit_every']}, "
        f"steps={stats['steps']}, answers={stats['answers_collected']}, "
        f"speedup={stats['speedup']:.2f}x (exact), "
        f"speedup_warm={stats['speedup_warm']:.2f}x, "
        f"identical_assignments={stats['identical_assignments']}"
    )
    report.add_note(
        "The exact engine path must take bitwise-identical assignment "
        "decisions; the warm-start path converges to the same posteriors "
        "within the EM tolerance (see tests/test_engine.py) but may break "
        "near-ties differently."
    )
    report.add_note(
        "warm_vs_cold_agreement counts identical *decisions* and is dominated by "
        "near-ties; warm_truth_agreement="
        f"{stats.get('warm_truth_agreement', float('nan')):.2f} is the "
        "fraction of cells whose inferred truths match a cold EM fit on the "
        "same answers — the number that shows the warm path lands on the "
        "same answers."
    )
    if "speedup_async" in stats:
        report.add_note(
            "speedup_async compares the bounded-staleness async path against "
            "the *synchronous engine path* (not the seed path): selects "
            "serve the latest background snapshot lock-free, and warm "
            "refits stop early once the EM objective flattens.  The "
            "equivalence bit is recorded at max_stale_answers=0, where the "
            "async path must replay the seed sequence bit for bit."
        )
    return report
