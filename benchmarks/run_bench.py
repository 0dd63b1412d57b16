"""Entry point that records the engine's timing baseline to BENCH_engine.json.

Runs the end-to-end online assignment loop of ``measure_engine_speedup`` at
the Algorithm 2 cadence (``refit_every=1``) on the seed path (cold EM, scalar
gains, full candidate rescans) and on the engine paths (incremental indexes +
vectorised batch gains; warm-started EM; async refit), then
writes the wall-clock numbers and the decision-equivalence checks as JSON.

Run from the repo root::

    PYTHONPATH=src python benchmarks/run_bench.py [--out BENCH_engine.json]

``--smoke`` shrinks the scenario so CI can exercise the full code path in a
few seconds; timed paths report best-of-N wall clock (``--repeats``,
default 5 at smoke size) because single sub-second samples are too noisy to
gate on.  The committed ``BENCH_engine.json`` is a smoke-tier run recorded
with ``--profile --scale``; the CI perf gate in
``scripts/check_perf_regression.py`` compares a fresh smoke run against it
with headroom for runner jitter, plus an absolute 1.5x floor on the
async serving path.

Recorded fields (see also ``benchmarks/README.md``):

* ``speedup`` / ``speedup_warm`` — seed-path seconds divided by the
  engine / warm-start path seconds.
* ``speedup_async`` (with ``--async-refit``) — *synchronous engine path*
  seconds divided by the bounded-staleness async path's seconds: selects
  serve background snapshots lock-free and warm refits stop early on the
  EM objective, so this is the async win on top of the engine's.
* ``identical_assignments`` / ``identical_assignments_async`` — the exact
  engine path and the async path at ``max_stale_answers=0`` must replay
  the seed path's assignment sequence bit for bit; both are hard failures
  here and in CI.
* ``repeats`` — the effective best-of-N repeat count the timed paths used,
  recorded so the CI gate can verify baseline and candidate measured with
  the same estimator.
* ``recovery_identical`` (with ``--serve``) — a durable session killed
  mid-run (write-ahead log with a torn tail) must recover and continue to
  the very same assignment sequence and final estimates as an
  uninterrupted run (see :mod:`repro.service.wal`).
* ``recovery_rotation_identical`` / ``recovery_rotation_disk_bounded``
  (with ``--serve``) — the same equivalence with WAL segment rotation and
  snapshot GC enabled, per storage backend (JSONL segments and SQLite),
  plus the bounded-disk guarantee: at most ``keep_snapshots`` snapshots
  and 2 log segments survive the run.
* ``serve_requests_per_sec`` / ``serve_select_p50_ms`` /
  ``serve_select_p99_ms`` (with ``--serve``) — HTTP serving throughput of
  one scripted session driven against a live ``repro.service`` server on
  an ephemeral port.
* ``audit_replay_identical`` (with ``--serve``) — a crashed audited
  session, recovered per storage backend, must re-derive every decision
  record from the WAL with hashes identical to the logged ledger (hard
  failure here and in CI; see :mod:`repro.engine.provenance`).
* ``audit_overhead_ratio`` (with ``--serve``) — relative wall-clock cost
  of decision recording on the scripted scenario; the CI gate floors it
  at < 10 %.
* ``identical_estimates_async`` — the async equivalence run's *final truth
  estimates* must also match the seed path's exactly (both end with a cold
  fit over the same final answer set), not just the assignment sequence —
  the check that catches a stale scoring-cache hit; hard failure here and
  in the CI perf gate.
* ``strategy_default_identical`` (with ``--strategies``) — pinning
  ``policy.strategy = "paper"`` explicitly must reproduce the default
  spec's assignment sequence, final estimates and decision-chain head bit
  for bit across **every** serving mode (hard failure; per-mode bits in
  ``strategy_default_identical_<mode>``).  ``strategy_curves`` records the
  answers-to-quality curves per strategy × scenario (clean / churn / spam /
  drift — see ``benchmarks/strategy_bench.py``), and
  ``strategy_paper_dominates_clean`` asserts the paper's gain-based
  selector beats the ``random`` and ``round_robin`` baselines on the clean
  scenario (hard failure here and in the CI perf gate).
* ``warm_vs_cold_agreement`` — fraction of *steps* where the warm-start
  path took the very same decision as the seed (cold-EM) path.  Warm starts
  perturb the EM trajectory, and most gain rankings are near-ties, so this
  number is small (~0.03 on the default scenario) without anything being
  wrong.  (The deprecated ``warm_agreement`` alias has been removed.)
* ``warm_truth_agreement`` — the context for the above: the fraction of
  cells whose inferred truths (posterior point estimates) match between the
  warm path's final fit and a cold EM fit on the same answers.  This is the
  number that should be high — the warm path lands on the same truths, it
  just breaks scoring ties differently along the way.
* ``profile_*`` (with ``--profile``) — a separate, untimed run of the
  async production path with per-stage timers attached:
  ``profile_stages`` breaks the hot path into snapshot acquisition, lock
  wait, EM refit, calculator build, batch scoring and top-K merge (calls,
  seconds, max, mean and latency histogram buckets per stage),
  ``profile_top_functions`` lists the top cProfile entries by cumulative
  time, and ``profile_scoring_cache_hits``/``_misses`` report the
  snapshot-keyed calculator cache.  The profiling run is separate from the
  timed runs so its overhead never contaminates the recorded speedups.
* ``*_scale`` (with ``--scale``) — the scaled benchmark tier: a synthetic
  table of >= 10k rows and hundreds of workers driven through the sync
  engine and async serving paths for a bounded number of steps
  (``speedup_async_scale`` relative to the synchronous engine path, select
  p50/p99 latencies per path, and a cold-fit ``lbfgs``-vs-``newton``
  M-step comparison in ``scale_m_step``).  Non-gating: the scaled tier
  exists to catch regressions that a 60-row table cannot express (cache
  behaviour, EM cost at real answer counts).

Timing runs pin the BLAS/OpenMP thread pools to one thread (unless the
caller already exported a value) so recorded baselines do not depend on
the machine's core count; the effective values are recorded in the
payload's ``thread_env``.
"""

from __future__ import annotations

import argparse
import cProfile
import io
import json
import os
import pathlib
import platform
import pstats
import sys
import time

# Pin the numeric thread pools *before* numpy/scipy load their BLAS — a
# benchmark that silently uses however many cores the runner has is not a
# baseline.  setdefault keeps an explicit caller override in force.
_THREAD_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _var in _THREAD_ENV_VARS:
    os.environ.setdefault(_var, "1")

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.config import SessionSpec  # noqa: E402
from repro.experiments.efficiency import measure_engine_speedup  # noqa: E402


def spec_from_args(args, target: float) -> SessionSpec:
    """Fold the CLI flags into the canonical session spec.

    The benchmark no longer threads its own keyword arguments through
    ``measure_engine_speedup`` — it builds the same
    :class:`~repro.config.SessionSpec` document every other entry point
    consumes, and the resolved spec is recorded in the JSON baseline.
    Without ``--max-stale`` the timed async path keeps its historical
    default of two HITs' worth of staleness (the Celebrity schema's
    column count is fixed, whatever ``--rows`` says); ``--max-stale 0``
    explicitly times the blocking mode.
    """
    builder = (
        SessionSpec.builder()
        .model(max_iterations=10, m_step_iterations=15)
        .policy(refit_every=args.refit_every)
        .simulation(target_answers_per_task=target, seed=args.seed)
    )
    if args.async_refit:
        if args.max_stale is None:
            from repro.datasets import load_celebrity
            from repro.experiments.efficiency import default_max_stale

            stale = default_max_stale(
                load_celebrity(seed=args.seed, num_rows=2).schema
            )
        else:
            stale = args.max_stale
        # The timed async runs always used objective early stopping at the
        # 1e-3 default; pin it in the spec so the recorded document is the
        # exact configuration the run used.
        builder.async_refit(max_stale=stale, refit_tol=1e-3)
    return builder.build()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out",
        type=pathlib.Path,
        default=REPO_ROOT / "BENCH_engine.json",
        help="where to write the JSON baseline (default: repo root)",
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--rows", type=int, default=60)
    parser.add_argument("--target", type=float, default=2.0,
                        help="budget in answers per task")
    parser.add_argument("--refit-every", type=int, default=1)
    parser.add_argument(
        "--async-refit", action="store_true",
        help="also time the async-refit path and record the "
        "max_stale_answers=0 staleness-equivalence bit",
    )
    parser.add_argument(
        "--max-stale", type=int, default=None,
        help="staleness bound (answers) for the timed async path "
        "(default: two HITs' worth)",
    )
    parser.add_argument(
        "--serve", action="store_true",
        help="also run the HTTP serving benchmark and the WAL "
        "crash-recovery equivalence check (repro.service)",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="also run the async hot path once under per-stage timers "
        "and cProfile, recording the breakdown as profile_* fields "
        "(separate from the timed runs)",
    )
    parser.add_argument(
        "--strategies", action="store_true",
        help="also run the strategy-zoo benchmark: the "
        "strategy_default_identical equivalence gate (strategy='paper' "
        "must reproduce the default bit for bit across every serving "
        "mode) and the answers-to-quality curves per strategy x scenario "
        "(paper must dominate the baselines on the clean scenario)",
    )
    parser.add_argument(
        "--scale", action="store_true",
        help="also run the scaled benchmark tier (>= 10k synthetic rows, "
        "hundreds of workers) and record the *_scale fields (non-gating)",
    )
    parser.add_argument(
        "--scale-rows", type=int, default=10_000,
        help="row count for the --scale tier",
    )
    parser.add_argument(
        "--scale-steps", type=int, default=15,
        help="assignment steps per serving path in the --scale tier "
        "(each step is several worker polls followed by one answer batch)",
    )
    parser.add_argument("--smoke", action="store_true",
                        help="tiny scenario for CI (not a baseline)")
    parser.add_argument(
        "--repeats", type=int, default=None,
        help="best-of-N wall clock for every timed path (default: 5 at "
        "smoke size, where single sub-second samples are too noisy to "
        "gate on; 1 otherwise).  The effective value is recorded in the "
        "output JSON as 'repeats' so the CI gate can verify baseline and "
        "candidate used the same estimator",
    )
    args = parser.parse_args(argv)

    rows = 12 if args.smoke else args.rows
    target = 1.5 if args.smoke else args.target
    repeats = args.repeats if args.repeats is not None else (5 if args.smoke else 1)
    spec = spec_from_args(args, target)
    stats = measure_engine_speedup(spec=spec, num_rows=rows, timing_repeats=repeats)
    if args.profile:
        from repro.experiments.efficiency import profile_hot_path

        profiler = cProfile.Profile()
        profiler.enable()
        profile_stats = profile_hot_path(
            seed=args.seed,
            num_rows=rows,
            target_answers_per_task=target,
            max_stale_answers=args.max_stale,
        )
        profiler.disable()
        stream = io.StringIO()
        pstats.Stats(profiler, stream=stream).sort_stats("cumulative").print_stats(15)
        top_functions = [
            line.strip()
            for line in stream.getvalue().splitlines()
            if line.strip() and ("{" in line or "/" in line or ".py" in line)
        ][:15]
        stats.update(profile_stats)
        stats["profile_top_functions"] = top_functions
    if args.scale:
        from repro.experiments.efficiency import measure_scale_benchmark

        stats.update(
            measure_scale_benchmark(
                seed=args.seed,
                num_rows=args.scale_rows,
                max_steps=args.scale_steps,
            )
        )
    if args.strategies:
        from strategy_bench import measure_strategy_bench

        stats.update(measure_strategy_bench(scenario={"seed": args.seed}))
    if args.serve:
        from repro.service.bench import (
            measure_audit_overhead,
            measure_serving,
            verify_audit_replay,
            verify_recovery_identical,
            verify_recovery_rotation,
        )

        # The scripted scenario's RNG seed follows --seed (recorded in the
        # payload as "seed" and inside each scripted spec's simulation
        # section), so a re-run with the same flags replays bit for bit.
        scripted_scenario = {"seed": args.seed}
        stats.update(
            verify_recovery_identical(
                mode="async" if args.async_refit else "plain",
                crash_after_steps=3,
                truncate_bytes=7,
                snapshot_every=25,
                scenario=scripted_scenario,
            )
        )
        # Recovery with segment rotation + snapshot GC on, per backend:
        # the bounded-disk layout must keep the same bit-identity bit.
        rotation_identical = True
        rotation_bounded = True
        for storage_backend in ("jsonl", "sqlite"):
            rotation = verify_recovery_rotation(
                mode="plain", backend=storage_backend,
                scenario=scripted_scenario,
            )
            rotation_identical &= rotation["rotation_identical"]
            rotation_bounded &= rotation["rotation_disk_bounded"]
            stats.update(
                {
                    f"recovery_rotation_identical_{storage_backend}": rotation[
                        "rotation_identical"
                    ],
                    f"recovery_rotation_disk_bounded_{storage_backend}": rotation[
                        "rotation_disk_bounded"
                    ],
                    f"recovery_rotation_segments_{storage_backend}": rotation[
                        "rotation_wal_segments"
                    ],
                    f"recovery_rotation_snapshots_{storage_backend}": rotation[
                        "rotation_snapshots_retained"
                    ],
                }
            )
        stats["recovery_rotation_identical"] = bool(rotation_identical)
        stats["recovery_rotation_disk_bounded"] = bool(rotation_bounded)
        # Decision-audit ledger: crash an audited session per backend,
        # recover, and require the replayed decision records — ids, hashes,
        # chain head — to reproduce the pre-crash ledger bit for bit.
        audit_identical = True
        for storage_backend in ("jsonl", "sqlite"):
            audit = verify_audit_replay(
                mode="async" if args.async_refit else "plain",
                backend=storage_backend,
                scenario=scripted_scenario,
            )
            audit_identical &= audit["audit_replay_identical"]
            stats.update(
                {
                    f"audit_replay_identical_{storage_backend}": audit[
                        "audit_replay_identical"
                    ],
                    f"audit_replay_verified_{storage_backend}": audit[
                        "audit_replay_verified"
                    ],
                    f"audit_replay_mismatches_{storage_backend}": audit[
                        "audit_replay_mismatches"
                    ],
                }
            )
        stats["audit_replay_identical"] = bool(audit_identical)
        stats.update(measure_audit_overhead(scenario=scripted_scenario))
        stats.update(
            measure_serving(
                seed=args.seed,
                num_rows=12 if args.smoke else 24,
                target_answers_per_task=1.3 if args.smoke else 1.6,
                # Serve the same mode the engine benchmark timed (async
                # with --async-refit) so /metrics exposes the hot-path
                # stage histograms over real HTTP traffic.
                serving=spec.to_dict()["serving"],
            )
        )
    payload = {
        "benchmark": "engine_online_loop",
        "smoke": bool(args.smoke),
        "seed": int(args.seed),
        "repeats": int(repeats),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "thread_env": {var: os.environ.get(var) for var in _THREAD_ENV_VARS},
        **stats,
    }
    args.out.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")

    print(json.dumps(payload, indent=2))
    if not stats["identical_assignments"]:
        print("FAIL: exact engine path diverged from the seed path", file=sys.stderr)
        return 1
    if not stats.get("identical_assignments_async", True):
        print(
            "FAIL: async path at max_stale_answers=0 diverged from the "
            "seed path",
            file=sys.stderr,
        )
        return 1
    if not stats.get("identical_estimates_async", True):
        print(
            "FAIL: async equivalence run's final truth estimates differ "
            "from the seed path's (stale snapshot or scoring-cache hit?)",
            file=sys.stderr,
        )
        return 1
    if not stats.get("recovery_identical", True):
        print(
            "FAIL: WAL+snapshot recovery did not reproduce the "
            "uninterrupted session bit for bit",
            file=sys.stderr,
        )
        return 1
    if not stats.get("recovery_rotation_identical", True):
        print(
            "FAIL: recovery with WAL segment rotation + snapshot GC "
            "diverged from the uninterrupted session",
            file=sys.stderr,
        )
        return 1
    if not stats.get("recovery_rotation_disk_bounded", True):
        print(
            "FAIL: rotation + GC left more than keep_snapshots snapshots "
            "or more than 2 WAL segments on disk",
            file=sys.stderr,
        )
        return 1
    if not stats.get("audit_replay_identical", True):
        print(
            "FAIL: decision audit replay did not reproduce the pre-crash "
            "ledger record for record (see audit_replay_mismatches_*)",
            file=sys.stderr,
        )
        return 1
    if not stats.get("strategy_default_identical", True):
        print(
            "FAIL: strategy='paper' did not reproduce the default "
            "assignment sequence / decision-chain head bit for bit "
            "(see strategy_default_identical_* per serving mode)",
            file=sys.stderr,
        )
        return 1
    if not stats.get("strategy_paper_dominates_clean", True):
        print(
            "FAIL: the paper strategy's mean error on the clean scenario "
            "exceeds a baseline's (random / round_robin) — the gain-based "
            "selector regressed",
            file=sys.stderr,
        )
        return 1
    if not args.smoke and stats["speedup"] < 3.0:
        print(
            f"FAIL: exact-path speedup {stats['speedup']:.2f}x below the 3x target",
            file=sys.stderr,
        )
        return 1
    if not args.smoke and "speedup_async" in stats and stats["speedup_async"] < 1.2:
        print(
            f"FAIL: async-path speedup {stats['speedup_async']:.2f}x over the "
            "synchronous engine path is below the 1.2x target",
            file=sys.stderr,
        )
        return 1
    # The hard 1.5x async floor lives in check_perf_regression.py and is
    # enforced at the smoke tier; the full tier replays one select per
    # answer step — every select a cache miss — so it carries the 1.2x
    # target above.
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
