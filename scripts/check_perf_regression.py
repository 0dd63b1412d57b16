"""CI perf-regression gate over the engine benchmark.

Compares a fresh ``benchmarks/run_bench.py --smoke`` result against the
committed smoke-tier baseline (``BENCH_engine.json``, recorded with
``--profile --scale``) and fails the build when either

* an equivalence bit flipped — ``identical_assignments`` (exact engine path
  vs seed path), ``identical_assignments_async`` (async serving path at
  ``max_stale_answers=0`` vs seed path), ``identical_estimates_async`` (the async
  equivalence run's *final truth estimates* match the seed path's
  exactly — the check that would catch a stale scoring-cache hit),
  ``recovery_identical``
  (WAL+snapshot crash recovery replays the session bit for bit) or
  ``audit_replay_identical`` (replaying the WAL re-derives the recorded
  decision ledger hash for hash) or ``strategy_default_identical``
  (pinning ``policy.strategy = "paper"`` reproduces the default spec's
  assignment sequence and decision-chain head across every serving mode)
  is false, which is a correctness regression, never noise; or
* the strategy zoo's quality ordering flipped —
  ``strategy_paper_dominates_clean`` must stay true: the paper's
  gain-based selector beats the ``random`` and ``round_robin`` baselines
  on the clean scenario of the answers-to-quality benchmark
  (``benchmarks/strategy_bench.py``; every session seeded, so this is
  deterministic, never runner noise); or
* decision recording became too expensive — ``audit_overhead_ratio``
  (relative wall-clock cost of the audit recorder on the scripted
  scenario) must stay below 10 %; or
* baseline and candidate disagree on the best-of-N repeat count
  (``repeats``) — the speedup floors only compare like with like when both
  runs used the same wall-clock estimator; or
* the HTTP serving throughput (``serve_requests_per_sec``) of the smoke
  run dropped below ``baseline * serve-headroom`` — the smoke server
  serves a *smaller* table than the baseline run, so a smoke run slower
  than a generous fraction of the committed baseline means the service
  layer itself regressed; or
* the engine-path speedup of the smoke run dropped below a floor derived
  from the committed baseline: ``floor = baseline_speedup * headroom``.
  The headroom (default 0.35) absorbs shared-runner jitter — the committed
  baseline is itself a smoke-tier run (best-of-N wall clock, see
  ``run_bench.py --repeats``), so baseline and candidate measure the same
  scenario; on a noisy single-core runner even best-of-N ratios can swing.
  An engine path that regressed to the seed path's speed (speedup ~1.0)
  still trips the floor, and the async serving path additionally carries
  an absolute 1.5x floor.

The baseline itself is validated too: it must be the smoke-tier reference
with the ``--scale`` tier entry (>= 10k rows) and the ``--profile``
per-stage breakdown recorded, and its ``speedup_async`` must meet the same
absolute 1.5x floor the candidate is held to.

Usage::

    python scripts/check_perf_regression.py \
        --baseline BENCH_engine.json --candidate /tmp/BENCH_engine_smoke.json
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys


def load(path: pathlib.Path) -> dict:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        print(f"FAIL: cannot read benchmark JSON {path}: {exc}", file=sys.stderr)
        raise SystemExit(2)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--baseline",
        type=pathlib.Path,
        default=pathlib.Path("BENCH_engine.json"),
        help="committed smoke-tier baseline with --profile and --scale "
        "recorded (provides the speedup floors)",
    )
    parser.add_argument(
        "--candidate",
        type=pathlib.Path,
        required=True,
        help="freshly produced smoke JSON to check",
    )
    parser.add_argument(
        "--headroom",
        type=float,
        default=0.35,
        help="fraction of the baseline speedup the candidate must reach "
        "(absorbs runner noise; baseline and candidate are both smoke-tier)",
    )
    parser.add_argument(
        "--serve-headroom",
        type=float,
        default=0.15,
        help="fraction of the baseline serve_requests_per_sec the smoke "
        "run must reach (the smoke table is smaller, so this floor only "
        "catches outright service regressions)",
    )
    args = parser.parse_args(argv)

    baseline = load(args.baseline)
    candidate = load(args.candidate)
    failures = []

    # The committed baseline is the smoke-tier reference (same scenario the
    # CI candidate measures, so floors compare like with like), and it must
    # carry the scaled tier and the profile breakdown: losing either in a
    # baseline refresh would silently drop the coverage they provide.
    if int(baseline.get("scale_num_rows") or 0) < 10_000:
        failures.append(
            f"baseline {args.baseline} has no --scale tier entry of >= 10k "
            "rows; regenerate it with `run_bench.py --smoke --async-refit "
            "--serve --profile --strategies --scale`"
        )
    if "profile_stages" not in baseline:
        failures.append(
            f"baseline {args.baseline} has no profile_stages breakdown; "
            "regenerate it with --profile"
        )
    if "repeats" not in baseline:
        failures.append(
            f"baseline {args.baseline} does not record its best-of-N repeat "
            "count; regenerate it with the current run_bench.py (the "
            "'repeats' key)"
        )
    if float(baseline.get("speedup_async") or 0.0) < 1.5:
        failures.append(
            "baseline speedup_async "
            f"{baseline.get('speedup_async')} is below the 1.5x "
            "floor the async serving path is held to"
        )

    if not candidate.get("identical_assignments", False):
        failures.append(
            "identical_assignments is false: the exact engine path no longer "
            "replays the seed path's assignment sequence"
        )
    if "identical_assignments_async" not in candidate:
        failures.append(
            "candidate has no identical_assignments_async field: the smoke "
            "run must include the async path (run_bench.py --async-refit)"
        )
    elif not candidate["identical_assignments_async"]:
        failures.append(
            "identical_assignments_async is false: the async serving path "
            "at max_stale_answers=0 no longer replays the seed path's "
            "assignment sequence"
        )
    if "identical_estimates_async" not in candidate:
        failures.append(
            "candidate has no identical_estimates_async field: the smoke "
            "run must include the async path (run_bench.py --async-refit)"
        )
    elif not candidate["identical_estimates_async"]:
        failures.append(
            "identical_estimates_async is false: the async equivalence "
            "run's final truth estimates differ from the seed path's "
            "(stale snapshot or scoring-cache hit?)"
        )
    if "recovery_identical" not in candidate:
        failures.append(
            "candidate has no recovery_identical field: the smoke run must "
            "include the durability check (run_bench.py --serve)"
        )
    elif not candidate["recovery_identical"]:
        failures.append(
            "recovery_identical is false: WAL+snapshot recovery no longer "
            "reproduces the uninterrupted session bit for bit"
        )
    if "audit_replay_identical" not in candidate:
        failures.append(
            "candidate has no audit_replay_identical field: the smoke run "
            "must include the decision-audit check (run_bench.py --serve)"
        )
    elif not candidate["audit_replay_identical"]:
        failures.append(
            "audit_replay_identical is false: replaying the WAL no longer "
            "re-derives the recorded decision ledger hash for hash (see "
            "audit_replay_mismatches_* in the candidate JSON)"
        )
    if "strategy_default_identical" not in candidate:
        failures.append(
            "candidate has no strategy_default_identical field: the smoke "
            "run must include the strategy-zoo gate (run_bench.py "
            "--strategies)"
        )
    elif not candidate["strategy_default_identical"]:
        failures.append(
            "strategy_default_identical is false: pinning strategy='paper' "
            "no longer reproduces the default assignment sequence / "
            "decision-chain head (see strategy_default_identical_* per "
            "serving mode)"
        )
    if "strategy_paper_dominates_clean" not in candidate:
        failures.append(
            "candidate has no strategy_paper_dominates_clean field: the "
            "smoke run must include the answers-to-quality curves "
            "(run_bench.py --strategies)"
        )
    elif not candidate["strategy_paper_dominates_clean"]:
        failures.append(
            "strategy_paper_dominates_clean is false: the paper's "
            "gain-based strategy no longer beats the random / round_robin "
            "baselines on the clean scenario (see strategy_curves)"
        )
    audit_overhead = candidate.get("audit_overhead_ratio")
    if audit_overhead is None:
        failures.append(
            "candidate has no audit_overhead_ratio field: the smoke run "
            "must measure decision-recording overhead (run_bench.py --serve)"
        )
    elif float(audit_overhead) >= 0.10:
        failures.append(
            f"audit_overhead_ratio {float(audit_overhead):.3f} is at or "
            "above the 10% ceiling: decision recording has become too "
            "expensive for the serving hot path"
        )

    base_repeats = baseline.get("repeats")
    cand_repeats = candidate.get("repeats")
    if base_repeats is not None and cand_repeats is not None:
        if int(base_repeats) != int(cand_repeats):
            failures.append(
                f"repeat-count mismatch: baseline used --repeats "
                f"{base_repeats} but candidate used --repeats "
                f"{cand_repeats}; the speedup floors assume both runs used "
                "the same best-of-N estimator"
            )
    elif base_repeats is not None:
        failures.append(
            "candidate has no repeats field: rerun it with the current "
            "run_bench.py so the gate can verify both runs used the same "
            "best-of-N repeat count"
        )

    serve_baseline = float(baseline.get("serve_requests_per_sec", 0.0))
    serve_candidate = float(candidate.get("serve_requests_per_sec", 0.0))
    if serve_baseline > 0.0:
        serve_floor = serve_baseline * args.serve_headroom
        if "serve_requests_per_sec" not in candidate:
            failures.append(
                "candidate has no serve_requests_per_sec field: the smoke "
                "run must include the serving benchmark (run_bench.py "
                "--serve)"
            )
        elif serve_candidate < serve_floor:
            failures.append(
                f"serve_requests_per_sec {serve_candidate:.1f} fell below "
                f"the floor {serve_floor:.1f} (baseline "
                f"{serve_baseline:.1f} * serve-headroom "
                f"{args.serve_headroom})"
            )
        print(
            f"serve_requests_per_sec: baseline {serve_baseline:.1f} -> "
            f"floor {serve_floor:.1f}, candidate {serve_candidate:.1f}"
        )

    floors = {}
    for field in ("speedup", "speedup_async"):
        if field not in baseline and field != "speedup":
            continue  # older baselines predate the async path
        baseline_speedup = float(baseline.get(field, 0.0))
        candidate_speedup = float(candidate.get(field, 0.0))
        # Seed-relative speedups are clamped at 1.0: an engine path that is
        # no faster than the seed path is a regression outright.  The async
        # path is this codebase's production serving mode; with its scoring
        # cache it clears 1.5x over the synchronous engine path even at
        # smoke size, so it carries that absolute floor.
        minimum = 1.5 if field == "speedup_async" else 1.0
        floor = max(baseline_speedup * args.headroom, minimum)
        floors[field] = (baseline_speedup, candidate_speedup, floor)
        if candidate_speedup < floor:
            failures.append(
                f"{field} {candidate_speedup:.2f}x fell below the floor "
                f"{floor:.2f}x (baseline {baseline_speedup:.2f}x * "
                f"headroom {args.headroom})"
            )

    for field, (base, cand, floor) in floors.items():
        print(
            f"{field}: baseline {base:.2f}x -> floor {floor:.2f}x, "
            f"candidate {cand:.2f}x"
        )
    print(
        f"identical={candidate.get('identical_assignments')}, "
        f"identical_async={candidate.get('identical_assignments_async')}, "
        f"identical_estimates_async="
        f"{candidate.get('identical_estimates_async')}, "
        f"recovery_identical={candidate.get('recovery_identical')}, "
        f"audit_replay_identical={candidate.get('audit_replay_identical')}, "
        f"audit_overhead_ratio={candidate.get('audit_overhead_ratio')}"
    )
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("perf gate passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
