"""Crowd-serving benchmark entry point.

    python3 crowdbench/run.py --workload paper-sync --seed 1 --seconds 30 --trace 0

Runs one workload (``paper-sync`` or ``large-durable``) against
``python -m repro.service`` started from this checkout's ``src/``.  The
load generator and the server are pinned to one CPU, and every timing in
the metrics is scaled to a reference host speed (see
``crowdbench/reference.py``); the report prints the raw timings too.  An
untraced run sets the server up three times and reports the median set-up
time.  Prints a report (per-phase request accounting, every percentile with its
sample count, the output checks, the input digest) and, as the last line,
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
run is repeated through the traced launcher and the metrics are the
per-layer ones, with a per-endpoint budget in the report.

Each workload's timed phase is a fixed amount of work (answers per task),
sized to take about ``--seconds`` at the time the benchmark was written;
``--seconds`` also bounds it: a timed phase that runs longer than four
times that stops and fails the run.  Exit status 0 means a result was
printed; a checkout without the program, or a server that cannot start,
exits non-zero without a result.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import signal
import sys
import tempfile
import traceback

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

from crowdbench.server import ROOT, THREAD_ENV, ServerError, program_present  # noqa: E402

# The load generator times the reference computation with NumPy: one
# thread, like the server, and set before NumPy is first imported.
os.environ.update(THREAD_ENV)

from crowdbench import layers, reference, stats  # noqa: E402
from crowdbench.client import PHASES  # noqa: E402
from crowdbench.workloads import WORKLOADS, Run, check_samples  # noqa: E402

#: Set-ups per untraced run (``setup_s`` is their median).
SETUPS = 3

#: Restarts after the crash (``recover_s`` is their median).
RESTARTS = 5

#: Untimed runs of the reference computation before the first timed one.
REFERENCE_WARM_UP = 20

#: HITs whose select + answer medians the traced run compares with an
#: untraced pass (``trace.overhead_share``).
OVERHEAD_HITS = 30

#: End-to-end metrics and their units, in report order.
END_TO_END = (
    ("setup_s", "s"),
    ("select_p50_ms", "ms"),
    ("select_p90_ms", "ms"),
    ("answer_p50_ms", "ms"),
    ("answer_p90_ms", "ms"),
    ("answers_per_s", "1/s"),
    ("estimates_p50_ms", "ms"),
    ("estimates_p90_ms", "ms"),
    ("decisions_p50_ms", "ms"),
    ("recover_s", "s"),
    ("error_rate", "fraction"),
    ("mnad", "ratio"),
    ("server_cpu_ms_per_answer", "ms"),
    ("server_rss_mb", "MiB"),
)

#: Latency percentiles reported per sample kind (``<kind>_p<q>_ms``).
_PERCENTILES = (
    ("select", (0.5, 0.9)),
    ("answer", (0.5, 0.9)),
    ("estimates", (0.5, 0.9)),
    ("decisions", (0.5,)),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="crowdbench/run.py", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny tables and phases (for the benchmark's own tests)")
    return parser.parse_args(argv)


def scaled_samples(run: Run):
    """Every latency sample of ``run`` scaled to the reference host, per kind."""
    accounting = run.accounting
    return {kind: reference.scaled(accounting.samples[kind], accounting.references[kind])
            for kind in accounting.samples}


def scaled_phases(seconds, references):
    """Each set-up or restart time scaled by the references timed around it."""
    return [reference.scaled_seconds(s, refs) for s, refs in zip(seconds, references)]


def end_to_end(run: Run, tiny: bool):
    """The end-to-end metrics of one untraced run, plus report lines.

    Latency percentiles, ``answers_per_s`` (accepted answers per second of
    timed select + answer time) and the set-up and restart times are
    scaled request by request or phase by phase; ``server_cpu_ms_per_answer``
    is divided by the host factor of the timed HITs.
    """
    results, raw = run.results, run.accounting.samples
    samples = scaled_samples(run)
    hits_raw = raw.get("select", []) + raw.get("answer", [])
    hits = samples.get("select", []) + samples.get("answer", [])
    if not hits:
        run.problem("no timed HIT samples")
        return {}, []
    factor = reference.host_factor(hits_raw, hits)
    answers = max(results["timed_answers"], 1)
    values = {
        "setup_s": stats.median(scaled_phases(results["setup_seconds"],
                                              results["setup_references"])),
        "answers_per_s": results["timed_answers"] / (sum(hits) / 1000.0),
        "recover_s": stats.median(scaled_phases(results["recover_seconds"],
                                                results["recover_references"])),
        "error_rate": results["error_rate"],
        "mnad": results["mnad"],
        "server_cpu_ms_per_answer": 1000.0 * results["timed_cpu_seconds"] / answers / factor,
        "server_rss_mb": results["peak_rss_mb"],
    }
    all_references = [r for refs in run.accounting.references.values() for r in refs]
    lines = [
        f"host factor {factor:.4f} over the timed HITs (raw / scaled time); reference "
        f"median {1000.0 * stats.median(all_references):.4f} ms over "
        f"{len(all_references)} runs, nominal {1000.0 * reference.REFERENCE_SECONDS:.3f} ms",
        f"raw answers_per_s {results['timed_answers'] / (sum(hits_raw) / 1000.0):.4f} 1/s, "
        f"raw server_cpu_ms_per_answer {1000.0 * results['timed_cpu_seconds'] / answers:.4f} ms",
    ]
    for kind, quantiles in _PERCENTILES:
        for q in quantiles:
            name = f"{kind}_p{round(q * 100)}_ms"
            if not samples.get(kind):
                run.problem(f"{name}: no samples")
                continue
            summary = stats.summary(samples[kind], q)
            values[name] = summary["value"]
            lines.append(f"{name} {summary['value']:.3f} ms "
                         f"(raw {stats.percentile(raw[kind], q):.3f} ms; "
                         f"n={summary['n']}, {summary['beyond']} beyond)")
            problem = check_samples(name, samples[kind], q)
            if problem and not tiny:
                run.problem(problem)
    return values, lines


def report_header(run: Run, args) -> None:
    table = run.table
    print(f"crowdbench {run.workload.name} seed={args.seed} trace={args.trace}"
          f"{' tiny' if args.tiny else ''}")
    print(f"inputs sha256:{run.digest} table {table.num_rows}x{table.num_columns} "
          f"workers={len(run.pool.ids)}")


def report_accounting(run: Run) -> None:
    print("phase attempted succeeded refused_409 failed")
    for phase in PHASES:
        counts = run.accounting.counts[phase]
        if counts["attempted"]:
            print(f"phase {phase} {counts['attempted']} {counts['succeeded']} "
                  f"{counts['refused']} {counts['failed']}")
    for error in run.accounting.errors:
        print(f"error {error}")


def report_checks(run: Run) -> bool:
    ok = not run.problems
    print("checks " + ("passed" if ok else f"FAILED ({len(run.problems)})"))
    for problem in run.problems:
        print(f"check failed: {problem}")
    return ok


def untraced(args, workdir: pathlib.Path) -> dict:
    workload = WORKLOADS[args.workload]
    run = Run(workload, args.seed, workdir, tiny=args.tiny, time_guard=4.0 * args.seconds)
    report_header(run, args)
    try:
        run.execute(restarts=1 if args.tiny else RESTARTS, setups=SETUPS)
    finally:
        run.close()
    values, lines = end_to_end(run, args.tiny)
    results = run.results
    print(f"timed {results['timed_answers']} answers in {results['timed_seconds']:.3f} s; "
          f"{results['answers_total'] / run.table.num_cells:.4f} answers per task at the end")
    for name, key in (("setup_s", "setup"), ("recover_s", "recover")):
        seconds, references = results[f"{key}_seconds"], results[f"{key}_references"]
        print(f"{name} samples " + " ".join(
            f"{s:.4f}" for s in scaled_phases(seconds, references)))
        print(f"{name} raw " + " ".join(f"{s:.4f}" for s in seconds))
    print(f"disk_mb {results['disk_bytes'] / 2**20:.4f} MiB at the kill")
    for line in lines:
        print(line)
    report_accounting(run)
    correct = report_checks(run)
    metrics = {}
    for name, unit in END_TO_END:
        if name in values:
            metrics[name] = {"value": values[name], "unit": unit}
            print(f"metric {name} {values[name]:.6g} {unit}")
    return {"correct": correct and len(metrics) == len(END_TO_END),
            "attempted": run.accounting.attempted, "failed": run.accounting.failed,
            "metrics": metrics}


def _hit_medians(run: Run, hits: int) -> float:
    """Median select + median answer latency (scaled) over the first ``hits`` timed HITs."""
    samples = scaled_samples(run)
    return sum(stats.median(samples[kind][:hits]) for kind in ("select", "answer"))


def _window_factor(run: Run) -> float:
    """Host factor over every sampled request of the traced window (timed + reads)."""
    raw = [ms for samples in run.accounting.samples.values() for ms in samples]
    scaled = [ms for samples in scaled_samples(run).values() for ms in samples]
    return reference.host_factor(raw, scaled)


def traced(args, workdir: pathlib.Path) -> dict:
    """A short untraced pass, then the traced run; per-layer metrics."""
    workload = WORKLOADS[args.workload]
    guard = 4.0 * args.seconds
    hits = min(OVERHEAD_HITS, workload.tiny_timed_hits if args.tiny else workload.timed_hits)
    untraced_pass = Run(workload, args.seed, workdir / "untraced", tiny=args.tiny,
                        time_guard=guard)
    report_header(untraced_pass, args)
    try:
        untraced_pass.execute(restarts=0, read_phase=False, timed_hits=hits)
    finally:
        untraced_pass.close()
    run = Run(workload, args.seed, workdir / "traced", tiny=args.tiny, trace=True,
              time_guard=guard)
    try:
        run.execute(restarts=1 if args.tiny else RESTARTS)
    finally:
        run.close()
    spans, missing = layers.read_spans(run.span_files["live"])
    recover_ms = []
    for index in range(1 if args.tiny else RESTARTS):
        restart_spans, _missing = layers.read_spans(run.span_files[f"restart{index}"])
        references = run.results["recover_references"][index]
        recover_ms += [reference.scaled_seconds(span.duration / 1e6, references)
                       for span in restart_spans.values() if span.name == "storage.recover"]
    base, with_trace = _hit_medians(untraced_pass, hits), _hit_medians(run, hits)
    overhead = (with_trace - base) / base
    traced_run = layers.TracedRun(spans, run.request_log,
                                  (run.results["timed_window"][0], run.results["reads_end"]))
    factor = _window_factor(run)
    values = layers.layer_metrics(
        traced_run, run.results["timed_answers"], run.results["disk_bytes"],
        run.results["answers_total"], recover_ms, overhead, factor,
    )
    values, notices = layers.drop_missing(values, missing)
    for notice in notices:
        print(notice)
    print(f"trace overhead: select+answer median over the first {hits} HITs "
          f"{with_trace:.3f} ms traced vs {base:.3f} ms untraced (scaled)")
    print(f"host factor {factor:.4f} over the traced window; per-layer times are "
          "divided by it, the budget below is raw")
    for line in layers.budget_table(traced_run):
        print(line)
    run.problems.extend(untraced_pass.problems)
    report_accounting(run)
    correct = report_checks(run)
    metrics = {}
    for name, unit, _seams in layers.METRICS:
        if name in values:
            metrics[name] = {"value": float(values[name]), "unit": unit}
            print(f"metric {name} {values[name]:.6g} {unit}")
    attempted = run.accounting.attempted + untraced_pass.accounting.attempted
    failed = run.accounting.failed + untraced_pass.accounting.failed
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    # A terminated run still kills and waits for its servers (the finally
    # blocks below and in the workload run).
    signal.signal(signal.SIGTERM, _terminate)
    if not program_present():
        print(f"error: no program to benchmark under {ROOT / 'src'}", file=sys.stderr)
        return 2
    cpu = reference.pin_to_one_cpu()
    print("pinned to cpu " + ("(not possible)" if cpu is None else str(cpu)))
    for _warm_up in range(REFERENCE_WARM_UP):
        reference.reference_seconds()
    base = ROOT / ".crowdbench-work"
    base.mkdir(exist_ok=True)
    workdir = pathlib.Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=base))
    try:
        result = traced(args, workdir) if args.trace else untraced(args, workdir)
    except ServerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        for log in workdir.rglob("server.log"):
            sys.stderr.write(log.read_text(encoding="utf-8", errors="replace")[-4000:])
        return 3
    except Exception:  # noqa: BLE001 - report and fail without a result
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
