"""Parent/change comparison on the crowd-serving benchmark (``crowdbench/``).

    python scripts/crowdbench_ab.py --parent PARENT_CHECKOUT --change CHANGE_CHECKOUT \\
        --seeds 1 2 3 4 5 6 7 8 9 10 [--workload paper-sync] [--log runs.jsonl]

Runs ``BENCHMARK.json``'s command with its ``run_seconds`` in both
checkouts, for every workload (all of ``BENCHMARK.json``'s by default) and
every seed.  The parent runs first for the first seed, the change for the
second, and so on, so a host that speeds up or slows down over the session
does not favour one side.  Each run's last stdout line is the benchmark's
JSON result; ``--log`` appends every result, with its side, workload and
seed, as one JSON line.

For every end-to-end metric it prints both sides' medians and quartiles,
the change in the median, how many pairs the change won (and tied), the gap
between the medians over the parent's interquartile range, and whether the
change stays within the metric's bound.

Exit status:

* 0: every metric on every workload is within its bound;
* 1: a metric is worse than at the parent by more than its bound, the
  change fails a larger share of its requests, or a run failed or reported
  incorrect outputs;
* 2: the checkouts do not benchmark the same thing: their ``crowdbench/``
  trees or ``BENCHMARK.json`` files differ.

The script only reads the two checkouts' benchmark files; it changes
nothing under either.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import statistics
import subprocess
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

SIDES = ("parent", "change")

#: ``runner(checkout, argv, timeout)`` -> ``(exit status, stdout)``.
Runner = Callable[[pathlib.Path, List[str], float], Tuple[int, str]]


def benchmark_files(checkout: pathlib.Path) -> Dict[str, bytes]:
    """``BENCHMARK.json`` and every file under ``crowdbench/``, by relative
    path.  Bytecode caches are not part of the benchmark."""
    files = {"BENCHMARK.json": (checkout / "BENCHMARK.json").read_bytes()}
    for path in sorted((checkout / "crowdbench").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            files[path.relative_to(checkout).as_posix()] = path.read_bytes()
    return files


def benchmark_differences(parent: pathlib.Path, change: pathlib.Path) -> List[str]:
    """Relative paths whose bytes differ (or exist on one side only)."""
    ours, theirs = benchmark_files(parent), benchmark_files(change)
    return sorted(
        name for name in set(ours) | set(theirs) if ours.get(name) != theirs.get(name)
    )


def run_subprocess(checkout: pathlib.Path, argv: List[str], timeout: float) -> Tuple[int, str]:
    """Run one benchmark command in ``checkout``; a timeout is a failed run."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    try:
        done = subprocess.run(
            argv, cwd=str(checkout), env=env, capture_output=True, text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return -1, ""
    return done.returncode, done.stdout


def parse_result(stdout: str) -> Optional[dict]:
    """The JSON result on the last non-empty line, or ``None``."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    return result if isinstance(result, dict) and "metrics" in result else None


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)``; a single value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def worsening(parent: float, change: float, better: str) -> float:
    """How much worse the change is, relative to the parent (negative when
    better); any worsening from a parent of exactly 0 is infinite."""
    delta = change - parent if better == "lower" else parent - change
    if parent == 0:
        return 0.0 if delta == 0 else math.copysign(math.inf, delta)
    return delta / abs(parent)


def compare_workload(
    spec: dict, pairs: List[Dict[str, dict]]
) -> Tuple[List[str], List[str]]:
    """Report lines and breaches for one workload's ``pairs`` of results."""
    lines = [
        f"{'metric':<26} {'better':<6} {'parent median [q1 q3]':>30} "
        f"{'change median [q1 q3]':>30} {'change':>8} {'wins':>6} {'ties':>4} "
        f"{'gap/iqr':>7} {'bound':>5}  verdict"
    ]
    breaches = []
    for metric in spec["end_to_end"]:
        name, better, bound = metric["name"], metric["better"], metric["bound"]
        values = {
            side: [pair[side]["metrics"][name]["value"] for pair in pairs
                   if name in pair[side]["metrics"]]
            for side in SIDES
        }
        if min(len(values[side]) for side in SIDES) < len(pairs):
            breaches.append(f"{name}: missing from some runs")
            lines.append(f"{name:<26} missing")
            continue
        wins = ties = 0
        for pair in pairs:
            parent = pair["parent"]["metrics"][name]["value"]
            change = pair["change"]["metrics"][name]["value"]
            ties += change == parent
            wins += worsening(parent, change, better) < 0
        p_q1, p_med, p_q3 = quartiles(values["parent"])
        c_q1, c_med, c_q3 = quartiles(values["change"])
        worse = worsening(p_med, c_med, better)
        iqr = p_q3 - p_q1
        gap = abs(c_med - p_med) / iqr if iqr > 0 else (0.0 if c_med == p_med else math.inf)
        verdict = "ok" if worse <= bound else "BREACH"
        if verdict != "ok":
            breaches.append(f"{name}: {worse:+.1%} worse than the parent, bound {bound}")
        lines.append(
            f"{name:<26} {better:<6} "
            f"{f'{p_med:.6g} [{p_q1:.6g} {p_q3:.6g}]':>30} "
            f"{f'{c_med:.6g} [{c_q1:.6g} {c_q3:.6g}]':>30} "
            f"{(c_med - p_med) / abs(p_med) if p_med else 0.0:>+8.1%} "
            f"{f'{wins}/{len(pairs)}':>6} {ties:>4} {gap:>7.2f} {bound:>5}  {verdict}"
        )
    shares = {}
    for side in SIDES:
        attempted = sum(pair[side]["attempted"] for pair in pairs)
        failed = sum(pair[side]["failed"] for pair in pairs)
        shares[side] = failed / attempted if attempted else 0.0
        lines.append(f"{side} failed {failed} of {attempted} requests")
    if shares["change"] > shares["parent"]:
        breaches.append(
            f"the change failed {shares['change']:.4%} of its requests, "
            f"the parent {shares['parent']:.4%}"
        )
    return lines, breaches


def parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="scripts/crowdbench_ab.py", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--parent", type=pathlib.Path, required=True)
    parser.add_argument("--change", type=pathlib.Path, required=True)
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--workload", action="append", dest="workloads",
                        help="a workload of BENCHMARK.json (repeatable; default all)")
    parser.add_argument("--log", type=pathlib.Path,
                        help="append every run's result to this JSON-lines file")
    return parser.parse_args(argv)


def main(argv=None, runner: Runner = run_subprocess) -> int:
    args = parse_args(argv)
    parent, change = args.parent.resolve(), args.change.resolve()
    differences = benchmark_differences(parent, change)
    if differences:
        print("refusing to compare: the checkouts' benchmark files differ: "
              + ", ".join(differences), file=sys.stderr)
        return 2
    spec = json.loads((change / "BENCHMARK.json").read_text(encoding="utf-8"))
    known = [workload["name"] for workload in spec["workloads"]]
    workloads = args.workloads or known
    unknown = sorted(set(workloads) - set(known))
    if unknown:
        print(f"unknown workload(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    seconds = spec["run_seconds"]
    checkouts = {"parent": parent, "change": change}
    total = 2 * len(workloads) * len(args.seeds)
    print(f"crowdbench A/B: parent {parent}, change {change}; "
          f"seeds {' '.join(map(str, args.seeds))}; {seconds} s per run; {total} runs")
    breaches: List[str] = []
    reports: List[str] = []
    done = 0
    for workload in workloads:
        pairs: List[Dict[str, dict]] = []
        for index, seed in enumerate(args.seeds):
            order = SIDES if index % 2 == 0 else SIDES[::-1]
            pair = {}
            for side in order:
                argv_run = list(spec["command"]) + [
                    "--workload", workload, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", "0",
                ]
                started = time.monotonic()
                status, stdout = runner(checkouts[side], argv_run, 30.0 * seconds)
                result = parse_result(stdout) if status == 0 else None
                done += 1
                took = time.monotonic() - started
                state = "ok" if result and result.get("correct") else "FAILED"
                print(f"run {done}/{total}: {workload} seed {seed} {side} {state} "
                      f"({took:.0f} s)", flush=True)
                if args.log is not None:
                    with args.log.open("a", encoding="utf-8") as log:
                        log.write(json.dumps({"side": side, "workload": workload,
                                              "seed": seed, "status": status,
                                              "result": result}) + "\n")
                if result is None:
                    breaches.append(f"{workload} seed {seed}: the {side} run printed "
                                    f"no result (exit status {status})")
                elif not result.get("correct"):
                    breaches.append(f"{workload} seed {seed}: the {side} run "
                                    "reported incorrect outputs")
                pair[side] = result if state == "ok" else None
            if all(pair[side] is not None for side in SIDES):
                pairs.append(pair)
        reports.append(f"{workload}: {len(pairs)} pairs")
        if pairs:
            lines, workload_breaches = compare_workload(spec, pairs)
            reports.extend(lines)
            breaches.extend(f"{workload} {breach}" for breach in workload_breaches)
    print("\n".join(reports))
    if breaches:
        print("verdict: BREACH")
        for breach in breaches:
            print(f"  {breach}")
        return 1
    print("verdict: every metric within its bound")
    return 0


if __name__ == "__main__":
    sys.exit(main())
