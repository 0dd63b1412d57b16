"""Run every experiment harness at recording scale and save the reports.

It writes one ``<experiment>.txt`` report per harness into the output
directory (``results/`` by default).  Scales are chosen so the full run
finishes in tens of minutes on a laptop: truth-inference experiments use the
paper-sized tables; the end-to-end assignment experiments (which refit truth
inference hundreds of times) use reduced tables, which is recorded in each
report's notes.

Usage::

    python scripts/run_all_experiments.py [output_dir]
"""

from __future__ import annotations

import pathlib
import sys
import time

from repro.experiments import (
    run_figure2,
    run_figure3_worker_consistency,
    run_figure4_quality_calibration,
    run_figure5,
    run_figure6_attribute_correlation,
    run_figure7,
    run_figure8,
    run_figure9,
    run_figure10,
    run_figure11_assignment_time,
    run_figure12_convergence,
    run_figure12_runtime,
    run_table7,
)


def main() -> int:
    output_dir = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else "results")
    output_dir.mkdir(parents=True, exist_ok=True)

    jobs = [
        ("table7", lambda: run_table7(seed=7, trials=3)),
        ("figure2_celebrity", lambda: run_figure2("Celebrity", seed=7, num_rows=40)),
        ("figure2_restaurant", lambda: run_figure2("Restaurant", seed=7, num_rows=40)),
        ("figure2_emotion", lambda: run_figure2("Emotion", seed=7, num_rows=40)),
        ("figure3", lambda: run_figure3_worker_consistency(seed=11)),
        ("figure4", lambda: run_figure4_quality_calibration(seed=11)),
        ("figure5", lambda: run_figure5(seed=11, num_rows=40)),
        ("figure6", lambda: run_figure6_attribute_correlation(seed=11)),
        ("figure7", lambda: run_figure7(trials=2, num_rows=40)),
        ("figure8", lambda: run_figure8(trials=2, num_rows=40)),
        ("figure9", lambda: run_figure9(trials=2, num_rows=40)),
        ("figure10", lambda: run_figure10(trials=2, num_rows=60)),
        ("figure11", lambda: run_figure11_assignment_time(seed=7, num_rows=60)),
        ("figure12a", lambda: run_figure12_convergence(seed=7)),
        ("figure12b", lambda: run_figure12_runtime(seed=7)),
    ]
    for name, job in jobs:
        start = time.time()
        print(f"[{time.strftime('%H:%M:%S')}] running {name} ...", flush=True)
        report = job()
        elapsed = time.time() - start
        report.add_note(f"wall-clock time: {elapsed:.1f}s")
        path = output_dir / f"{name}.txt"
        path.write_text(report.to_text() + "\n", encoding="utf-8")
        print(f"    done in {elapsed:.1f}s -> {path}", flush=True)
    print("all experiments finished")
    return 0


if __name__ == "__main__":
    sys.exit(main())
