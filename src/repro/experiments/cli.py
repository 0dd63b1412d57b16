"""Command-line entry point: run any of the paper's experiments.

Installed as ``tcrowd-experiments`` (see ``pyproject.toml``).  Examples::

    tcrowd-experiments table7 --quick
    tcrowd-experiments figure2 --dataset Restaurant
    tcrowd-experiments all --quick --output results.txt
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict, List

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


def _table7(args) -> List:
    if args.quick:
        return [run_table7(seed=args.seed, trials=1, num_rows=50)]
    return [run_table7(seed=args.seed, trials=args.trials)]


def _figure2(args) -> List:
    num_rows = 30 if args.quick else None
    return [run_figure2(dataset_name=args.dataset, seed=args.seed, num_rows=num_rows)]


def _figure5(args) -> List:
    num_rows = 30 if args.quick else 60
    return [run_figure5(seed=args.seed, num_rows=num_rows)]


def _case_studies(args) -> List:
    num_rows = 60 if args.quick else None
    return [
        run_figure3_worker_consistency(seed=args.seed, num_rows=num_rows),
        run_figure4_quality_calibration(seed=args.seed, num_rows=num_rows),
        run_figure6_attribute_correlation(seed=args.seed, num_rows=num_rows),
    ]


def _synthetic(args) -> List:
    if args.quick:
        return [
            run_figure7(column_counts=(5, 10, 20), trials=1, seed=args.seed),
            run_figure8(ratios=(0.2, 0.5, 0.8), trials=1, seed=args.seed),
            run_figure9(difficulties=(0.5, 1.5, 3.0), trials=1, seed=args.seed),
        ]
    return [
        run_figure7(trials=args.trials, seed=args.seed),
        run_figure8(trials=args.trials, seed=args.seed),
        run_figure9(trials=args.trials, seed=args.seed),
    ]


def _noise(args) -> List:
    trials = 1 if args.quick else args.trials
    num_rows = 40 if args.quick else 60
    return [run_figure10(seed=args.seed, trials=trials, num_rows=num_rows)]


def _efficiency(args) -> List:
    counts = (1_000, 3_000) if args.quick else (1_000, 3_000, 10_000, 30_000)
    num_rows = 40 if args.quick else 60
    return [
        run_figure11_assignment_time(seed=args.seed, num_rows=num_rows),
        run_figure12_convergence(seed=args.seed, num_rows=num_rows if args.quick else None),
        run_figure12_runtime(answer_counts=counts, seed=args.seed),
    ]


#: experiment name -> callable(args) -> list of reports
EXPERIMENTS: Dict[str, Callable] = {
    "table7": _table7,
    "figure2": _figure2,
    "figure3": lambda args: [run_figure3_worker_consistency(seed=args.seed)],
    "figure4": lambda args: [run_figure4_quality_calibration(seed=args.seed)],
    "figure5": _figure5,
    "figure6": lambda args: [run_figure6_attribute_correlation(seed=args.seed)],
    "figure7": lambda args: _synthetic(args)[:1],
    "figure8": lambda args: _synthetic(args)[1:2],
    "figure9": lambda args: _synthetic(args)[2:3],
    "figure10": _noise,
    "figure11": lambda args: [run_figure11_assignment_time(seed=args.seed)],
    "figure12": lambda args: [
        run_figure12_convergence(seed=args.seed),
        run_figure12_runtime(seed=args.seed),
    ],
    "case-studies": _case_studies,
    "synthetic": _synthetic,
    "efficiency": _efficiency,
}


def build_parser() -> argparse.ArgumentParser:
    """Build the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="tcrowd-experiments",
        description="Reproduce the tables and figures of the T-Crowd paper",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS) + ["all"],
        help="which experiment to run ('all' runs every harness)",
    )
    parser.add_argument("--seed", type=int, default=7, help="base random seed")
    parser.add_argument(
        "--trials", type=int, default=3,
        help="number of repetitions for averaged experiments",
    )
    parser.add_argument(
        "--dataset", default="Celebrity",
        choices=["Celebrity", "Restaurant", "Emotion"],
        help="dataset for figure2",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="reduced table sizes / trials for a fast smoke run",
    )
    parser.add_argument(
        "--output", default=None, help="write the report text to this file"
    )
    return parser


def main(argv=None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    if args.experiment == "all":
        names = sorted(EXPERIMENTS)
    else:
        names = [args.experiment]
    reports = []
    for name in names:
        reports.extend(EXPERIMENTS[name](args))
    text = "\n\n".join(report.to_text() for report in reports)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":  # pragma: no cover - module CLI
    sys.exit(main())
