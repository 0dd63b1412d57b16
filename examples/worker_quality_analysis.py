"""Worker-quality case study (paper Section 6.4.1, Figures 3 and 4).

Loads the simulated Restaurant dataset, runs T-Crowd truth inference, and
shows (a) that each worker's quality is consistent across categorical and
continuous attributes and (b) that the estimated unified quality tracks the
actual quality computed from the ground truth.

Run with::

    python examples/worker_quality_analysis.py [--rows 80]
"""

import argparse

import numpy as np

from repro import TCrowdModel
from repro.datasets import load_restaurant
from repro.experiments.reporting import format_table
from repro.metrics import pearson_correlation


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rows", type=int, default=None)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--top", type=int, default=15, help="workers to display")
    args = parser.parse_args()

    kwargs = {"seed": args.seed}
    if args.rows:
        kwargs["num_rows"] = args.rows
    dataset = load_restaurant(**kwargs)
    result = TCrowdModel().fit(dataset.schema, dataset.answers)
    schema = dataset.schema

    # Actual per-worker error statistics against the ground truth.
    cat_errors, cont_errors, counts = {}, {}, {}
    for answer in dataset.answers:
        column = schema.columns[answer.col]
        truth = dataset.truth(answer.row, answer.col)
        counts[answer.worker] = counts.get(answer.worker, 0) + 1
        if column.is_categorical:
            cat_errors.setdefault(answer.worker, []).append(
                0.0 if answer.value == truth else 1.0
            )
        else:
            normaliser = max(dataset.column_truth_std(answer.col), 1e-9)
            cont_errors.setdefault(answer.worker, []).append(
                (float(answer.value) - float(truth)) / normaliser
            )

    workers = sorted(counts, key=counts.get, reverse=True)[: args.top]
    rows = []
    estimated, actual_cat, actual_cont = [], [], []
    for worker in workers:
        actual_error_rate = float(np.mean(cat_errors.get(worker, [np.nan])))
        actual_std = float(np.std(cont_errors.get(worker, [np.nan])))
        quality = result.worker_quality(worker)
        rows.append([worker, counts[worker], quality, actual_error_rate, actual_std])
        estimated.append(quality)
        actual_cat.append(actual_error_rate)
        actual_cont.append(actual_std)
    print(format_table(
        ["Worker", "#answers", "estimated quality", "actual error rate", "actual error std"],
        rows,
    ))

    print("\nCalibration (over the displayed workers):")
    print("  corr(estimated quality, actual categorical error rate) = "
          f"{pearson_correlation(estimated, actual_cat):.3f} (expected negative)")
    print("  corr(estimated quality, actual continuous error std)   = "
          f"{pearson_correlation(estimated, actual_cont):.3f} (expected negative)")
    print("\nThe paper reports |corr| ~ 0.84 between estimated and actual quality "
          "on the real Restaurant answers (Figure 4).")


if __name__ == "__main__":
    main()
