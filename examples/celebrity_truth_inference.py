"""Truth inference on the simulated Celebrity dataset (paper Section 6.2).

Loads the simulated Celebrity dataset (174 entities x 7 attributes, 5 answers
per task), runs T-Crowd and the main baselines, and prints a Table 7-style
comparison of Error Rate and MNAD.

Run with::

    python examples/celebrity_truth_inference.py [--rows 60]
"""

import argparse

from repro import TCrowdModel
from repro.baselines import CATD, CRH, DawidSkene, GLAD, GTM, MajorityVoting, MedianAggregator, ZenCrowd
from repro.datasets import load_celebrity
from repro.experiments.reporting import format_table
from repro.metrics import error_rate, mnad


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rows", type=int, default=None,
                        help="reduce the table to this many rows for a faster run")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    kwargs = {"seed": args.seed}
    if args.rows:
        kwargs["num_rows"] = args.rows
    dataset = load_celebrity(**kwargs)
    print("Dataset:", dataset.summary())

    methods = [
        ("T-Crowd", TCrowdModel(), True, True),
        ("CRH", CRH(), True, True),
        ("CATD", CATD(), True, True),
        ("Majority Voting", MajorityVoting(), True, False),
        ("D&S (EM)", DawidSkene(), True, False),
        ("GLAD", GLAD(), True, False),
        ("ZenCrowd", ZenCrowd(), True, False),
        ("Median", MedianAggregator(), False, True),
        ("GTM", GTM(), False, True),
    ]

    rows = []
    for name, method, handles_cat, handles_cont in methods:
        result = method.fit(dataset.schema, dataset.answers)
        rows.append([
            name,
            error_rate(result, dataset) if handles_cat else None,
            mnad(result, dataset) if handles_cont else None,
        ])
    print()
    print(format_table(["Method", "Error Rate", "MNAD"], rows))
    best_error = min(r[1] for r in rows if r[1] is not None)
    best_mnad = min(r[2] for r in rows if r[2] is not None)
    print(f"\nBest error rate: {best_error:.4f}; best MNAD: {best_mnad:.4f}")


if __name__ == "__main__":
    main()
