"""Quickstart: infer truths for a small crowdsourced table with T-Crowd.

Builds a tiny celebrity-style table by hand (the example from the paper's
introduction), adds a few worker answers, and runs T-Crowd truth inference.

Run with::

    python examples/quickstart.py
"""

from repro import Answer, AnswerSet, Column, TableSchema, TCrowdModel


def build_schema() -> TableSchema:
    """The celebrity table of the paper's Table 1 (simplified)."""
    columns = (
        Column.categorical("nationality", ("United States", "China", "Great Britain", "Canada")),
        Column.continuous("age", (18.0, 90.0)),
        Column.continuous("height", (150.0, 200.0)),
    )
    return TableSchema.build("picture", columns, num_rows=3)


def collect_answers(schema: TableSchema) -> AnswerSet:
    """Answers of three workers, in the spirit of the paper's Table 2."""
    answers = AnswerSet(schema)
    rows = [
        # (worker, row, nationality, age, height_cm)
        ("u1", 0, "United States", 39, 175.0),
        ("u1", 1, "China", 47, 168.0),
        ("u1", 2, "Great Britain", 49, 185.0),
        ("u2", 0, "Canada", 45, 180.0),
        ("u2", 1, "China", 49, 170.0),
        ("u2", 2, "Great Britain", 51, 183.0),
        ("u3", 0, "United States", 41, 176.0),
        ("u3", 1, "China", 45, 168.0),
        ("u3", 2, "United States", 35, 180.0),
        ("u4", 0, "United States", 40, 176.0),
        ("u4", 1, "China", 46, 167.0),
        ("u4", 2, "Great Britain", 48, 186.0),
    ]
    for worker, row, nationality, age, height in rows:
        answers.add(Answer(worker, row, 0, nationality))
        answers.add(Answer(worker, row, 1, float(age)))
        answers.add(Answer(worker, row, 2, float(height)))
    return answers


def main() -> None:
    schema = build_schema()
    answers = collect_answers(schema)

    model = TCrowdModel()
    result = model.fit(schema, answers)

    print("Estimated truths:")
    for row in range(schema.num_rows):
        values = []
        for col, column in enumerate(schema.columns):
            estimate = result.estimate(row, col)
            if column.is_continuous:
                values.append(f"{column.name}={estimate:.1f}")
            else:
                values.append(f"{column.name}={estimate}")
        print(f"  picture {row + 1}: " + ", ".join(values))

    print("\nUnified worker quality (erf-based, higher is better):")
    for worker, quality in sorted(result.worker_qualities().items()):
        print(f"  {worker}: {quality:.3f}")

    print("\nColumn difficulties (beta_j, higher is harder):")
    for col, column in enumerate(schema.columns):
        print(f"  {column.name}: {result.column_difficulty(col):.3f}")


if __name__ == "__main__":
    main()
