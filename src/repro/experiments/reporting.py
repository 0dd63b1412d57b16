"""Plain-text reporting helpers shared by all experiment harnesses."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence


def format_table(headers: Sequence[str], rows: Sequence[Sequence], precision: int = 4) -> str:
    """Format a table of mixed values as aligned plain text."""

    def render(value) -> str:
        if value is None:
            return "/"
        if isinstance(value, float):
            return f"{value:.{precision}f}"
        return str(value)

    rendered = [[render(value) for value in row] for row in rows]
    widths = [
        max(len(str(header)), *(len(row[index]) for row in rendered)) if rendered else len(str(header))
        for index, header in enumerate(headers)
    ]
    lines = [
        "  ".join(str(header).ljust(width) for header, width in zip(headers, widths)),
        "  ".join("-" * width for width in widths),
    ]
    for row in rendered:
        lines.append("  ".join(cell.ljust(width) for cell, width in zip(row, widths)))
    return "\n".join(lines)


@dataclass
class ExperimentReport:
    """Structured result of one experiment harness.

    ``rows`` is a list of equal-length sequences matching ``headers``;
    ``series`` optionally carries per-curve data (used by figure-style
    experiments); ``notes`` records the exact configuration used so the
    report text (:meth:`to_text`, the file ``scripts/run_all_experiments.py``
    writes per experiment) is self-describing.
    """

    experiment_id: str
    title: str
    headers: List[str] = field(default_factory=list)
    rows: List[List] = field(default_factory=list)
    series: Dict[str, List[tuple]] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def add_row(self, *values) -> None:
        """Append one row to the tabular part of the report."""
        self.rows.append(list(values))

    def add_series(self, name: str, points: List[tuple]) -> None:
        """Record one curve (list of ``(x, y)`` points)."""
        self.series[name] = list(points)

    def add_note(self, note: str) -> None:
        """Attach a free-text note (configuration, caveat, observation)."""
        self.notes.append(note)

    def to_text(self, precision: int = 4) -> str:
        """Render the report as plain text (the paper-style rows / series)."""
        parts = [f"== {self.experiment_id}: {self.title} =="]
        if self.rows:
            parts.append(format_table(self.headers, self.rows, precision=precision))
        for name, points in self.series.items():
            rendered = ", ".join(
                f"({x:.3g}, {y:.4g})" if isinstance(y, (int, float)) else f"({x:.3g}, {y})"
                for x, y in points
            )
            parts.append(f"series {name}: {rendered}")
        for note in self.notes:
            parts.append(f"note: {note}")
        return "\n".join(parts)

    def best_by(self, column: str, minimize: bool = True) -> Optional[List]:
        """Return the row with the best value of ``column`` (ignoring None)."""
        if column not in self.headers:
            return None
        index = self.headers.index(column)
        candidates = [row for row in self.rows if isinstance(row[index], (int, float))]
        if not candidates:
            return None
        return (min if minimize else max)(candidates, key=lambda row: row[index])
