"""Tabular data model of Section 3 (Definition 1).

A :class:`TableSchema` describes the two-dimensional table ``C = {c_ij}`` that
is being crowdsourced: the entity (key) attribute, and one
:class:`Column` per non-key attribute.  Each column is either *categorical*
(finite unordered label set) or *continuous* (real-valued with a domain
interval).  Cells are addressed by ``(row, column)`` integer indices.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from repro.utils.exceptions import ConfigurationError, DataError

#: Largest magnitude a continuous answer may have.  EM squares deviations
#: and sums them, and the structure-aware gain squares the covariance of two
#: columns' errors (Table 5, both continuous): a fourth power of an answer.
#: At 1e75 that stays near 1e301, below float64's ~1.8e308; at 1e80 a select
#: overflowed, and at 3e154 EM's standardisation already did.
MAX_ANSWER_MAGNITUDE = 1e75


class AttributeType(enum.Enum):
    """Datatype of a column: categorical (nominal) or continuous (numeric)."""

    CATEGORICAL = "categorical"
    CONTINUOUS = "continuous"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class Column:
    """A single non-key attribute of the crowdsourced table.

    Parameters
    ----------
    name:
        Attribute name, unique within a schema.
    attribute_type:
        :class:`AttributeType.CATEGORICAL` or :class:`AttributeType.CONTINUOUS`.
    labels:
        The finite label set ``L_j`` (categorical columns only).
    domain:
        ``(low, high)`` value range (continuous columns only).  Used by the
        synthetic data generator and by noise injection; answers outside the
        domain are accepted but clipped by the platform simulator.
    """

    name: str
    attribute_type: AttributeType
    labels: tuple = ()
    domain: tuple = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("Column name must be non-empty")
        if self.is_categorical:
            if len(self.labels) < 2:
                raise ConfigurationError(
                    f"Categorical column {self.name!r} needs at least 2 labels, "
                    f"got {len(self.labels)}"
                )
            if len(set(self.labels)) != len(self.labels):
                raise ConfigurationError(
                    f"Categorical column {self.name!r} has duplicate labels"
                )
            object.__setattr__(self, "labels", tuple(self.labels))
        else:
            if self.labels:
                raise ConfigurationError(
                    f"Continuous column {self.name!r} must not define labels"
                )
            if self.domain:
                low, high = self.domain
                if not low < high:
                    raise ConfigurationError(
                        f"Continuous column {self.name!r} has an empty domain "
                        f"{self.domain!r}"
                    )
                object.__setattr__(self, "domain", (float(low), float(high)))

    # -- convenience -------------------------------------------------------

    @property
    def is_categorical(self) -> bool:
        """True if the column holds nominal labels."""
        return self.attribute_type is AttributeType.CATEGORICAL

    @property
    def is_continuous(self) -> bool:
        """True if the column holds real values."""
        return self.attribute_type is AttributeType.CONTINUOUS

    @property
    def num_labels(self) -> int:
        """Size of the label set ``|L_j|`` (categorical columns only)."""
        if not self.is_categorical:
            raise ConfigurationError(
                f"Column {self.name!r} is continuous and has no label set"
            )
        return len(self.labels)

    def label_index(self, label) -> int:
        """Return the index of ``label`` within the label set ``L_j``."""
        try:
            return self.labels.index(label)
        except ValueError as exc:
            raise DataError(
                f"Label {label!r} is not in the domain of column {self.name!r}"
            ) from exc

    def contains_label(self, label) -> bool:
        """True if ``label`` belongs to the label set of this column."""
        return label in self.labels

    # -- constructors ------------------------------------------------------

    @classmethod
    def categorical(cls, name: str, labels: Iterable) -> "Column":
        """Build a categorical column with the given label set."""
        return cls(name, AttributeType.CATEGORICAL, labels=tuple(labels))

    @classmethod
    def continuous(cls, name: str, domain: tuple = ()) -> "Column":
        """Build a continuous column with an optional ``(low, high)`` domain."""
        return cls(name, AttributeType.CONTINUOUS, domain=tuple(domain))


@dataclass(frozen=True)
class TableSchema:
    """Schema of the crowdsourced table: key attribute, columns, row count.

    Cells are addressed by ``(row, column)`` pairs where ``row`` is in
    ``range(num_rows)`` and ``column`` in ``range(num_columns)``.
    """

    entity_attribute: str
    columns: tuple
    num_rows: int
    _name_to_index: dict = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self) -> None:
        if self.num_rows <= 0:
            raise ConfigurationError(
                f"num_rows must be positive, got {self.num_rows}"
            )
        columns = tuple(self.columns)
        if not columns:
            raise ConfigurationError("A schema needs at least one column")
        names = [column.name for column in columns]
        if len(set(names)) != len(names):
            raise ConfigurationError("Column names must be unique")
        if self.entity_attribute in names:
            raise ConfigurationError(
                "The entity attribute is the key and must not also be a column"
            )
        object.__setattr__(self, "columns", columns)
        object.__setattr__(
            self, "_name_to_index", {name: j for j, name in enumerate(names)}
        )

    # -- sizes -------------------------------------------------------------

    @property
    def num_columns(self) -> int:
        """Number of non-key columns ``M``."""
        return len(self.columns)

    @property
    def num_cells(self) -> int:
        """Total number of cells ``N * M``."""
        return self.num_rows * self.num_columns

    # -- lookups -----------------------------------------------------------

    def column(self, ref) -> Column:
        """Return a column by integer index or by name."""
        if isinstance(ref, str):
            return self.columns[self.column_index(ref)]
        return self.columns[ref]

    def column_index(self, name: str) -> int:
        """Return the index of the column called ``name``."""
        try:
            return self._name_to_index[name]
        except KeyError as exc:
            raise DataError(f"Unknown column {name!r}") from exc

    @property
    def categorical_indices(self) -> tuple:
        """Indices of all categorical columns."""
        return tuple(
            j for j, column in enumerate(self.columns) if column.is_categorical
        )

    @property
    def continuous_indices(self) -> tuple:
        """Indices of all continuous columns."""
        return tuple(
            j for j, column in enumerate(self.columns) if column.is_continuous
        )

    def cells(self) -> Iterator[tuple]:
        """Iterate over every ``(row, column)`` cell address."""
        for i in range(self.num_rows):
            for j in range(self.num_columns):
                yield i, j

    def validate_cell(self, row: int, col: int) -> None:
        """Raise :class:`DataError` if ``(row, col)`` is out of bounds."""
        if not 0 <= row < self.num_rows:
            raise DataError(
                f"Row index {row} out of range [0, {self.num_rows})"
            )
        if not 0 <= col < self.num_columns:
            raise DataError(
                f"Column index {col} out of range [0, {self.num_columns})"
            )

    def validate_value(self, col: int, value) -> None:
        """Raise :class:`DataError` if ``value`` is invalid for column ``col``."""
        column = self.columns[col]
        if column.is_categorical:
            if not column.contains_label(value):
                raise DataError(
                    f"Value {value!r} is not a valid label for column "
                    f"{column.name!r}"
                )
        else:
            try:
                number = float(value)
            except (TypeError, ValueError) as exc:
                raise DataError(
                    f"Value {value!r} is not numeric for continuous column "
                    f"{column.name!r}"
                ) from exc
            if not (math.isfinite(number) and abs(number) <= MAX_ANSWER_MAGNITUDE):
                raise DataError(
                    f"Value {value!r} is not a finite number of magnitude at "
                    f"most {MAX_ANSWER_MAGNITUDE:g} for continuous column "
                    f"{column.name!r}"
                )

    # -- constructors ------------------------------------------------------

    @classmethod
    def build(
        cls,
        entity_attribute: str,
        columns: Sequence[Column],
        num_rows: int,
    ) -> "TableSchema":
        """Convenience constructor accepting any column sequence."""
        return cls(entity_attribute, tuple(columns), int(num_rows))
