"""Unit tests for the tabular data model (repro.core.schema)."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.schema import MAX_ANSWER_MAGNITUDE, AttributeType, Column, TableSchema
from repro.utils.exceptions import ConfigurationError, DataError


class TestColumn:
    def test_categorical_constructor(self):
        column = Column.categorical("aspect", ["food", "service"])
        assert column.is_categorical
        assert not column.is_continuous
        assert column.num_labels == 2
        assert column.labels == ("food", "service")

    def test_continuous_constructor(self):
        column = Column.continuous("age", (18, 80))
        assert column.is_continuous
        assert not column.is_categorical
        assert column.domain == (18.0, 80.0)

    def test_continuous_without_domain(self):
        column = Column.continuous("score")
        assert column.domain == ()

    def test_categorical_needs_two_labels(self):
        with pytest.raises(ConfigurationError):
            Column.categorical("bad", ["only"])

    def test_categorical_rejects_duplicate_labels(self):
        with pytest.raises(ConfigurationError):
            Column.categorical("bad", ["a", "a"])

    def test_empty_name_rejected(self):
        with pytest.raises(ConfigurationError):
            Column.categorical("", ["a", "b"])

    def test_continuous_rejects_labels(self):
        with pytest.raises(ConfigurationError):
            Column("x", AttributeType.CONTINUOUS, labels=("a", "b"))

    def test_continuous_rejects_empty_domain(self):
        with pytest.raises(ConfigurationError):
            Column.continuous("x", (5.0, 5.0))

    def test_label_index_roundtrip(self):
        column = Column.categorical("c", ["x", "y", "z"])
        for index, label in enumerate(column.labels):
            assert column.label_index(label) == index

    def test_label_index_unknown_label(self):
        column = Column.categorical("c", ["x", "y"])
        with pytest.raises(DataError):
            column.label_index("missing")

    def test_contains_label(self):
        column = Column.categorical("c", ["x", "y"])
        assert column.contains_label("x")
        assert not column.contains_label("q")

    def test_num_labels_on_continuous_raises(self):
        column = Column.continuous("c", (0, 1))
        with pytest.raises(ConfigurationError):
            _ = column.num_labels

    def test_attribute_type_str(self):
        assert str(AttributeType.CATEGORICAL) == "categorical"
        assert str(AttributeType.CONTINUOUS) == "continuous"

    @given(st.integers(min_value=2, max_value=12))
    def test_label_count_matches_input(self, count):
        labels = [f"l{i}" for i in range(count)]
        assert Column.categorical("c", labels).num_labels == count


class TestTableSchema:
    def _schema(self, num_rows=5):
        return TableSchema.build(
            "entity",
            [
                Column.categorical("cat", ["a", "b", "c"]),
                Column.continuous("num", (0, 10)),
            ],
            num_rows,
        )

    def test_basic_sizes(self):
        schema = self._schema(5)
        assert schema.num_rows == 5
        assert schema.num_columns == 2
        assert schema.num_cells == 10

    def test_column_lookup_by_name_and_index(self):
        schema = self._schema()
        assert schema.column("cat").name == "cat"
        assert schema.column(1).name == "num"
        assert schema.column_index("num") == 1

    def test_unknown_column_name(self):
        schema = self._schema()
        with pytest.raises(DataError):
            schema.column_index("missing")

    def test_categorical_and_continuous_indices(self):
        schema = self._schema()
        assert schema.categorical_indices == (0,)
        assert schema.continuous_indices == (1,)

    def test_cells_iterates_all(self):
        schema = self._schema(3)
        cells = list(schema.cells())
        assert len(cells) == 6
        assert cells[0] == (0, 0)
        assert cells[-1] == (2, 1)

    def test_validate_cell_bounds(self):
        schema = self._schema(3)
        schema.validate_cell(2, 1)
        with pytest.raises(DataError):
            schema.validate_cell(3, 0)
        with pytest.raises(DataError):
            schema.validate_cell(0, 2)
        with pytest.raises(DataError):
            schema.validate_cell(-1, 0)

    def test_validate_value(self):
        schema = self._schema()
        schema.validate_value(0, "a")
        schema.validate_value(1, 3.5)
        schema.validate_value(1, MAX_ANSWER_MAGNITUDE)
        schema.validate_value(1, -MAX_ANSWER_MAGNITUDE)
        with pytest.raises(DataError):
            schema.validate_value(0, "zzz")
        with pytest.raises(DataError):
            schema.validate_value(1, "not-a-number")

    @pytest.mark.parametrize(
        "value",
        [
            float("nan"), float("inf"), -float("inf"), 1e999, "nan", "inf", "-Infinity",
            1e160, -1e160, "3e154", 1e80, np.nextafter(MAX_ANSWER_MAGNITUDE, np.inf),
        ],
    )
    def test_non_finite_continuous_values_are_rejected(self, value):
        """A NaN answer once passed validation and turned a row's estimates
        into NaN; a finite 3e154 overflowed EM's standardisation, and 1e80
        the structure-aware gain.  Every non-finite spelling and every
        magnitude above MAX_ANSWER_MAGNITUDE must be a DataError, also on the
        AnswerSet path the simulator uses."""
        from repro.core.answers import AnswerSet

        schema = self._schema()
        with pytest.raises(DataError, match="finite"):
            schema.validate_value(1, value)
        answers = AnswerSet(schema)
        with pytest.raises(DataError):
            answers.add_answer("w", 0, 1, value)
        assert len(answers) == 0

    def test_duplicate_column_names_rejected(self):
        with pytest.raises(ConfigurationError):
            TableSchema.build(
                "e",
                [Column.continuous("x"), Column.continuous("x")],
                3,
            )

    def test_entity_attribute_must_not_collide(self):
        with pytest.raises(ConfigurationError):
            TableSchema.build("x", [Column.continuous("x")], 3)

    def test_needs_at_least_one_column(self):
        with pytest.raises(ConfigurationError):
            TableSchema.build("e", [], 3)

    def test_needs_positive_rows(self):
        with pytest.raises(ConfigurationError):
            TableSchema.build("e", [Column.continuous("x")], 0)

    @given(st.integers(min_value=1, max_value=50), st.integers(min_value=1, max_value=8))
    def test_num_cells_is_product(self, rows, cols):
        columns = [Column.continuous(f"c{i}") for i in range(cols)]
        schema = TableSchema.build("e", columns, rows)
        assert schema.num_cells == rows * cols
        assert len(list(schema.cells())) == rows * cols
