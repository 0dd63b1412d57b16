"""Tests for CSV / JSON persistence (repro.io)."""

import json

import pytest

from repro.core.inference import TCrowdModel
from repro.io import (
    dataset_from_dict,
    dataset_to_dict,
    load_dataset_json,
    load_schema_json,
    read_answers_csv,
    read_ground_truth_csv,
    result_to_dict,
    save_dataset_json,
    save_schema_json,
    schema_from_dict,
    schema_to_dict,
    write_answers_csv,
    write_estimates_csv,
    write_ground_truth_csv,
)
from repro.metrics import error_rate, mnad
from repro.utils.exceptions import DataError


class TestSchemaJson:
    def test_roundtrip(self, mixed_schema, tmp_path):
        path = tmp_path / "schema.json"
        save_schema_json(mixed_schema, path)
        loaded = load_schema_json(path)
        assert loaded.num_rows == mixed_schema.num_rows
        assert [c.name for c in loaded.columns] == [c.name for c in mixed_schema.columns]
        for original, restored in zip(mixed_schema.columns, loaded.columns):
            assert original.attribute_type == restored.attribute_type
            assert original.labels == restored.labels
            assert original.domain == restored.domain

    def test_dict_roundtrip_preserves_entity_attribute(self, mixed_schema):
        restored = schema_from_dict(schema_to_dict(mixed_schema))
        assert restored.entity_attribute == mixed_schema.entity_attribute

    def test_malformed_document_rejected(self):
        with pytest.raises(DataError):
            schema_from_dict({"columns": [{"name": "x", "type": "bogus"}]})


class TestAnswersCsv:
    def test_roundtrip(self, mixed_schema, mixed_answers, tmp_path):
        path = tmp_path / "answers.csv"
        write_answers_csv(mixed_answers, path)
        loaded = read_answers_csv(mixed_schema, path)
        assert len(loaded) == len(mixed_answers)
        for original, restored in zip(mixed_answers, loaded):
            assert original.worker == restored.worker
            assert original.cell() == restored.cell()
            if isinstance(original.value, float):
                assert restored.value == pytest.approx(original.value)
            else:
                assert restored.value == original.value

    def test_missing_columns_rejected(self, mixed_schema, tmp_path):
        path = tmp_path / "broken.csv"
        path.write_text("worker,row\nw,0\n", encoding="utf-8")
        with pytest.raises(DataError):
            read_answers_csv(mixed_schema, path)

    def test_non_numeric_continuous_value_rejected(self, mixed_schema, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "worker,row,column,value\nw,0,weight,not-a-number\n", encoding="utf-8"
        )
        with pytest.raises(DataError):
            read_answers_csv(mixed_schema, path)

    def test_inference_on_reloaded_answers_matches(self, mixed_schema, mixed_answers, tmp_path):
        path = tmp_path / "answers.csv"
        write_answers_csv(mixed_answers, path)
        loaded = read_answers_csv(mixed_schema, path)
        model = TCrowdModel(max_iterations=8)
        original = model.fit(mixed_schema, mixed_answers)
        reloaded = model.fit(mixed_schema, loaded)
        assert original.estimates() == reloaded.estimates()


class TestCellCsv:
    def test_ground_truth_roundtrip(self, small_dataset, tmp_path):
        path = tmp_path / "truth.csv"
        write_ground_truth_csv(small_dataset.ground_truth, small_dataset.schema, path)
        loaded = read_ground_truth_csv(small_dataset.schema, path)
        assert set(loaded) == set(small_dataset.ground_truth)
        for cell, value in small_dataset.ground_truth.items():
            if isinstance(value, float):
                assert loaded[cell] == pytest.approx(value)
            else:
                assert loaded[cell] == value

    def test_estimates_export(self, mixed_schema, mixed_answers, fitted_result, tmp_path):
        path = tmp_path / "estimates.csv"
        write_estimates_csv(fitted_result, mixed_schema, path)
        loaded = read_ground_truth_csv(mixed_schema, path)
        assert len(loaded) == mixed_schema.num_cells

    def test_invalid_label_rejected_on_read(self, mixed_schema, tmp_path):
        path = tmp_path / "bad_truth.csv"
        path.write_text("row,column,value\n0,color,purple\n", encoding="utf-8")
        with pytest.raises(DataError):
            read_ground_truth_csv(mixed_schema, path)


class TestDatasetJson:
    def test_roundtrip_preserves_metrics(self, small_dataset, tmp_path):
        path = tmp_path / "dataset.json"
        save_dataset_json(small_dataset, path)
        loaded = load_dataset_json(path)
        assert loaded.schema.num_cells == small_dataset.schema.num_cells
        assert loaded.num_answers == small_dataset.num_answers
        model = TCrowdModel(max_iterations=8)
        original = model.fit(small_dataset.schema, small_dataset.answers)
        restored = model.fit(loaded.schema, loaded.answers)
        assert error_rate(original, small_dataset) == pytest.approx(
            error_rate(restored, loaded)
        )
        assert mnad(original, small_dataset) == pytest.approx(mnad(restored, loaded))

    def test_document_is_valid_json(self, small_dataset, tmp_path):
        path = tmp_path / "dataset.json"
        save_dataset_json(small_dataset, path)
        document = json.loads(path.read_text(encoding="utf-8"))
        assert document["format_version"] == 1
        assert len(document["answers"]) == small_dataset.num_answers

    def test_oracle_not_serialised(self, small_dataset):
        restored = dataset_from_dict(dataset_to_dict(small_dataset))
        assert restored.oracle is None
        assert restored.worker_pool is None

    def test_malformed_document_rejected(self):
        with pytest.raises(DataError):
            dataset_from_dict({"schema": {"columns": []}})


class TestResultSummary:
    def test_tcrowd_result_summary(self, fitted_result, mixed_schema):
        document = result_to_dict(fitted_result)
        assert len(document["estimates"]) == mixed_schema.num_cells
        assert set(document["worker_qualities"]) == set(fitted_result.worker_ids)
        assert len(document["row_difficulty"]) == mixed_schema.num_rows
        assert json.dumps(document)  # fully JSON-serialisable

    def test_baseline_result_summary(self, mixed_schema, mixed_answers):
        from repro.baselines import MajorityVoting

        result = MajorityVoting().fit(mixed_schema, mixed_answers)
        document = result_to_dict(result)
        assert "worker_qualities" not in document
        assert document["estimates"]
