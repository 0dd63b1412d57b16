"""Columnar model state, the model-state hash schemes and the audit-format pin.

* An :class:`~repro.core.inference.InferenceResult` stores its posteriors
  as arrays; ``posterior()`` / ``estimate()`` must equal, bit for bit, the
  per-cell objects fits built before (the reference loop below).
* Scheme 2 (:func:`~repro.core.codec.buffer_hash`) depends on the bits
  alone: equal across a fit, a snapshot round trip and the async snapshot;
  moved by one ulp in any buffer or any header
  field; blind to the padded label width.
* Durable directories written at audit format 1 (committed fixtures)
  recover, re-verify and keep chaining at format 1, with the full warm EM
  budget their manifests predate; a copy that ran the retired objective
  stop or Newton M-step is refused.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import shutil

import numpy as np
import pytest

from repro.core.answers import AnswerSet
from repro.core.assignment import TCrowdAssigner
from repro.core.codec import (
    buffer_hash,
    deserialize_result,
    model_state_hash,
    serialize_result,
)
from repro.core.inference import VARIANCE_FLOOR, TCrowdModel
from repro.core.posteriors import CategoricalPosterior, GaussianPosterior
from repro.core.schema import TableSchema
from repro.core.worker_model import WorkerModel
from repro.datasets import load_celebrity
from repro.engine.provenance import AUDIT_FORMAT, DecisionRecorder
from repro.service.app import ServiceServer
from repro.service.client import ServiceClient
from repro.service.registry import SessionRegistry, schema_from_dict
from repro.utils.exceptions import ConfigurationError, DurabilityError

FIXTURES = pathlib.Path(__file__).parent / "fixtures" / "audit_format1"

#: Format-1 digest of the 12-row fit held by the jsonl fixture's snapshot,
#: computed by the commit that wrote the fixture (audit format 1).
FORMAT1_SNAPSHOT_DIGEST = (
    "873bff0e9611f2a3d82a76c96180ab852a0f7c6a9c91d6b0ceb8e0238880fe68"
)

FAST_MODEL = {"max_iterations": 6, "m_step_iterations": 10}


def reference_posteriors(ws):
    """The per-cell posterior objects of a fit's final E-step workspace.

    This is the loop fits used to end with (``_build_posteriors``), kept
    as the oracle the columnar result is checked against.
    """
    num_cols = ws.schema.num_columns
    posteriors = {}
    for cell_id, key in enumerate(ws.cont_keys.tolist()):
        row, col = divmod(key, num_cols)
        scale = float(ws.scale[col])
        offset = float(ws.offset[col])
        posteriors[(row, col)] = GaussianPosterior(
            float(ws.cont_post_mean[cell_id]) * scale + offset,
            max(float(ws.cont_post_var[cell_id]) * scale**2, VARIANCE_FLOOR),
        )
    for cell_id, key in enumerate(ws.cat_keys.tolist()):
        row, col = divmod(key, num_cols)
        column = ws.schema.columns[col]
        probs = ws.cat_post[cell_id, : column.num_labels]
        posteriors[(row, col)] = CategoricalPosterior(column.labels, probs)
    return posteriors


@pytest.fixture(scope="module")
def dataset():
    return load_celebrity(seed=7, num_rows=12)


@pytest.fixture(scope="module")
def fitted(dataset):
    return TCrowdModel(**FAST_MODEL).fit(dataset.schema, dataset.answers)


class TestColumnarPosteriors:
    @pytest.fixture(scope="class")
    def golden_fits(self):
        """Every fit of the golden-trace session, with its final workspace."""
        from test_golden_trace import replay_session

        fits = []
        original_fit = TCrowdModel.fit
        original_e_step = TCrowdModel._e_step

        def e_step(model, ws, *args):
            model._captured_ws = ws
            return original_e_step(model, ws, *args)

        def fit(model, *args, **kwargs):
            result = original_fit(model, *args, **kwargs)
            fits.append((model._captured_ws, result))
            return result

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(TCrowdModel, "_e_step", e_step)
            patch.setattr(TCrowdModel, "fit", fit)
            replay_session("incremental")
        assert len(fits) >= 5
        return fits

    def test_views_equal_the_per_cell_objects_bit_for_bit(self, golden_fits):
        for ws, result in golden_fits:
            reference = reference_posteriors(ws)
            assert result.answered_cells() == list(reference)
            schema = result.schema
            for row in range(schema.num_rows):
                for col in range(schema.num_columns):
                    want = reference.get((row, col))
                    got = result.posterior(row, col)
                    if want is None:
                        assert result.estimate(row, col) == got.point_estimate()
                        continue
                    assert type(got) is type(want)
                    if want.is_categorical:
                        assert got.labels == want.labels
                        np.testing.assert_array_equal(got.probs, want.probs)
                        assert got.probs.tobytes() == want.probs.tobytes()
                    else:
                        assert got.mean == want.mean
                        assert got.variance == want.variance
                    assert result.estimate(row, col) == want.point_estimate()

    def test_wide_label_sets_normalise_row_by_row(self):
        """Row sums must not see the zero padding: with 8+ padded slots
        numpy's pairwise summation would add in another order."""
        from repro.core.inference import label_row_totals

        rng = np.random.default_rng(3)
        counts = rng.integers(2, 13, size=400)
        probs = rng.random((400, 12)) ** 3
        probs[np.arange(12)[None, :] >= counts[:, None]] = 0.0
        totals = label_row_totals(probs, counts)
        for i, count in enumerate(counts.tolist()):
            assert totals[i] == probs[i, :count].sum()

    def test_estimates_are_plain_python_values(self, fitted):
        for (row, col), value in fitted.estimates().items():
            if fitted.schema.columns[col].is_categorical:
                assert value in fitted.schema.columns[col].labels
            else:
                assert type(value) is float
        assert fitted.estimate(10**6, 3) == fitted.posterior(10**6, 3).point_estimate()


def _with(result, **changes):
    return dataclasses.replace(result, **changes)


def _nudged(array, index=0):
    array = np.array(array, dtype=float)
    array.flat[index] = np.nextafter(array.flat[index], np.inf)
    return array


class TestBufferHash:
    def test_equal_across_fit_snapshot_and_async_snapshot(self, dataset, fitted):
        digest = model_state_hash(fitted, 2)
        text = json.dumps(serialize_result(fitted))
        restored = deserialize_result(json.loads(text), dataset.schema)
        assert model_state_hash(restored, 2) == digest

        from repro.engine import AsyncRefitPolicy

        inner = TCrowdAssigner(dataset.schema, model=TCrowdModel(**FAST_MODEL))
        policy = AsyncRefitPolicy(inner, max_stale_answers=0)
        policy.observe(dataset.answers)
        snapshot = policy.engine.snapshot_for(dataset.answers)
        assert model_state_hash(snapshot.result, 2) == digest

    def test_one_ulp_in_any_buffer_moves_the_digest(self, fitted):
        digest = buffer_hash(fitted)
        for name in ("alpha", "beta", "phi", "column_scale", "column_offset",
                     "cont_mean", "cont_var"):
            changed = _with(fitted, **{name: _nudged(getattr(fitted, name))})
            assert buffer_hash(changed) != digest, name
        probs = _nudged(fitted.cat_probs, index=1)
        assert buffer_hash(_with(fitted, cat_probs=probs)) != digest
        trace = list(fitted.objective_trace)
        trace[-1] = float(np.nextafter(trace[-1], np.inf))
        assert buffer_hash(_with(fitted, objective_trace=trace)) != digest
        for name in ("cont_keys", "cat_keys"):
            keys = getattr(fitted, name).copy()
            keys[0] -= 1
            assert buffer_hash(_with(fitted, **{name: keys})) != digest, name

    def test_any_header_field_moves_the_digest(self, fitted):
        digest = buffer_hash(fitted)
        schema = fitted.schema
        renamed = ["x" + fitted.worker_ids[0]] + list(fitted.worker_ids[1:])
        changes = {
            "worker_ids": renamed,
            "worker_model": WorkerModel(
                float(np.nextafter(fitted.worker_model.epsilon, 2.0))
            ),
            "n_iterations": fitted.n_iterations + 1,
            "converged": not fitted.converged,
            "stopped_by": "objective",
            "schema": TableSchema.build(
                schema.entity_attribute, schema.columns, schema.num_rows + 1
            ),
        }
        for name, value in changes.items():
            assert buffer_hash(_with(fitted, **{name: value})) != digest, name

    def test_padded_width_does_not_reach_the_digest(self, fitted):
        wider = np.pad(fitted.cat_probs, ((0, 0), (0, 5)))
        assert buffer_hash(_with(fitted, cat_probs=wider)) == buffer_hash(fitted)

    def test_scheme_1_layout_is_pinned(self, dataset):
        """The format-1 digest of a fixed fit equals the one the parent
        commit computed for it (so format-1 ledgers keep verifying)."""
        root = FIXTURES / "jsonl" / "format1-jsonl"
        schema = schema_from_dict(
            json.loads((root / "session.json").read_text())["schema"]
        )
        snapshot = json.loads(next((root / "snapshots").glob("*.json")).read_text())
        result = deserialize_result(snapshot["model"]["result"], schema)
        assert model_state_hash(result, 1) == FORMAT1_SNAPSHOT_DIGEST
        assert serialize_result(result) == snapshot["model"]["result"]

    def test_unknown_format_is_rejected(self, fitted):
        with pytest.raises(ConfigurationError):
            model_state_hash(fitted, 3)


class TestSnapshotChecks:
    @pytest.mark.parametrize("corrupt", [
        lambda entry: entry[3].__setitem__(1, 0.0),        # zero variance
        lambda entry: entry[3].__setitem__(1, float("nan")),
    ])
    def test_bad_gaussian_is_a_durability_error(self, fitted, corrupt):
        payload = serialize_result(fitted)
        corrupt(next(e for e in payload["posteriors"] if e[2] == "g"))
        with pytest.raises(DurabilityError):
            deserialize_result(payload, fitted.schema)

    @pytest.mark.parametrize("corrupt", [
        lambda entry: entry[3].append(0.0),                # wrong label count
        lambda entry: entry[3].__setitem__(slice(None), [0.0] * len(entry[3])),
        lambda entry: entry[3].__setitem__(0, float("inf")),
    ])
    def test_bad_label_row_is_a_durability_error(self, fitted, corrupt):
        payload = serialize_result(fitted)
        corrupt(next(e for e in payload["posteriors"] if e[2] == "c"))
        with pytest.raises(DurabilityError):
            deserialize_result(payload, fitted.schema)

    def test_cell_order_and_kind_mismatches_are_durability_errors(self, fitted):
        for change in ({0: 10**6}, {2: "c"}):
            payload = serialize_result(fitted)
            entry = payload["posteriors"][0]
            for index, value in change.items():
                entry[index] = value
            with pytest.raises(DurabilityError):
                deserialize_result(payload, fitted.schema)
        payload = serialize_result(fitted)
        cells = payload["posteriors"]
        cells[0], cells[1] = cells[1], cells[0]
        with pytest.raises(DurabilityError):
            deserialize_result(payload, fitted.schema)


class TestAuditFormatPin:
    def test_recorder_state_carries_its_format(self):
        recorder = DecisionRecorder()
        assert recorder.audit_format == AUDIT_FORMAT == 2
        assert recorder.state()["format"] == 2
        legacy = DecisionRecorder(audit_format=1)
        legacy.restore(DecisionRecorder(audit_format=1).state())
        with pytest.raises(DurabilityError):
            legacy.restore(recorder.state())
        with pytest.raises(DurabilityError):
            recorder.restore(legacy.state())
        with pytest.raises(ConfigurationError):
            DecisionRecorder(audit_format=7)

    def test_recorder_hashes_at_its_format(self, fitted):
        for audit_format in (1, 2):
            recorder = DecisionRecorder(audit_format=audit_format)
            assert recorder.model_hash_for(5, fitted) == model_state_hash(
                fitted, audit_format
            )

    def test_new_manifests_pin_format_2(self, tmp_path):
        from repro.config import SessionSpec
        from repro.service.registry import schema_to_dict

        dataset = load_celebrity(seed=7, num_rows=4)
        spec = SessionSpec.builder().model(**FAST_MODEL).build()
        registry = SessionRegistry(durable_root=tmp_path)
        session = registry.create({
            "schema": schema_to_dict(dataset.schema), "durable": True,
            "session_id": "fresh", **spec.to_dict(),
        })
        assert session.durable.recorder.audit_format == 2
        registry.close_all()
        manifest = json.loads((tmp_path / "fresh" / "session.json").read_text())
        assert manifest["audit_format"] == 2
        again = SessionRegistry(durable_root=tmp_path)
        assert again.recover_all() == ["fresh"]
        assert again.get("fresh").durable.recorder.audit_format == 2
        again.close_all()


class TestFormat1Fixtures:
    """Durable directories written at audit format 1 by an earlier commit."""

    @pytest.mark.parametrize("backend", ["jsonl", "sqlite"])
    def test_recovers_verifies_and_keeps_chaining_at_format_1(
        self, backend, tmp_path
    ):
        expected = json.loads((FIXTURES / backend / "expected.json").read_text())
        session_id = expected["session_id"]
        shutil.copytree(FIXTURES / backend / session_id, tmp_path / session_id)
        registry = SessionRegistry(durable_root=tmp_path)
        try:
            assert registry.recover_all() == [session_id]
            session = registry.get(session_id)
            stats = session.stats()
            assert stats["durability_backend"] == backend
            assert stats["audit_replay_verified"] > 0
            assert stats["audit_replay_mismatches"] == 0
            assert stats["decisions_recorded"] == expected["decisions"]
            assert stats["decision_chain_hash"] == expected["chain_head"]
            recorder = session.durable.recorder
            assert recorder.audit_format == 1
            # The manifest predates the warm budget: warm refits replay
            # with the full max_iterations they ran.
            model = session.spec.policy.model
            assert model.warm_iterations == model.max_iterations == 4

            session.select("w002", k=2)
            record = recorder.get(expected["decisions"])
            assert record.prev_hash == expected["chain_head"]
            served = session.durable.policy.last_result
            assert record.model_hash == model_state_hash(served, 1)
            assert record.model_hash != model_state_hash(served, 2)
        finally:
            registry.close_all()

        # The restart after the upgrade still recovers at format 1: the
        # closing snapshot carries format-1 audit state.
        again = SessionRegistry(durable_root=tmp_path)
        try:
            assert again.recover_all() == [session_id]
            recovered = again.get(session_id)
            assert recovered.durable.recorder.audit_format == 1
            assert recovered.stats()["decisions_recorded"] == expected["decisions"] + 1
        finally:
            again.close_all()

    @pytest.mark.parametrize(
        "path, value",
        [
            ("serving.refit_tol", 0.001),
            ("policy.model.m_step", "newton"),
            ("policy.vectorized", False),
            ("policy.continuous_samples", 4),
        ],
        ids=["refit_tol", "newton", "scalar", "monte_carlo"],
    )
    def test_a_session_that_cannot_replay_as_written_is_refused(
        self, path, value, tmp_path, caplog
    ):
        """Its warm refits stopped on the objective test, it ran another
        M-step, or it scored through the scalar gain: recovery would fork
        its ledger, so it is skipped on boot and a POST over it is a 400
        naming the field."""
        session_dir = tmp_path / "format1-jsonl"
        shutil.copytree(FIXTURES / "jsonl" / "format1-jsonl", session_dir)
        manifest = json.loads((session_dir / "session.json").read_text())
        *sections, key = path.split(".")
        section = manifest["spec"]
        for name in sections:
            section = section[name]
        section[key] = value
        (session_dir / "session.json").write_text(json.dumps(manifest))
        registry = SessionRegistry(durable_root=tmp_path)
        with caplog.at_level("WARNING", logger="repro.service.registry"):
            assert registry.recover_all() == []
        assert path in caplog.text
        with ServiceServer(registry) as server:
            status, body = ServiceClient(server.address).request(
                "POST", "/sessions",
                {"version": 1, "durable": True, "session_id": "format1-jsonl"},
            )
        assert (status, body["path"]) == (400, path), body

    def test_fixtures_have_no_manifest_audit_format(self):
        for backend in ("jsonl", "sqlite"):
            session_id = f"format1-{backend}"
            manifest = json.loads(
                (FIXTURES / backend / session_id / "session.json").read_text()
            )
            assert "audit_format" not in manifest


def test_answer_set_growth_keeps_keys_row_major(dataset):
    """Cells answered out of order still come out in row-major key order."""
    answers = AnswerSet(dataset.schema)
    for answer in reversed(list(dataset.answers)):
        answers.add(answer)
    result = TCrowdModel(**FAST_MODEL).fit(dataset.schema, answers)
    for keys in (result.cont_keys, result.cat_keys):
        assert np.all(np.diff(keys) > 0)
