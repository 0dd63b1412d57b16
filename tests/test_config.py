"""The versioned SessionSpec API: validation, round-tripping, factory, CLI.

Three contracts are pinned here:

* **Exact round-trip** — ``SessionSpec.from_dict(to_dict(spec)) == spec``
  for arbitrary valid specs, *through a JSON encode/decode* (hypothesis
  property tests; the same float-exact discipline as the WAL codec).
* **Path-qualified strictness** — every invalid field raises a
  :class:`~repro.config.SpecValidationError` whose ``path`` names the
  offending field (``serving.max_stale_answers``), and unknown fields are
  rejected rather than ignored.
* **Two serving outcomes** — the factory returns the bare assigner or the
  async refit wrapper, nothing else.
"""

from __future__ import annotations

import dataclasses
import inspect
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import (
    DurabilitySpec,
    ModelSpec,
    PolicySpec,
    ServingSpec,
    SessionSpec,
    SimulationSpec,
    SpecValidationError,
)
from repro.config.factory import (
    build_assigner,
    build_model,
    build_policy,
    wrap_policy,
)
from repro.config.spec import RETIRED_FIELDS
from repro.config.validate import main as validate_main
from repro.config.validate import validate_file
from repro.core.assignment import TCrowdAssigner
from repro.core.inference import TCrowdModel
from repro.utils.exceptions import ConfigurationError

# -- strategies ----------------------------------------------------------------

_floats = dict(allow_nan=False, allow_infinity=False)

model_specs = st.builds(
    ModelSpec,
    epsilon=st.floats(min_value=1e-3, max_value=10.0, **_floats),
    max_iterations=st.integers(min_value=1, max_value=200),
    warm_iterations=st.integers(min_value=1, max_value=200),
    tolerance=st.floats(min_value=1e-12, max_value=1e-2, **_floats),
    m_step_iterations=st.integers(min_value=1, max_value=60),
    difficulty_regularization=st.floats(min_value=0.0, max_value=5.0, **_floats),
    phi_regularization=st.floats(min_value=0.0, max_value=1.0, **_floats),
    use_difficulty=st.booleans(),
    standardize_continuous=st.booleans(),
)

policy_specs = st.builds(
    PolicySpec,
    model=model_specs,
    use_structure=st.booleans(),
    refit_every=st.integers(min_value=1, max_value=20),
    max_answers_per_cell=st.none() | st.integers(min_value=1, max_value=50),
    min_pairs=st.integers(min_value=0, max_value=20),
    warm_start=st.booleans(),
)

serving_specs = st.builds(
    ServingSpec,
    async_refit=st.booleans(),
    max_stale_answers=st.none() | st.integers(min_value=0, max_value=10_000),
)

durability_specs = st.builds(
    DurabilitySpec,
    durable_dir=st.none()
    | st.text(
        alphabet="abcdefghijklmnopqrstuvwxyz0123456789/_-.",
        min_size=1,
        max_size=40,
    ),
    snapshot_every_answers=st.integers(min_value=1, max_value=10_000),
    wal_fsync=st.booleans(),
)


@st.composite
def simulation_specs(draw):
    initial = draw(st.integers(min_value=1, max_value=5))
    target = initial + draw(st.floats(min_value=0.1, max_value=10.0, **_floats))
    return SimulationSpec(
        target_answers_per_task=target,
        initial_answers_per_task=initial,
        batch_size=draw(st.none() | st.integers(min_value=1, max_value=30)),
        eval_every_answers_per_task=draw(
            st.floats(min_value=0.1, max_value=5.0, **_floats)
        ),
        seed=draw(st.none() | st.integers(min_value=0, max_value=2**31 - 1)),
        max_steps=draw(st.none() | st.integers(min_value=0, max_value=1_000)),
    )


session_specs = st.builds(
    SessionSpec,
    policy=policy_specs,
    serving=serving_specs,
    durability=durability_specs,
    simulation=simulation_specs(),
)


# -- round-trip properties -----------------------------------------------------

SECTIONS = ("policy", "serving", "durability", "simulation")


class TestRoundTrip:
    @settings(max_examples=200)
    @given(spec=session_specs)
    def test_dict_round_trip_is_exact(self, spec):
        assert SessionSpec.from_dict(spec.to_dict()) == spec

    @settings(max_examples=200)
    @given(spec=session_specs)
    def test_json_round_trip_is_exact(self, spec):
        """Floats must survive JSON — the WAL codec's repr discipline."""
        rebuilt = SessionSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert rebuilt == spec
        assert rebuilt.to_dict() == spec.to_dict()

    @given(spec=session_specs)
    def test_specs_are_immutable(self, spec):
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.version = 2
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.serving.audit = False

    def test_sections_may_be_omitted(self):
        assert SessionSpec.from_dict({"version": 1}) == SessionSpec()
        for section in SECTIONS:
            assert SessionSpec.from_dict({"version": 1, section: None}) == SessionSpec()

    def test_version_is_required_and_pinned(self):
        with pytest.raises(SpecValidationError, match="version is required"):
            SessionSpec.from_dict({})
        with pytest.raises(SpecValidationError, match="must be 1"):
            SessionSpec.from_dict({"version": 2})


# -- validation ----------------------------------------------------------------


#: ``(path, value, dropped)``: each retired field at values that replay as
#: written (dropped) and at values that do not (refused at ``path``).
RETIRED_CASES = [
    ("policy.vectorized", True, True),
    ("policy.vectorized", False, False),
    ("policy.incremental", True, True),
    ("policy.incremental", False, True),
    ("policy.continuous_samples", 0, True),
    ("policy.continuous_samples", 4, False),
    ("policy.continuous_samples", False, False),
    ("policy.seed", None, True),
    ("policy.seed", 7, True),
    ("policy.seed", -1, False),
    ("policy.model.seed", 999, True),
    ("policy.model.seed", "7", False),
    ("policy.model.m_step", "lbfgs", True),
    ("policy.model.m_step", "newton", False),
    ("serving.refit_tol", 1e-9, True),
    ("serving.refit_tol", None, True),
    ("serving.processes", 2, True),
    ("serving.shards", 1, True),
    ("serving.shard_workers", 4, True),
    ("serving.scoring_cache", False, True),
]


class TestValidation:
    @pytest.mark.parametrize(
        "payload, path",
        [
            ({"serving": {"max_stale_answers": "four"}}, "serving.max_stale_answers"),
            ({"serving": {"audit": 1}}, "serving.audit"),
            ({"serving": {"max_stale_answers": -1}}, "serving.max_stale_answers"),
            ({"serving": {"async_refit": 1}}, "serving.async_refit"),
            ({"policy": {"model": {"warm_iterations": 0}}},
             "policy.model.warm_iterations"),
            ({"serving": {"bogus": True}}, "serving.bogus"),
            ({"policy": {"refit_every": 0}}, "policy.refit_every"),
            ({"policy": {"bogus_knob": 1}}, "policy.bogus_knob"),
            ({"policy": {"model": {"epsilon": 0}}}, "policy.model.epsilon"),
            ({"policy": {"model": {"bogus": 1}}}, "policy.model.bogus"),
            ({"policy": {"model": {"tolerance": float("nan")}}},
             "policy.model.tolerance"),
            ({"durability": {"snapshot_every_answers": 0}},
             "durability.snapshot_every_answers"),
            ({"durability": {"durable_dir": ""}}, "durability.durable_dir"),
            ({"simulation": {"target_answers_per_task": 0.5}},
             "simulation.target_answers_per_task"),
            ({"simulation": {"initial_answers_per_task": 0}},
             "simulation.initial_answers_per_task"),
            ({"unknown_section": {}}, "spec.unknown_section"),
            ({"serving": {"shard_worker": 2}}, "serving.shard_worker"),
            # Only an absent or null section means its defaults.
            *[({section: value}, section)
              for section in SECTIONS for value in (False, [], 0, "")],
        ],
    )
    def test_path_qualified_errors(self, payload, path):
        with pytest.raises(SpecValidationError) as excinfo:
            SessionSpec.from_dict({"version": 1, **payload})
        assert excinfo.value.path == path
        assert str(excinfo.value).startswith(path)
        # An unknown field's message lists the section's live fields only
        # (``serving.bogus`` does not name 'refit_tol').
        section = path.rpartition(".")[0]
        for retired in RETIRED_FIELDS:
            if retired.rpartition(".")[0] == section:
                assert repr(retired.rpartition(".")[2]) not in str(excinfo.value)

    @pytest.mark.parametrize("path, value, dropped", RETIRED_CASES)
    def test_retired_fields(self, path, value, dropped):
        """A retired field whose value replays as written is dropped;
        any other value raises at its path."""
        *sections, key = path.split(".")
        payload = {key: value}
        for name in reversed(sections):
            payload = {name: payload}
        if not dropped:
            with pytest.raises(SpecValidationError) as excinfo:
                SessionSpec.from_dict({"version": 1, **payload})
            assert excinfo.value.path == path
            return
        spec = SessionSpec.from_dict({"version": 1, **payload})
        assert spec == SessionSpec()
        section = spec.to_dict()
        for name in sections:
            section = section[name]
        assert key not in section

    def test_every_retired_field_has_a_case(self):
        assert {path for path, _value, _dropped in RETIRED_CASES} == set(RETIRED_FIELDS)

    def test_spec_sections_mirror_the_constructors(self):
        """A retired knob cannot linger on one side only."""
        def parameters(cls):
            return set(inspect.signature(cls.__init__).parameters) - {"self"}

        policy_fields = {f.name for f in dataclasses.fields(PolicySpec)}
        assert policy_fields == parameters(TCrowdAssigner) - {"schema"}
        model_fields = {f.name for f in dataclasses.fields(ModelSpec)}
        assert model_fields == parameters(TCrowdModel)

    def test_errors_are_configuration_errors(self):
        with pytest.raises(ConfigurationError):
            ServingSpec(max_stale_answers=-1)

    def test_booleans_are_not_integers(self):
        with pytest.raises(SpecValidationError, match="serving.max_stale_answers"):
            ServingSpec(max_stale_answers=True)

    def test_shards_without_processes_accept_monte_carlo_gains(self):
        """The retired ``serving.processes`` / ``serving.shards`` are
        dropped, so the spec serves the plain assigner in-process."""
        spec = SessionSpec.from_dict(
            {"version": 1, "serving": {"shards": 2, "processes": 2}}
        )
        assert not spec.serving.async_refit
        assert spec.serving == ServingSpec()
        assert "processes" not in spec.to_dict()["serving"]
        assert "shards" not in spec.to_dict()["serving"]

    def test_max_stale_semantics_are_unified(self):
        """One default for every entry point: 0 = blocking (bit-exact)."""
        assert ServingSpec().max_stale_answers == 0
        assert SessionSpec().serving.max_stale_answers == 0
        assert ServingSpec(max_stale_answers=None).max_stale_answers is None
        assert "max_stale=unbounded" in ServingSpec(
            async_refit=True, max_stale_answers=None
        ).describe()


# -- builder -------------------------------------------------------------------


class TestBuilder:
    def test_issue_example_chain(self, tmp_path):
        spec = (
            SessionSpec.builder()
            .async_refit(max_stale=64)
            .durable(tmp_path)
            .build()
        )
        assert spec.serving == ServingSpec(async_refit=True, max_stale_answers=64)
        assert spec.durability.durable_dir == str(tmp_path)
        assert spec.describe() == "async refit (max_stale=64) [durable]"

    def test_empty_builder_is_default_spec(self):
        assert SessionSpec.builder().build() == SessionSpec()

    def test_builder_validates_at_build(self):
        builder = SessionSpec.builder().serving(max_stale_answers=-1)
        with pytest.raises(SpecValidationError, match="serving.max_stale_answers"):
            builder.build()

    def test_with_durable_dir(self, tmp_path):
        spec = SessionSpec().with_durable_dir(tmp_path)
        assert spec.durability.durable_dir == str(tmp_path)
        assert spec.with_durable_dir(None).durability.durable_dir is None

    def test_builder_durability_and_serving_sections(self, tmp_path):
        spec = (
            SessionSpec.builder()
            .durable(tmp_path, snapshot_every_answers=25, wal_fsync=True)
            .serving(max_stale_answers=3, audit=False)
            .serving(max_stale_answers=4)
            .build()
        )
        assert spec.durability == DurabilitySpec(
            durable_dir=str(tmp_path), snapshot_every_answers=25, wal_fsync=True
        )
        # later builder calls win
        assert spec.serving == ServingSpec(max_stale_answers=4, audit=False)

    def test_split_envelope_rejects_non_objects(self):
        from repro.config import split_envelope

        with pytest.raises(SpecValidationError, match="JSON object"):
            split_envelope(["not", "a", "dict"])
        envelope, payload = split_envelope(
            {"version": 1, "schema": {"a": 1}, "durable": True}
        )
        assert envelope == {"schema": {"a": 1}, "durable": True}
        assert payload == {"version": 1}


# -- factory -------------------------------------------------------------------


class TestFactory:
    def test_build_model_and_assigner_defaults(self, mixed_schema):
        spec = SessionSpec()
        model = build_model(spec.policy.model)
        assert model.max_iterations == 50
        assert model.warm_iterations == 2
        assigner = build_assigner(mixed_schema, spec)
        assert assigner.refit_every == 1
        assert assigner.model.warm_iterations == 2

    def test_build_policy_modes(self, mixed_schema):
        fast = {"max_iterations": 3, "m_step_iterations": 6}
        plain = build_policy(mixed_schema, SessionSpec.builder().model(**fast).build())
        assert type(plain).__name__ == "TCrowdAssigner"
        policy = build_policy(
            mixed_schema, SessionSpec.builder().model(**fast).async_refit().build()
        )
        assert type(policy).__name__ == "AsyncRefitPolicy"
        assert policy.name.endswith("[async refit]")

    def test_wrap_policy_requires_tcrowd_assigner(self, mixed_schema):
        from repro.baselines.assignment_simple import RandomAssigner

        with pytest.raises(ConfigurationError, match="TCrowdAssigner"):
            wrap_policy(
                RandomAssigner(mixed_schema, seed=0),
                ServingSpec(async_refit=True),
            )

    def test_wrap_policy_passthrough_for_default_serving(self, mixed_schema):
        spec = SessionSpec()
        assigner = build_assigner(mixed_schema, spec)
        assert wrap_policy(assigner, spec.serving) is assigner


# -- the validate CLI ----------------------------------------------------------


class TestValidateCLI:
    def test_validates_the_committed_examples(self, capsys):
        import glob
        import pathlib

        examples = sorted(
            glob.glob(str(pathlib.Path(__file__).parent.parent / "examples" / "*.json"))
        )
        assert examples, "examples/*.json must exist (the lint job checks them)"
        assert validate_main(examples) == 0
        out = capsys.readouterr().out
        assert out.count("OK") == len(examples)

    def test_reports_the_validation_path(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps({"version": 1, "serving": {"max_stale_answers": -1}}),
            encoding="utf-8",
        )
        assert validate_main([str(bad)]) == 1
        err = capsys.readouterr().err
        assert "serving.max_stale_answers" in err

    def test_reports_non_json_files(self, tmp_path, capsys):
        broken = tmp_path / "broken.json"
        broken.write_text("{nope", encoding="utf-8")
        assert validate_main([str(broken)]) == 1
        assert "not valid JSON" in capsys.readouterr().err

    def test_accepts_service_envelopes(self, tmp_path):
        body = tmp_path / "envelope.json"
        body.write_text(
            json.dumps(
                {
                    "version": 1,
                    "dataset": {"name": "celebrity", "num_rows": 8},
                    "durable": True,
                    "serving": {"max_stale_answers": 2},
                }
            ),
            encoding="utf-8",
        )
        assert validate_main([str(body)]) == 0

    def test_rejects_malformed_envelopes(self, tmp_path, capsys):
        body = tmp_path / "envelope.json"
        body.write_text(
            json.dumps({"version": 1, "durable": "yes"}), encoding="utf-8"
        )
        assert validate_main([str(body)]) == 1
        assert "durable" in capsys.readouterr().err

    @pytest.mark.parametrize("session_id", [5, "", "a/b", ".", "..", "../x", "x y"])
    def test_rejects_session_ids_the_api_cannot_address(self, tmp_path, session_id):
        body = tmp_path / "envelope.json"
        body.write_text(
            json.dumps({"version": 1, "session_id": session_id}), encoding="utf-8"
        )
        with pytest.raises(SpecValidationError) as info:
            validate_file(str(body))
        assert info.value.path == "session_id"

    @pytest.mark.parametrize("session_id", ["bench", "ok-1", "a.b_c", None])
    def test_accepts_addressable_or_null_session_ids(self, tmp_path, session_id):
        body = tmp_path / "envelope.json"
        body.write_text(
            json.dumps({"version": 1, "session_id": session_id}), encoding="utf-8"
        )
        assert validate_file(str(body)) == SessionSpec()
