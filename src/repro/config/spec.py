"""The versioned ``SessionSpec``: one serializable description of a session.

The platform simulator, the benchmarks and ``POST /sessions`` all configure
a session — its policy, serving mode, durability and simulation budget —
through one typed, immutable, **versioned** document:

``SessionSpec``
    ``version`` (always ``1``) plus four nested sections —
    :class:`PolicySpec` (with its :class:`ModelSpec`), :class:`ServingSpec`,
    :class:`DurabilitySpec` and :class:`SimulationSpec`.

The spec is the unit that crosses boundaries: it round-trips through
``to_dict()`` / ``from_dict()`` **exactly** (every float survives JSON with
the same ``repr``-based discipline as the WAL codec in
:mod:`repro.service.wal`), it is pinned to ``session.json`` inside durable
directories, it is the body of ``POST /sessions`` and the response of
``GET /sessions/{id}/config``.

Every section is a frozen dataclass over one private base, ``_Section``.
A field declares its check and limits next to its default
(``max_iterations: int = _field(50, _check_int, minimum=1)``); a field
whose default is another section holds that section.  The base runs every
field's check at its dotted path, encodes a section with
``dataclasses.asdict`` and parses one (nested sections included), so each
rule is stated once.

Validation is strict and **path-qualified**: every violation raises a
:class:`SpecValidationError` (a :class:`~repro.utils.exceptions.ConfigurationError`)
whose message starts with the dotted field path, e.g.
``serving.max_stale_answers must be >= 0 or null, got -1`` — the HTTP API
surfaces the path in its 400 responses.  Unknown fields are rejected, never
ignored, except the :data:`RETIRED_FIELDS` older manifests carry, which are
accepted and dropped when their value replays as written.

The module itself imports only the standard library and
:mod:`repro.utils.exceptions`; importing it, like running
``python -m repro.config.validate``, still needs the package's runtime
dependencies, because ``repro/__init__.py`` imports the core.  The factory
that turns a spec into live policy objects lives in
:mod:`repro.config.factory`.
"""

from __future__ import annotations

import dataclasses
import functools
import os
import re
from dataclasses import dataclass, field
from typing import ClassVar, Dict, Optional, Tuple

from repro.utils.exceptions import ConfigurationError

#: The one schema version this package reads and writes.  Bump only with an
#: upgrade path from every older version.
SPEC_VERSION = 1

#: Service-envelope keys that ride *next to* a spec in a ``POST /sessions``
#: body: where the rows live (``schema`` inline or a named ``dataset``),
#: the caller-chosen ``session_id``, and the ``durable`` flag that asks the
#: server to place the session under its ``--durable-root``.
ENVELOPE_KEYS = ("schema", "dataset", "session_id", "durable")

#: A ``session_id`` is one URL path segment (the service's route is built
#: from this) and one directory name under ``--durable-root``, not ``..``.
SESSION_ID_PATTERN = r"[A-Za-z0-9_.-]+"


class SpecValidationError(ConfigurationError):
    """A spec field failed validation; ``path`` is the dotted field path."""

    def __init__(self, path: str, message: str) -> None:
        super().__init__(f"{path} {message}")
        self.path = path


# -- field checkers -----------------------------------------------------------


def _check_bool(path: str, value) -> bool:
    if not isinstance(value, bool):
        raise SpecValidationError(path, f"must be a boolean, got {value!r}")
    return value


def _check_int(
    path: str,
    value,
    minimum: Optional[int] = None,
    optional: bool = False,
):
    if value is None:
        if optional:
            return None
        raise SpecValidationError(path, "must be an integer, got None")
    if isinstance(value, bool) or not isinstance(value, int):
        raise SpecValidationError(path, f"must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        suffix = " or null" if optional else ""
        raise SpecValidationError(
            path, f"must be >= {minimum}{suffix}, got {value}"
        )
    return int(value)


def _check_float(
    path: str,
    value,
    minimum: Optional[float] = None,
    exclusive: bool = False,
    maximum: Optional[float] = None,
):
    if value is None:
        raise SpecValidationError(path, "must be a number, got None")
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SpecValidationError(path, f"must be a number, got {value!r}")
    value = float(value)
    if value != value:  # NaN never validates
        raise SpecValidationError(path, "must be a finite number, got nan")
    if value in (float("inf"), float("-inf")):
        raise SpecValidationError(path, f"must be a finite number, got {value}")
    if minimum is not None:
        if exclusive and value <= minimum:
            raise SpecValidationError(path, f"must be > {minimum}, got {value}")
        if not exclusive and value < minimum:
            raise SpecValidationError(path, f"must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise SpecValidationError(path, f"must be <= {maximum}, got {value}")
    return value


def _check_str(path: str, value, optional: bool = False, choices=None):
    if value is None:
        if optional:
            return None
        raise SpecValidationError(path, "must be a string, got None")
    if isinstance(value, os.PathLike):
        value = os.fspath(value)
    if not isinstance(value, str):
        raise SpecValidationError(path, f"must be a string, got {value!r}")
    if not value:
        raise SpecValidationError(path, "must be a non-empty string")
    if choices is not None and value not in choices:
        raise SpecValidationError(
            path, f"must be one of {list(choices)}, got {value!r}"
        )
    return value


def _check_version(path: str, value):
    # As in _check_int: ``true`` and ``1.0`` compare equal to 1 but are no
    # integer, and to_dict would write them back as given.
    if isinstance(value, bool) or not isinstance(value, int) or value != SPEC_VERSION:
        raise SpecValidationError(path, f"must be {SPEC_VERSION}, got {value!r}")
    return value


def _only(*replayable):
    """A retired field that replays as written only at ``replayable``."""

    def check(path: str, value) -> None:
        if not any(type(value) is type(v) and value == v for v in replayable):
            expected = " or ".join(map(repr, replayable))
            raise SpecValidationError(
                path, f"is retired and only accepts {expected}, got {value!r}"
            )

    return check


def _any_seed(path: str, value) -> None:
    _check_int(path, value, 0, optional=True)


def _any_value(path: str, value) -> None:
    """A retired field that replays as written at every value."""


#: Fields removed from the spec without a version bump, by dotted path.
#: Manifests written while they existed carry them (``to_dict`` emitted
#: every field), so ``from_dict`` drops a retired key whose value replays
#: as written and raises at its path for any other value.
#:
#: * ``vectorized: false`` and ``continuous_samples > 0`` scored cells
#:   through the scalar ``gain``, whose bits differ from ``gains_batch``;
#:   ``incremental: false`` (a full candidate rescan) chose the same cells.
#: * The seeds fed only the Monte-Carlo gain.
#: * L-BFGS-B is the only M-step left.
#: * The serving fields are accepted at any value.  The first four never
#:   changed a decision (serving is in-process and the async policy's
#:   scoring cache is always on).  ``refit_tol`` stopped warm refits early,
#:   so recovery refuses a manifest whose ``refit_tol`` is not null
#:   (``repro.service.registry``).
RETIRED_FIELDS = {
    "policy.vectorized": _only(True),
    "policy.incremental": _only(True, False),
    "policy.continuous_samples": _only(0),
    "policy.seed": _any_seed,
    "policy.model.seed": _any_seed,
    "policy.model.m_step": _only("lbfgs"),
    "serving.shard_workers": _any_value,
    "serving.scoring_cache": _any_value,
    "serving.processes": _any_value,
    "serving.shards": _any_value,
    "serving.refit_tol": _any_value,
}


# -- the section base ---------------------------------------------------------


def _field(default, check, **limits):
    """A field holding ``default`` until set; every value it takes must
    pass ``check(path, value, **limits)``, which returns the stored value."""
    return field(default=default, metadata={"check": functools.partial(check, **limits)})


def _section_of(spec_field) -> Optional[type]:
    """The section class a field holds (its default factory), else ``None``."""
    factory = spec_field.default_factory
    if isinstance(factory, type) and issubclass(factory, _Section):
        return factory
    return None


class _Section:
    """Validates, encodes and parses one spec section.

    ``_SECTION`` is the section's dotted path (empty for the spec itself,
    whose fields sit at the top level).
    """

    _SECTION: ClassVar[str] = ""

    @classmethod
    def _path(cls, name: str) -> str:
        return f"{cls._SECTION}.{name}" if cls._SECTION else name

    def __post_init__(self) -> None:
        for spec_field in dataclasses.fields(self):
            path = self._path(spec_field.name)
            value = getattr(self, spec_field.name)
            section = _section_of(spec_field)
            if section is None:
                object.__setattr__(
                    self, spec_field.name, spec_field.metadata["check"](path, value)
                )
            elif not isinstance(value, section):
                raise SpecValidationError(
                    path, f"must be a {spec_field.name} object, got {value!r}"
                )
        self._check_across_fields()

    def _check_across_fields(self) -> None:
        """Rules that span two fields; none unless a section adds one."""

    def to_dict(self) -> dict:
        """Canonical JSON-safe form: every field explicit, floats exact."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload):
        """Parse (strictly) the dict produced by :meth:`to_dict`.

        Omitted fields keep their defaults.  A :data:`RETIRED_FIELDS` key is
        dropped when its value replays as written; any other unknown key
        raises, naming the live fields.  Nested sections are parsed after
        every key of this one is known.
        """
        where = cls._SECTION or "spec"
        if not isinstance(payload, dict):
            raise SpecValidationError(
                where, f"must be a JSON object, got {payload!r}"
            )
        fields = dataclasses.fields(cls)
        known = [spec_field.name for spec_field in fields]
        live = {}
        for key, value in payload.items():
            path = f"{where}.{key}"
            if key in known:
                live[key] = value
            elif path in RETIRED_FIELDS:
                RETIRED_FIELDS[path](path, value)
            else:
                raise SpecValidationError(
                    path, f"is not a recognised field (expected one of {sorted(known)})"
                )
        for spec_field in fields:
            section = _section_of(spec_field)
            if section is not None and spec_field.name in live:
                live[spec_field.name] = section.from_dict(live[spec_field.name])
        return cls(**live)


# -- nested sections ----------------------------------------------------------


#: Assignment-strategy names the spec accepts (must match the registry in
#: :mod:`repro.strategies`; listed here so the spec module stays importable
#: without the strategies package).
STRATEGY_NAMES = (
    "paper",
    "random",
    "round_robin",
    "uncertainty",
    "budget_voi",
    "epsilon_greedy",
)


@dataclass(frozen=True)
class StrategySpec(_Section):
    """Which assignment strategy the policy serves (:mod:`repro.strategies`).

    ``name`` selects the strategy; the remaining fields parameterise the
    strategies that take options and are ignored by the ones that do not
    (they still round-trip exactly, so two specs differing only in an
    unused knob compare unequal — the spec is a document, not behaviour):

    * ``epsilon`` / ``base`` — the explore probability and the exploited
      base strategy of ``epsilon_greedy`` (``base`` may be any strategy
      except ``epsilon_greedy`` itself);
    * ``confidence`` / ``min_answers`` — the posterior-confidence
      retirement threshold of ``budget_voi`` and the minimum answers a
      cell must collect before it may retire;
    * ``seed`` — the deterministic score stream of ``random`` and the
      explore draws of ``epsilon_greedy`` (hash-derived, never a stateful
      RNG, so every serving mode and every WAL replay scores identically).

    ``"paper"`` (the default) is byte-for-byte the gain-based selector of
    Sections 5.1/5.2 — specs that never mention a strategy behave exactly
    as they did before the strategy axis existed.
    """

    _SECTION: ClassVar[str] = "policy.strategy"

    name: str = _field("paper", _check_str, choices=STRATEGY_NAMES)
    epsilon: float = _field(0.1, _check_float, minimum=0.0, maximum=1.0)
    base: str = _field(
        "paper",
        _check_str,
        choices=tuple(name for name in STRATEGY_NAMES if name != "epsilon_greedy"),
    )
    confidence: float = _field(0.9, _check_float, minimum=0.0, exclusive=True, maximum=1.0)
    min_answers: int = _field(2, _check_int, minimum=0)
    seed: Optional[int] = _field(None, _check_int, minimum=0, optional=True)

    @classmethod
    def from_dict(cls, payload) -> "StrategySpec":
        if isinstance(payload, str):
            # Shorthand: "uncertainty" == {"name": "uncertainty"}.
            return cls(name=payload)
        return super().from_dict(payload)


@dataclass(frozen=True)
class ModelSpec(_Section):
    """EM truth-inference options (:class:`~repro.core.inference.TCrowdModel`).

    Field-for-field the ``TCrowdModel`` constructor, with identical
    defaults, so ``TCrowdModel(**spec.to_kwargs())`` is always valid.
    """

    _SECTION: ClassVar[str] = "policy.model"

    epsilon: float = _field(1.0, _check_float, minimum=0.0, exclusive=True)
    max_iterations: int = _field(50, _check_int, minimum=1)
    warm_iterations: int = _field(2, _check_int, minimum=1)
    tolerance: float = _field(1e-5, _check_float, minimum=0.0, exclusive=True)
    m_step_iterations: int = _field(30, _check_int, minimum=1)
    difficulty_regularization: float = _field(0.1, _check_float, minimum=0.0)
    phi_regularization: float = _field(1e-3, _check_float, minimum=0.0)
    use_difficulty: bool = _field(True, _check_bool)
    standardize_continuous: bool = _field(True, _check_bool)

    to_kwargs = _Section.to_dict  # ``TCrowdModel(**spec.to_kwargs())``


@dataclass(frozen=True)
class PolicySpec(_Section):
    """Assignment-policy options (:class:`~repro.core.assignment.TCrowdAssigner`).

    Field-for-field the ``TCrowdAssigner`` constructor (minus the schema),
    with identical defaults.
    """

    _SECTION: ClassVar[str] = "policy"

    model: ModelSpec = field(default_factory=ModelSpec)
    strategy: StrategySpec = field(default_factory=StrategySpec)
    use_structure: bool = _field(True, _check_bool)
    refit_every: int = _field(1, _check_int, minimum=1)
    max_answers_per_cell: Optional[int] = _field(None, _check_int, minimum=1, optional=True)
    min_pairs: int = _field(5, _check_int, minimum=0)
    warm_start: bool = _field(True, _check_bool)

    def to_kwargs(self) -> dict:
        """``TCrowdAssigner`` keyword arguments (model/strategy excluded).

        The model and strategy fields are *specs*; the factory builds the
        live objects (``build_model`` / ``repro.strategies.build_strategy``)
        and passes them alongside these kwargs.
        """
        payload = self.to_dict()
        payload.pop("model")
        payload.pop("strategy")
        return payload


@dataclass(frozen=True)
class ServingSpec(_Section):
    """How the policy is served: bounded-staleness refits, audit.

    The serving table (see :mod:`repro.config.factory`): the default spec
    serves the bare assigner, ``async_refit`` the bounded-staleness wrapper
    (:class:`~repro.engine.AsyncRefitPolicy`).  The field keeps its name
    for the clients that post it and the durable manifests that store it;
    EM runs inline on the select path, not on a thread.

    ``max_stale_answers`` semantics (the **single** definition — the
    platform session and the benchmarks used to disagree on the default):

    * ``0`` (the default) — every select refits until the model has seen
      every collected answer, which replays the synchronous session bit
      for bit (the golden-trace tests pin this).
    * a positive bound — *bounded staleness*: selects score against the
      latest snapshot as long as it trails the collected answers by at
      most this many; a staler snapshot is refitted inline first.  Fewer
      refits per answer than ``0``, and still deterministic, so a durable
      session replays it exactly.
    * ``null`` — *unbounded*: once a first model exists, selects never
      refit; the served model advances only on a catch-up fit
      (``GET /estimates``).

    How long a warm-started refit runs is the model's
    ``policy.model.warm_iterations`` budget, in every serving mode.

    ``audit`` (default on) records every select into the session's
    decision-provenance ledger
    (:class:`repro.engine.provenance.DecisionRecorder`): lineage, model
    hash and chained reproducibility hash per decision, queryable over
    ``GET /sessions/{id}/decisions``.  ``false`` is the escape hatch for
    latency-critical deployments that would rather lose the audit trail
    than pay the (benchmarked, <10%) recording overhead.
    """

    _SECTION: ClassVar[str] = "serving"

    async_refit: bool = _field(False, _check_bool)
    max_stale_answers: Optional[int] = _field(0, _check_int, minimum=0, optional=True)
    audit: bool = _field(True, _check_bool)

    def describe(self) -> str:
        """Human-readable serving mode, e.g. ``async refit (max_stale=0)``."""
        if not self.async_refit:
            return "incremental"
        stale = (
            "unbounded"
            if self.max_stale_answers is None
            else self.max_stale_answers
        )
        return f"async refit (max_stale={stale})"


#: Durability backend names (must match ``repro.service.storage``; listed
#: here so the spec module stays importable without the service package).
DURABILITY_BACKENDS = ("jsonl", "sqlite")


@dataclass(frozen=True)
class DurabilitySpec(_Section):
    """Write-ahead logging, snapshot cadence and retention
    (:mod:`repro.service.wal` / :mod:`repro.service.storage`).

    ``durable_dir`` is where the WAL and snapshots live; ``None`` disables
    durability (the service can still resolve a directory for you when the
    envelope carries ``"durable": true`` and the server has a
    ``--durable-root``).  ``backend`` picks the storage layout (``jsonl``
    segments or one ``sqlite`` database).  ``wal_fsync`` forces every
    append — and snapshot — to disk: power-loss durability at a heavy
    per-event cost; the flush-only default survives process crashes.
    ``rotate_every_records`` seals a JSONL WAL segment after that many
    records (``None`` keeps the single-file layout; SQLite ignores it);
    ``keep_snapshots`` retains only the newest N snapshots and prunes WAL
    storage their oldest survivor fully covers (``None`` retains
    everything).
    """

    _SECTION: ClassVar[str] = "durability"

    durable_dir: Optional[str] = _field(None, _check_str, optional=True)
    snapshot_every_answers: int = _field(200, _check_int, minimum=1)
    wal_fsync: bool = _field(False, _check_bool)
    backend: str = _field("jsonl", _check_str, choices=DURABILITY_BACKENDS)
    rotate_every_records: Optional[int] = _field(None, _check_int, minimum=1, optional=True)
    keep_snapshots: Optional[int] = _field(None, _check_int, minimum=1, optional=True)


@dataclass(frozen=True)
class SimulationSpec(_Section):
    """Budget and cadence of a simulated session (the Section 6.3 protocol).

    Only the platform simulator and the benchmarks read this section; the
    live HTTP service ignores it (real crowds bring their own budget).

    The scenario knobs make the simulated crowd adversarial — each one is
    **off at its default** and, when off, consumes *zero* extra RNG draws,
    so every pre-existing seeded trace (the golden-trace fixture, the
    equivalence benchmarks) replays bit for bit:

    * ``worker_churn_rate`` — probability per arrival that the active
      worker subset is resampled (workers leave mid-session, others —
      including previously departed ones — arrive);
    * ``spam_fraction`` / ``spam_contamination`` — a seeded fraction of
      the pool has its contamination raised to ``spam_contamination``
      (adversarial workers answering at random);
    * ``difficulty_drift`` — deterministic multiplicative drift of the
      oracle's row difficulties (``exp(rate * steps)``, capped — the task
      mix gets harder as the session runs).

    All scenario randomness derives from ``seed`` through per-feature
    hash-derived sub-seeds, so a scenario run is exactly replayable.
    """

    _SECTION: ClassVar[str] = "simulation"

    target_answers_per_task: float = _field(5.0, _check_float, minimum=0.0, exclusive=True)
    initial_answers_per_task: int = _field(1, _check_int, minimum=1)
    batch_size: Optional[int] = _field(None, _check_int, minimum=1, optional=True)
    eval_every_answers_per_task: float = _field(0.5, _check_float, minimum=0.0, exclusive=True)
    seed: Optional[int] = _field(None, _check_int, minimum=0, optional=True)
    max_steps: Optional[int] = _field(None, _check_int, minimum=0, optional=True)
    worker_churn_rate: float = _field(0.0, _check_float, minimum=0.0, maximum=0.999)
    spam_fraction: float = _field(0.0, _check_float, minimum=0.0, maximum=1.0)
    spam_contamination: float = _field(0.9, _check_float, minimum=0.0, maximum=1.0)
    difficulty_drift: float = _field(0.0, _check_float, minimum=0.0)

    def _check_across_fields(self) -> None:
        if self.target_answers_per_task <= self.initial_answers_per_task:
            raise SpecValidationError(
                self._path("target_answers_per_task"),
                "must exceed simulation.initial_answers_per_task "
                f"({self.initial_answers_per_task}), got "
                f"{self.target_answers_per_task}",
            )


# -- the versioned spec -------------------------------------------------------


@dataclass(frozen=True)
class SessionSpec(_Section):
    """The canonical, versioned description of one serving session.

    Immutable; derive variants with :meth:`with_durable_dir` or
    ``dataclasses.replace``.  ``from_dict(to_dict(spec)) == spec`` holds
    exactly for every valid spec (property-tested), including through a
    JSON encode/decode — the discipline that lets the spec cross process
    boundaries.
    """

    version: int = _field(SPEC_VERSION, _check_version)
    policy: PolicySpec = field(default_factory=PolicySpec)
    serving: ServingSpec = field(default_factory=ServingSpec)
    durability: DurabilitySpec = field(default_factory=DurabilitySpec)
    simulation: SimulationSpec = field(default_factory=SimulationSpec)

    @classmethod
    def from_dict(cls, payload) -> "SessionSpec":
        """Parse (strictly) the dict produced by :meth:`to_dict`.

        Sections may be omitted or ``null`` (their defaults apply); unknown
        keys and invalid values raise :class:`SpecValidationError` with the
        dotted field path.  A missing ``version`` is reported before any
        unknown key: which keys are known depends on the version.
        """
        if isinstance(payload, dict):
            if "version" not in payload:
                raise SpecValidationError(
                    "version",
                    f"is required (this library reads version {SPEC_VERSION})",
                )
            # Only an absent key or null means defaults; any other value
            # that is not an object raises at the section's path.
            sections = [f.name for f in dataclasses.fields(cls) if _section_of(f)]
            payload = {
                key: value
                for key, value in payload.items()
                if value is not None or key not in sections
            }
        return super().from_dict(payload)

    # -- conveniences ---------------------------------------------------------

    @staticmethod
    def builder() -> "SessionSpecBuilder":
        """A fluent builder::

            SessionSpec.builder().async_refit(max_stale=64) \\
                       .durable(root).build()
        """
        return SessionSpecBuilder()

    def with_durable_dir(self, durable_dir) -> "SessionSpec":
        """This spec with ``durability.durable_dir`` replaced."""
        durability = dataclasses.replace(
            self.durability,
            durable_dir=None if durable_dir is None else os.fspath(durable_dir),
        )
        return dataclasses.replace(self, durability=durability)

    def describe(self) -> str:
        """One-line human summary (serving mode + durability)."""
        text = self.serving.describe()
        if self.durability.durable_dir is not None:
            text += " [durable]"
        return text


# -- fluent builder -----------------------------------------------------------


class SessionSpecBuilder:
    """Accumulates sections, then validates once in :meth:`build`."""

    def __init__(self) -> None:
        self._model: Dict[str, object] = {}
        self._policy: Dict[str, object] = {}
        self._serving: Dict[str, object] = {}
        self._durability: Dict[str, object] = {}
        self._simulation: Dict[str, object] = {}

    def model(self, **options) -> "SessionSpecBuilder":
        """Set :class:`ModelSpec` fields."""
        self._model.update(options)
        return self

    def policy(self, **options) -> "SessionSpecBuilder":
        """Set :class:`PolicySpec` fields (model fields via :meth:`model`)."""
        self._policy.update(options)
        return self

    def strategy(self, name: str, **options) -> "SessionSpecBuilder":
        """Select the assignment strategy (see :class:`StrategySpec`)::

            SessionSpec.builder().strategy("epsilon_greedy", epsilon=0.2)
        """
        self._policy["strategy"] = {"name": name, **options}
        return self

    def serving(self, **options) -> "SessionSpecBuilder":
        """Set :class:`ServingSpec` fields directly."""
        self._serving.update(options)
        return self

    def async_refit(self, max_stale: Optional[int] = 0) -> "SessionSpecBuilder":
        """Serve selects from bounded-stale snapshots (see :class:`ServingSpec`)."""
        self._serving["async_refit"] = True
        self._serving["max_stale_answers"] = max_stale
        return self

    def durable(self, durable_dir, **options) -> "SessionSpecBuilder":
        """Log every event to a write-ahead log under ``durable_dir``; set
        any other :class:`DurabilitySpec` fields by keyword."""
        self._durability["durable_dir"] = (
            None if durable_dir is None else os.fspath(durable_dir)
        )
        self._durability.update(options)
        return self

    def simulation(self, **options) -> "SessionSpecBuilder":
        """Set :class:`SimulationSpec` fields."""
        self._simulation.update(options)
        return self

    def build(self) -> SessionSpec:
        """Validate and freeze the accumulated sections into a spec."""
        policy = dict(self._policy)
        if self._model:
            policy["model"] = dict(self._model)
        payload: Dict[str, object] = {"version": SPEC_VERSION}
        if policy:
            payload["policy"] = policy
        if self._serving:
            payload["serving"] = dict(self._serving)
        if self._durability:
            payload["durability"] = dict(self._durability)
        if self._simulation:
            payload["simulation"] = dict(self._simulation)
        return SessionSpec.from_dict(payload)


# -- service-body helpers -----------------------------------------------------


def split_envelope(body: dict) -> Tuple[dict, dict]:
    """Split a v1 service body into ``(envelope, spec_payload)``.

    The envelope carries :data:`ENVELOPE_KEYS`, type-checked here for
    ``POST /sessions`` and ``python -m repro.config.validate`` alike (a
    ``null`` ``session_id`` is generated); everything else must be spec
    fields (validated by :meth:`SessionSpec.from_dict`).
    """
    if not isinstance(body, dict):
        raise SpecValidationError("spec", f"must be a JSON object, got {body!r}")
    envelope = {}
    payload = {}
    for key, value in body.items():
        if key in ENVELOPE_KEYS:
            envelope[key] = value
        else:
            payload[key] = value
    for key in ("schema", "dataset"):
        if key in envelope and not isinstance(envelope[key], dict):
            raise SpecValidationError(
                key, f"must be a JSON object, got {envelope[key]!r}"
            )
    session_id = _check_str("session_id", envelope.get("session_id"), optional=True)
    if session_id is not None and (
        session_id in (".", "..") or not re.fullmatch(SESSION_ID_PATTERN, session_id)
    ):
        raise SpecValidationError(
            "session_id", f"must match {SESSION_ID_PATTERN} and not be '.' or '..', "
            f"got {session_id!r}"
        )
    if "durable" in envelope:
        _check_bool("durable", envelope["durable"])
    return envelope, payload
