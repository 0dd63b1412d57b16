"""One versioned, serializable configuration API for the whole system.

:class:`SessionSpec` is the single way to describe a serving session —
policy + model options, serving mode (plain / async refit), durability,
and simulation budget — consumed by every entry point:

* ``CrowdsourcingSession.from_spec(dataset, spec)`` (the platform
  simulator);
* ``measure_engine_speedup(spec=...)`` and ``benchmarks/run_bench.py``;
* the HTTP service: ``POST /sessions`` takes a version-1 spec body, the
  canonical spec is pinned to durable ``session.json`` manifests and served
  back on ``GET /sessions/{id}/config``.

:mod:`repro.config.factory` turns specs into live policies (the shared
wrapper-selection table); ``python -m repro.config.validate`` checks spec
JSON files from the command line.
"""

from repro.config.spec import (
    ENVELOPE_KEYS,
    SPEC_VERSION,
    STRATEGY_NAMES,
    DurabilitySpec,
    ModelSpec,
    PolicySpec,
    ServingSpec,
    SessionSpec,
    SessionSpecBuilder,
    SimulationSpec,
    SpecValidationError,
    StrategySpec,
    split_envelope,
)

__all__ = [
    "ENVELOPE_KEYS",
    "SPEC_VERSION",
    "STRATEGY_NAMES",
    "DurabilitySpec",
    "ModelSpec",
    "PolicySpec",
    "ServingSpec",
    "SessionSpec",
    "SessionSpecBuilder",
    "SimulationSpec",
    "SpecValidationError",
    "StrategySpec",
    "split_envelope",
]
