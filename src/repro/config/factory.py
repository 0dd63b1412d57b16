"""Build live policy objects from a :class:`~repro.config.SessionSpec`.

This is the **single** wrapper-selection point of the codebase: the
platform simulator, the service registry (through :func:`build_policy`)
and the benchmarks all call :func:`wrap_policy`, which has two outcomes:

========================  =============================================
``serving`` section       policy served
========================  =============================================
defaults                  the plain incremental assigner, unwrapped
``async_refit``           :class:`~repro.engine.AsyncRefitPolicy`
========================  =============================================
"""

from __future__ import annotations

from repro.config.spec import ModelSpec, ServingSpec, SessionSpec
from repro.core.assignment import AssignmentPolicy, TCrowdAssigner
from repro.core.inference import TCrowdModel
from repro.core.schema import TableSchema
from repro.utils.exceptions import ConfigurationError


def build_model(spec: ModelSpec) -> TCrowdModel:
    """The :class:`TCrowdModel` a :class:`ModelSpec` describes."""
    return TCrowdModel(**spec.to_kwargs())


def build_assigner(schema: TableSchema, spec: SessionSpec) -> TCrowdAssigner:
    """The bare :class:`TCrowdAssigner` of a spec (no serving wrapper).

    ``policy.strategy`` is built into a live
    :class:`~repro.strategies.AssignmentStrategy` here too (``None`` for
    the default ``"paper"``), so every caller of this factory — the
    platform simulator, the HTTP service, the benchmarks — serves the
    spec's strategy without further wiring.
    """
    from repro.strategies import build_strategy

    return TCrowdAssigner(
        schema,
        model=build_model(spec.policy.model),
        strategy=build_strategy(spec.policy.strategy),
        **spec.policy.to_kwargs(),
    )


def wrap_policy(policy: AssignmentPolicy, serving: ServingSpec) -> AssignmentPolicy:
    """Wrap ``policy`` in the serving mode a :class:`ServingSpec` picks.

    Returns ``policy`` itself for the default (synchronous) spec.

    Parameters
    ----------
    policy:
        The base policy.  The async wrapper requires a
        :class:`TCrowdAssigner` (it reuses its model, refit cadence and
        gain configuration).
    serving:
        The serving section of a spec.
    """
    if not serving.async_refit:
        return policy
    if not isinstance(policy, TCrowdAssigner):
        raise ConfigurationError(
            "serving.async_refit requires a "
            f"TCrowdAssigner policy, got {type(policy).__name__}"
        )
    from repro.engine import AsyncRefitPolicy

    return AsyncRefitPolicy(policy, max_stale_answers=serving.max_stale_answers)


def build_policy(
    schema: TableSchema,
    spec: SessionSpec,
    audit_format=None,
) -> AssignmentPolicy:
    """Assigner + serving wrapper, straight from a spec.

    With ``serving.audit`` (the default) a
    :class:`~repro.engine.provenance.DecisionRecorder` is attached to the
    **outermost** policy — one audit record per served select, regardless
    of how many inner policies the wrapper consults.  The recorder is
    bound to ``policy.strategy.name``, pinning the strategy under the
    decision-record hash chain (a non-default strategy derives the chain
    genesis; ``"paper"`` keeps the historic all-zeros genesis), and chains
    at ``audit_format`` — the format a recovered durable session's
    manifest pins; ``None`` is the current
    :data:`~repro.engine.provenance.AUDIT_FORMAT`.
    """
    policy = wrap_policy(build_assigner(schema, spec), spec.serving)
    if spec.serving.audit:
        from repro.engine.provenance import AUDIT_FORMAT, DecisionRecorder

        policy.set_recorder(DecisionRecorder(
            strategy=spec.policy.strategy.name,
            audit_format=AUDIT_FORMAT if audit_format is None else audit_format,
        ))
    return policy


def build_durable_session(
    schema: TableSchema,
    policy: AssignmentPolicy,
    spec: SessionSpec,
    directory=None,
    fresh: bool = False,
):
    """A :class:`~repro.service.wal.DurableSession` per the durability spec.

    ``directory`` overrides ``spec.durability.durable_dir`` (the service
    resolves per-session directories under its ``--durable-root``); when
    both are ``None`` the session runs in memory through the same code
    path.
    """
    from repro.service.wal import DurableSession

    if directory is None:
        directory = spec.durability.durable_dir
    return DurableSession(
        schema,
        policy,
        directory=directory,
        snapshot_every=spec.durability.snapshot_every_answers,
        fsync=spec.durability.wal_fsync,
        fresh=fresh,
        backend=spec.durability.backend,
        rotate_every_records=spec.durability.rotate_every_records,
        keep_snapshots=spec.durability.keep_snapshots,
    )
