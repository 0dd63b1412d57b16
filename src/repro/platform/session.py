"""End-to-end crowdsourcing session (the simulated Section 6.3 protocol).

A :class:`CrowdsourcingSession` wires together a dataset (with its answer
oracle), an assignment policy, a truth-inference method used for evaluation,
a budget and a worker arrival process, and produces a :class:`SessionTrace`
of effectiveness-versus-budget records — the series plotted in Figures 2
and 5 of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.config import SessionSpec, SimulationSpec
from repro.config.factory import build_assigner, build_durable_session, build_model, wrap_policy
from repro.core.answers import AnswerSet
from repro.core.assignment import AssignmentPolicy
from repro.datasets.base import CrowdDataset
from repro.metrics import error_rate, mnad
from repro.platform.arrival import WorkerArrivalProcess
from repro.platform.budget import Budget
from repro.platform.scenario import build_scenario
from repro.utils.exceptions import AssignmentError, ConfigurationError
from repro.utils.rng import as_generator

#: Sentinel distinguishing "keyword not passed" from an explicit value, so
#: only the simulation aliases a caller actually passed override defaults.
_UNSET = object()


@dataclass(frozen=True)
class SessionRecord:
    """Snapshot of effectiveness after a given amount of budget was spent."""

    answers_collected: int
    answers_per_task: float
    error_rate: Optional[float]
    mnad: Optional[float]
    spent_money: float


@dataclass
class SessionTrace:
    """Sequence of :class:`SessionRecord` produced by one session run."""

    policy_name: str
    inference_name: str
    dataset_name: str
    records: List[SessionRecord] = field(default_factory=list)

    def series(self, metric: str) -> List[tuple]:
        """Return ``(answers_per_task, value)`` pairs for ``metric``."""
        return [
            (record.answers_per_task, getattr(record, metric))
            for record in self.records
            if getattr(record, metric) is not None
        ]

    @property
    def final(self) -> SessionRecord:
        """The last recorded snapshot."""
        if not self.records:
            raise ConfigurationError("The session produced no records")
        return self.records[-1]

    def answers_to_reach(self, metric: str, target: float) -> Optional[float]:
        """Smallest answers-per-task at which ``metric`` dropped to ``target``.

        Returns ``None`` if the target was never reached — the convergence
        statistic the paper quotes ("converges ... before the average number
        of answers per task is 3").
        """
        for record in self.records:
            value = getattr(record, metric)
            if value is not None and value <= target:
                return record.answers_per_task
        return None


class CrowdsourcingSession:
    """Simulate an end-to-end crowdsourcing run of one assignment policy.

    The canonical way to configure a session is a
    :class:`~repro.config.SessionSpec` — either through
    :meth:`from_spec` (which also builds the policy and evaluation
    inference from the spec) or by passing ``spec=`` alongside an
    explicit policy.  The serving mode (``spec.serving``: plain / async
    refit), the durability section and the simulation
    budget are all read from the spec; the wrapper-selection logic is the
    shared factory in :mod:`repro.config.factory`, the same one the HTTP
    service uses.

    Parameters
    ----------
    dataset:
        A simulated dataset carrying an :class:`AnswerOracle` and a worker
        pool (all loaders in :mod:`repro.datasets` provide both).
    policy:
        The assignment policy under test (the *base* policy — serving
        wrappers are applied from ``spec.serving``).
    inference:
        Object with ``fit(schema, answers)`` used to evaluate effectiveness
        at the checkpoints (each system is evaluated with its own inference,
        as in the paper).
    spec:
        The session's :class:`~repro.config.SessionSpec`.  Mutually
        exclusive with the simulation aliases below.
    target_answers_per_task / initial_answers_per_task / batch_size /
    eval_every_answers_per_task / seed / max_steps:
        The simulation budget (see
        :class:`~repro.config.SimulationSpec` for the field semantics).
        Convenience aliases for a spec with only a simulation section.
        ``seed`` may be anything :func:`repro.utils.rng.as_generator`
        accepts; the spec records it only when it is a plain non-negative
        integer.
    """

    def __init__(
        self,
        dataset: CrowdDataset,
        policy: AssignmentPolicy,
        inference,
        target_answers_per_task=_UNSET,
        initial_answers_per_task=_UNSET,
        batch_size=_UNSET,
        eval_every_answers_per_task=_UNSET,
        seed=_UNSET,
        max_steps=_UNSET,
        spec: Optional[SessionSpec] = None,
    ) -> None:
        if dataset.oracle is None or dataset.worker_pool is None:
            raise ConfigurationError(
                "The dataset must carry an AnswerOracle and a WorkerPool to "
                "simulate a live session"
            )
        aliases = {
            name: value
            for name, value in (
                ("target_answers_per_task", target_answers_per_task),
                ("initial_answers_per_task", initial_answers_per_task),
                ("batch_size", batch_size),
                ("eval_every_answers_per_task", eval_every_answers_per_task),
                ("seed", seed),
                ("max_steps", max_steps),
            )
            if value is not _UNSET
        }
        if spec is not None and aliases:
            raise ConfigurationError(
                "Pass either spec= or the simulation keyword arguments, not "
                f"both (got spec and {sorted(aliases)})"
            )
        if spec is None:
            recorded = aliases.get("seed")
            if (
                not isinstance(recorded, int)
                or isinstance(recorded, bool)
                or recorded < 0
            ):
                aliases.pop("seed", None)
            spec = SessionSpec(simulation=SimulationSpec(**aliases))
        self.spec = spec
        self._raw_seed = seed if seed is not _UNSET else spec.simulation.seed
        self.dataset = dataset
        self.policy = wrap_policy(policy, spec.serving)
        self.inference = inference
        simulation = spec.simulation
        self.target_answers_per_task = simulation.target_answers_per_task
        self.initial_answers_per_task = simulation.initial_answers_per_task
        self.batch_size = simulation.batch_size or dataset.schema.num_columns
        self.eval_every = simulation.eval_every_answers_per_task
        self.max_steps = simulation.max_steps
        self.durable = None
        self._rng = as_generator(self._raw_seed)
        # Scenario perturbations (spam / drift / churn) derive from
        # hash-based sub-seeds, never from self._rng — with every knob at
        # its default this serves the dataset's own pool and oracle and
        # the arrival-seed draw below stays the only pre-loop consumption,
        # keeping seeded traces byte-for-byte unchanged.
        scenario = build_scenario(dataset, simulation, self._raw_seed)
        self.worker_pool = scenario.pool
        self.oracle = scenario.oracle
        self.scenario = scenario
        self.arrival = WorkerArrivalProcess(
            self.worker_pool,
            seed=self._rng.integers(0, 2**31 - 1),
            churn_rate=simulation.worker_churn_rate,
        )

    @classmethod
    def from_spec(
        cls,
        dataset: CrowdDataset,
        spec: SessionSpec,
        inference=None,
        policy: Optional[AssignmentPolicy] = None,
    ) -> "CrowdsourcingSession":
        """Build a session entirely from a :class:`~repro.config.SessionSpec`.

        ``policy`` defaults to the :class:`~repro.core.assignment.TCrowdAssigner`
        the spec's policy section describes (serving wrappers are applied
        either way); ``inference`` defaults to a
        :class:`~repro.core.inference.TCrowdModel` built from
        ``spec.policy.model``.  This is the exactly-one-way entry point —
        the same spec document drives the benchmarks and the HTTP service.
        """
        if policy is None:
            policy = build_assigner(dataset.schema, spec)
        if inference is None:
            inference = build_model(spec.policy.model)
        return cls(dataset, policy, inference, spec=spec)

    # -- helpers -----------------------------------------------------------------

    def _seed_answers(self) -> None:
        """Collect the initial answers (Algorithm 2, line 1): one HIT per row."""
        schema = self.dataset.schema
        pool = self.worker_pool
        worker_ids = pool.worker_ids()
        activities = pool.activities()
        for row in range(schema.num_rows):
            chosen = self._rng.choice(
                len(worker_ids),
                size=self.initial_answers_per_task,
                replace=False,
                p=activities,
            )
            for index in chosen:
                worker = worker_ids[int(index)]
                items = [
                    (row, col, self.oracle.answer(worker, row, col, self._rng))
                    for col in range(schema.num_columns)
                ]
                self.durable.append_answers(worker, items, observe=False)

    def _evaluate(self, answers: AnswerSet, budget: Budget, trace: SessionTrace) -> None:
        schema = self.dataset.schema
        result = self.inference.fit(schema, answers)
        err = (
            error_rate(result, self.dataset)
            if schema.categorical_indices
            else None
        )
        distance = (
            mnad(result, self.dataset) if schema.continuous_indices else None
        )
        trace.records.append(
            SessionRecord(
                answers_collected=len(answers),
                answers_per_task=answers.mean_answers_per_cell(),
                error_rate=err,
                mnad=distance,
                spent_money=budget.spent_money,
            )
        )

    # -- main loop ----------------------------------------------------------------

    def run(self) -> SessionTrace:
        """Run the session until the budget is exhausted; return the trace.

        Every event goes through a
        :class:`~repro.service.wal.DurableSession`, which logs it when the
        spec names a ``durable_dir`` and runs in memory otherwise.
        """
        # fresh=True: resuming over an old log would corrupt the
        # experiment, unlike the service's recover-on-attach semantics.
        self.durable = build_durable_session(
            self.dataset.schema, self.policy, self.spec, fresh=True
        )
        try:
            return self._run()
        finally:
            self.durable.close()

    def _run(self) -> SessionTrace:
        schema = self.dataset.schema
        answers = self.durable.answers
        self._seed_answers()
        extra_answers = int(
            round(
                (self.target_answers_per_task - self.initial_answers_per_task)
                * schema.num_cells
            )
        )
        budget = Budget(total_answers=max(extra_answers, 1))
        trace = SessionTrace(
            policy_name=self.policy.name,
            inference_name=getattr(self.inference, "name", type(self.inference).__name__),
            dataset_name=self.dataset.name,
        )
        self._evaluate(answers, budget, trace)
        next_checkpoint = answers.mean_answers_per_cell() + self.eval_every

        steps = 0
        consecutive_failures = 0
        failure_limit = 10 * len(self.worker_pool)
        while not budget.exhausted:
            # Once every cell reached its answer cap, stop immediately instead
            # of drawing workers until the consecutive-failure limit trips
            # (the recorded trace is identical either way — no further
            # answer could be collected).
            if not self.policy.has_open_cells(answers):
                break
            if self.max_steps is not None and steps >= self.max_steps:
                break
            steps += 1
            worker = self.arrival.next_worker()
            batch = min(self.batch_size, budget.remaining_answers)
            try:
                assignment = self.durable.select(worker, k=batch)
            except AssignmentError:
                # This worker has no candidate cells left; try another one,
                # but give up if no worker can be assigned anything anymore.
                consecutive_failures += 1
                if consecutive_failures >= failure_limit:
                    break
                continue
            consecutive_failures = 0
            items = [
                (row, col, self.oracle.answer(worker, row, col, self._rng))
                for row, col in assignment.cells
            ]
            self.durable.append_answers(worker, items)
            budget.charge(len(assignment.cells))
            if self.scenario.drift is not None:
                self.scenario.drift.advance()
            if answers.mean_answers_per_cell() >= next_checkpoint or budget.exhausted:
                self._evaluate(answers, budget, trace)
                next_checkpoint += self.eval_every
        return trace
