"""The :class:`AssignmentStrategy` seam and its determinism toolkit.

A strategy decides *what scores candidate cells* — it plugs into
:meth:`repro.core.assignment.TCrowdAssigner._build_calculator`, the one
point every serving mode funnels scoring through (the plain select and the
async snapshot-scoring path both build their calculator there).
Everything *around* the scores — candidate filtering, stable top-K, refit
cadence, WAL replay, decision provenance — is shared machinery the
strategy never touches, which is what makes every strategy bit-identical
across both serving modes by construction.

The contract for the returned calculator mirrors the paper calculators
(:class:`~repro.core.information_gain.InformationGainCalculator`):

``gain(worker, row, col) -> float``
    Score one cell (:class:`StrategyCalculator`'s default ``gains_batch``
    loops over it).
``gains_batch(worker, cells) -> np.ndarray``
    Score many cells in one pass; every select ranks its candidates with
    this.

Determinism rules every strategy must obey (and the provided helpers
make easy):

* **No stateful RNG.**  A generator advanced per call would diverge the
  moment one serving mode scores in a different order than another, or a
  WAL recovery replays from a snapshot-pruned prefix.  Randomised
  strategies draw from :func:`hash_unit` — a pure function of
  ``(seed, context)`` — instead.
* **Scores are a pure function of ``(result, answers, worker, cell)``.**
  A recovered session must re-derive the same score for the same cell,
  or WAL replay no longer verifies the logged decisions.
* **Finite floats only.**  Scores are recorded in the audit ledger, whose
  canonical JSON refuses ``inf``/``nan``.  Use :data:`RETIRED_GAIN` as the
  "never pick this" value.
"""

from __future__ import annotations

import abc
import hashlib
from typing import Iterable, Sequence, Tuple

import numpy as np

from repro.core.answers import AnswerSet
from repro.core.inference import InferenceResult
from repro.core.information_gain import as_cell_array

Cell = Tuple[int, int]

#: Finite sentinel for cells a strategy has retired: small enough that any
#: live cell outranks it, finite so it survives the audit ledger's JSON,
#: which refuses ``-inf``.
RETIRED_GAIN = -1e18

_DOMAIN = b"repro.strategies"


def hash_unit(seed, *context) -> float:
    """Deterministic uniform draw in ``[0, 1)`` keyed on ``(seed, context)``.

    A BLAKE2b digest over the canonical byte string of the key, mapped to
    a float — the stateless substitute for a stateful RNG.  Identical
    keys give identical draws in every process, serving mode and replay;
    varying any key component (e.g. ``answers_total``) refreshes the
    stream as the session advances.
    """
    key = ":".join(
        "none" if part is None else str(part) for part in (seed, *context)
    )
    digest = hashlib.blake2b(
        key.encode("utf-8"), digest_size=8, person=_DOMAIN
    ).digest()
    return int.from_bytes(digest, "little") / 2.0 ** 64


class StrategyCalculator(abc.ABC):
    """Base class for strategy-built gain calculators.

    Provides the default ``gains_batch`` (a loop over :meth:`gain`);
    strategies with a vectorisable score override it.
    """

    @abc.abstractmethod
    def gain(self, worker: str, row: int, col: int) -> float:
        """Score one candidate cell for ``worker``."""

    def gains_batch(self, worker: str, cells: Iterable[Cell]) -> np.ndarray:
        """Scores for many candidate cells (default: scalar loop).

        ``cells`` is the ``(n, 2)`` int array the assigners pass, or a
        sequence of pairs; :meth:`gain` gets plain ints.
        """
        return np.array(
            [self.gain(worker, row, col) for row, col in as_cell_array(cells).tolist()],
            dtype=float,
        )


class AssignmentStrategy(abc.ABC):
    """One pluggable scoring policy (see the module docs for the contract).

    ``spec`` is the :class:`~repro.config.StrategySpec` the strategy was
    built from — the serializable identity pinned, by name, into durable
    manifests and the decision-chain genesis.
    """

    def __init__(self, spec) -> None:
        self.spec = spec

    @property
    def name(self) -> str:
        """The registry name (``spec.name``)."""
        return self.spec.name

    @abc.abstractmethod
    def build_calculator(
        self,
        assigner,
        result: InferenceResult,
        answers: AnswerSet,
    ):
        """The calculator scoring this select.

        ``assigner`` is the owning
        :class:`~repro.core.assignment.TCrowdAssigner`; strategies that
        compose over the paper's gain call
        ``assigner.paper_calculator(result, answers)`` for the inner
        calculator (never ``_build_calculator``, which would recurse back
        into the strategy).
        """


def batch_scores(
    cells: Sequence[Cell], score_fn
) -> np.ndarray:
    """``np.ndarray`` of ``score_fn(row, col)`` over ``cells``."""
    return np.array([score_fn(row, col) for row, col in cells], dtype=float)
