"""Pluggable assignment strategies (the strategy zoo).

See ``src/repro/strategies/README.md`` for the strategy table, the
composition semantics of ``epsilon_greedy`` and the scenario knobs the
strategy benchmark pairs them with.  The public surface:

* :class:`AssignmentStrategy` / :class:`StrategyCalculator` — the plug-in
  protocol (scoring only; selection, provenance and durability are shared
  machinery);
* :func:`build_strategy` — :class:`~repro.config.StrategySpec` to live
  strategy (``None`` for ``"paper"``, keeping the default byte-for-byte);
* the built-ins: :class:`RandomStrategy`, :class:`RoundRobinStrategy`,
  :class:`UncertaintyStrategy`, :class:`BudgetVoIStrategy`,
  :class:`EpsilonGreedyStrategy`.
"""

from repro.strategies.base import (
    RETIRED_GAIN,
    AssignmentStrategy,
    StrategyCalculator,
    hash_unit,
)
from repro.strategies.registry import build_strategy
from repro.strategies.zoo import (
    BudgetVoIStrategy,
    EpsilonGreedyStrategy,
    RandomStrategy,
    RoundRobinStrategy,
    UncertaintyStrategy,
    posterior_confidence,
)

__all__ = [
    "RETIRED_GAIN",
    "AssignmentStrategy",
    "BudgetVoIStrategy",
    "EpsilonGreedyStrategy",
    "RandomStrategy",
    "RoundRobinStrategy",
    "StrategyCalculator",
    "UncertaintyStrategy",
    "build_strategy",
    "hash_unit",
    "posterior_confidence",
]
