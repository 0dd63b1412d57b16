"""Incremental assignment engine.

The online protocol of Algorithm 2 interleaves truth inference and
information-gain assignment after *every* collected answer.  Re-deriving the
full candidate pool, worker indexes and answer counts from scratch on each
step is O(rows x cols x answers); this package maintains them as mutable
indexes updated O(1) per new answer so that the per-step cost of the online
loop is driven by the (warm-started) EM refit and one vectorised gain pass.

Layering: ``core`` holds the paper's algorithms, ``engine`` holds the
incremental session state those algorithms consult in the online loop, and
``platform`` / ``experiments`` drive both.  Sessions are served by the bare
assigner or :class:`AsyncRefitPolicy`.
"""

from repro.engine.state import SessionState

__all__ = [
    "SessionState",
    "AsyncRefitEngine",
    "AsyncRefitPolicy",
    "DecisionRecord",
    "DecisionRecorder",
    "HotPathProfile",
    "ModelSnapshot",
]

_PROFILING_EXPORTS = ("HotPathProfile",)
_PROVENANCE_EXPORTS = ("DecisionRecord", "DecisionRecorder")
_REFIT_EXPORTS = (
    "AsyncRefitEngine",
    "AsyncRefitPolicy",
    "ModelSnapshot",
)


def __getattr__(name):
    # Lazy so that ``core.assignment → engine.state → engine.__init__`` does
    # not re-enter ``core.assignment`` (the async refit policy builds on the
    # policy base classes) while it is still half-initialised.
    if name in _REFIT_EXPORTS:
        from repro.engine import refit_worker

        return getattr(refit_worker, name)
    if name in _PROFILING_EXPORTS:
        from repro.engine import profiling

        return getattr(profiling, name)
    if name in _PROVENANCE_EXPORTS:
        from repro.engine import provenance

        return getattr(provenance, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
