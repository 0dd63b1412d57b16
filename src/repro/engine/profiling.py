"""Per-stage wall-clock accounting for the serving hot path.

Optimising the async serving path needs attribution, not anecdotes: a
select that takes 4 ms could be spending it acquiring the model snapshot,
rebuilding the gain calculator, scoring candidates, or selecting the
top-K — and the fix is different for each.  :class:`HotPathProfile` is the
lightweight answer: a thread-safe set of named stage timers that the engine
layer feeds through :meth:`HotPathProfile.stage` context managers.  Profiles
are strictly opt-in — no policy carries one until :meth:`set_profile` wires
it — so the default hot path pays nothing beyond an attribute check.

The canonical stage names (``STAGES``) cover the select pipeline of both
serving policies: :class:`~repro.engine.AsyncRefitPolicy` and its refit
engine time all six, the bare :class:`~repro.core.assignment.TCrowdAssigner`
times ``em_refit`` (on whichever path fits) and the last three:

``snapshot_acquire``
    Getting the inference result to score with (lock-free snapshot read, or
    a blocking catch-up refit when the staleness bound trips).
``lock_wait``
    Time spent waiting on the refit lock inside a blocking catch-up (a
    subset of ``snapshot_acquire`` when contention exists).
``em_refit``
    The EM fit itself: background or blocking, or the sync policy's refit.
``calculator_build``
    Building the per-select gain calculator over the served model (includes
    the structure-model fit; the async scoring cache amortises this).
``gains_batch``
    Vectorised candidate scoring.
``top_k_merge``
    Selecting the stable top-K over the scored candidates.

Aggregates per stage: call count, total seconds, max seconds, and a
fixed-bound latency histogram — the same cumulative-bucket shape Prometheus
expects, so the service layer can surface the profile on ``/metrics``
verbatim.  :func:`histogram_lines` renders one such histogram; the service
layer renders its select latency with it too.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

#: Canonical hot-path stage names, in pipeline order.
STAGES: Tuple[str, ...] = (
    "snapshot_acquire",
    "lock_wait",
    "em_refit",
    "calculator_build",
    "gains_batch",
    "top_k_merge",
)

#: Histogram bucket upper bounds, in seconds.  Spans 0.1 ms to 1 s —
#: everything slower lands in the implicit +Inf bucket.
BUCKET_BOUNDS: Tuple[float, ...] = (
    0.0001,
    0.0005,
    0.001,
    0.005,
    0.01,
    0.05,
    0.1,
    0.5,
    1.0,
)


@dataclass
class StageStats:
    """Aggregated timings of one named hot-path stage."""

    calls: int = 0
    seconds: float = 0.0
    max_seconds: float = 0.0
    #: Non-cumulative per-bucket counts; index i counts observations with
    #: ``seconds <= BUCKET_BOUNDS[i]`` (and > the previous bound); the last
    #: slot is the +Inf overflow bucket.
    buckets: List[int] = field(
        default_factory=lambda: [0] * (len(BUCKET_BOUNDS) + 1)
    )

    def observe(self, seconds: float) -> None:
        self.calls += 1
        self.seconds += seconds
        if seconds > self.max_seconds:
            self.max_seconds = seconds
        for index, bound in enumerate(BUCKET_BOUNDS):
            if seconds <= bound:
                self.buckets[index] += 1
                return
        self.buckets[-1] += 1

    def copy(self) -> "StageStats":
        return dataclasses.replace(self, buckets=list(self.buckets))

    def to_dict(self) -> Dict[str, object]:
        return {
            "calls": self.calls,
            "seconds": self.seconds,
            "max_seconds": self.max_seconds,
            "mean_ms": (self.seconds / self.calls * 1000.0) if self.calls else 0.0,
            "buckets": list(self.buckets),
        }


def histogram_lines(metric: str, stats: StageStats, labels: str = "") -> List[str]:
    """Prometheus text-format lines of one histogram series.

    Cumulative ``<metric>_bucket`` lines with an ``le`` label (ending at
    ``+Inf``, which equals ``_count``), then ``<metric>_sum`` and
    ``<metric>_count``.  ``labels`` is the series' own label list, e.g.
    ``stage="gains_batch"``; empty for an unlabelled series.
    """
    prefix = f"{labels}," if labels else ""
    suffix = f"{{{labels}}}" if labels else ""
    lines = []
    cumulative = 0
    for bound, count in zip(BUCKET_BOUNDS + ("+Inf",), stats.buckets):
        cumulative += count
        lines.append(f'{metric}_bucket{{{prefix}le="{bound}"}} {cumulative}')
    lines.append(f"{metric}_sum{suffix} {stats.seconds}")
    lines.append(f"{metric}_count{suffix} {stats.calls}")
    return lines


def stage(profile: Optional["HotPathProfile"], name: str):
    """Stage timer that degrades to a no-op when no profile is attached.

    The engine layer calls this on every select; without a profile it
    returns a shared :func:`~contextlib.nullcontext`, so unprofiled serving
    pays one ``is None`` check per stage.
    """
    return nullcontext() if profile is None else profile.stage(name)


class HotPathProfile:
    """Thread-safe per-stage wall-clock profile of the serving hot path.

    One instance is shared by every component of a policy stack (async
    policy, refit engine, service session), each timing its own stages; the
    per-stage aggregates therefore describe the stack as one pipeline.
    Recording is two dict lookups plus float adds under a lock — cheap
    enough to leave on during benchmarking, but still opt-in.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._stages: Dict[str, StageStats] = {}

    def record(self, stage: str, seconds: float) -> None:
        """Fold one observation of ``stage`` taking ``seconds`` in."""
        with self._lock:
            stats = self._stages.get(stage)
            if stats is None:
                stats = self._stages[stage] = StageStats()
            stats.observe(seconds)

    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        """Time a ``with`` block as one observation of stage ``name``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.record(name, time.perf_counter() - start)

    def stats(self, stage: str) -> StageStats:
        """A copy of one stage's aggregates (zeros if never observed)."""
        with self._lock:
            stats = self._stages.get(stage)
            return StageStats() if stats is None else stats.copy()

    def _ordered(self) -> List[Tuple[str, StageStats]]:
        """``(stage, copy of its aggregates)`` in canonical stage order
        (extra stages sort last)."""
        with self._lock:
            items = {name: stats.copy() for name, stats in self._stages.items()}
        ordered = [name for name in STAGES if name in items]
        ordered += sorted(name for name in items if name not in STAGES)
        return [(name, items[name]) for name in ordered]

    def to_dict(self) -> Dict[str, Dict[str, object]]:
        """JSON-ready ``{stage: {calls, seconds, max_seconds, mean_ms,
        buckets}}`` in canonical stage order (extra stages sort last)."""
        return {name: stats.to_dict() for name, stats in self._ordered()}

    def render_prometheus(self, prefix: str = "repro_hotpath") -> List[str]:
        """Prometheus text-format histogram lines for every observed stage:
        one ``<prefix>_stage_seconds`` series per stage, labelled
        ``stage="<name>"`` (see :func:`histogram_lines`)."""
        stages = self._ordered()
        if not stages:
            return []
        metric = f"{prefix}_stage_seconds"
        lines = [
            f"# HELP {metric} Hot-path stage latency histogram.",
            f"# TYPE {metric} histogram",
        ]
        for name, stats in stages:
            lines += histogram_lines(metric, stats, f'stage="{name}"')
        return lines
