"""Host-speed reference: a fixed computation timed on the server's CPU.

On a shared virtual machine the speed of a CPU changes from second to
second with what the rest of the host runs: the same request can take
1.6 to 2 times as long in one stretch as in the next, and the share of
slow stretches changes from run to run.  Timings are therefore scaled to
a reference host.  The load generator and every server it starts are
pinned to one CPU (:func:`pin_to_one_cpu`).  Right before each timed
request, while the server idles, the load generator times
:func:`reference_seconds`, a fixed mix of the work the server does
(small NumPy array arithmetic, JSON encoding and interpreter loops); the
request's latency is then multiplied by ``REFERENCE_SECONDS / measured``.
A scaled timing reads as the time on a host that runs the reference in
exactly :data:`REFERENCE_SECONDS`.

The reference is benchmark code, so no change to the program can change
it.  What it cannot separate is server work that runs on the pinned CPU
*between* requests (a background thread): that slows the reference and
shrinks the scaled latencies.  The report prints raw timings next to the
scaled ones, and ``server_cpu_ms_per_answer`` still counts such work.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from typing import List, Optional, Sequence

import numpy as np

#: Nominal duration of :func:`reference_seconds`; scaled timings are
#: expressed on a host that runs it in exactly this long.
REFERENCE_SECONDS = 1.0e-3

_MATRIX = np.random.default_rng(20180416).random((96, 48))
_WEIGHTS = np.random.default_rng(20180417).random((48, 32))
_DOCUMENT = {str(i): [i * 0.5, f"label_{i % 7}", i % 3 == 0] for i in range(300)}


def reference_seconds() -> float:
    """Run the reference computation once; return its duration in seconds."""
    started = time.perf_counter()
    for _round in range(2):
        scores = np.exp(-_MATRIX) @ _WEIGHTS
        np.log1p(scores).sum(axis=0)
        json.dumps(_DOCUMENT)
        total = 0
        for i in range(2500):
            total += i * i
    return time.perf_counter() - started


def scaled(samples_ms: Sequence[float], references: Sequence[float]) -> List[float]:
    """Each latency times ``REFERENCE_SECONDS`` / the reference timed before it."""
    if len(samples_ms) != len(references):
        raise ValueError(f"{len(samples_ms)} samples but {len(references)} references")
    return [ms * REFERENCE_SECONDS / ref for ms, ref in zip(samples_ms, references)]


def scaled_seconds(seconds: float, references: Sequence[float]) -> float:
    """A stretch of time scaled by the median reference timed around it."""
    return seconds * REFERENCE_SECONDS / statistics.median(references)


def host_factor(raw_ms: Sequence[float], scaled_ms: Sequence[float]) -> float:
    """How much slower than the reference host a stretch of requests ran.

    The ratio of the summed raw latencies to the summed scaled ones; a
    quantity measured over the same stretch (CPU time, a layer's busy
    time) is scaled by dividing it by this factor.
    """
    total = sum(scaled_ms)
    if total <= 0:
        raise ValueError("no scaled time to compare with")
    return sum(raw_ms) / total


def pin_to_one_cpu() -> Optional[int]:
    """Pin this process (and every process it starts later) to one CPU.

    Returns the CPU, or ``None`` when the affinity cannot be set (the
    timings are still scaled, but the reference may then run on another
    CPU than the server).
    """
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError, ValueError):
        return None
    return cpu
