"""Scaling timings to the reference host, and pinning to one CPU."""

import json
import os
import subprocess
import sys

import pytest

from crowdbench import reference
from crowdbench.reference import REFERENCE_SECONDS


def test_each_sample_is_scaled_by_its_own_reference():
    samples = [10.0, 20.0, 30.0]
    references = [REFERENCE_SECONDS, 2 * REFERENCE_SECONDS, 0.5 * REFERENCE_SECONDS]
    assert reference.scaled(samples, references) == pytest.approx([10.0, 10.0, 60.0])


def test_samples_and_references_must_pair_up():
    with pytest.raises(ValueError):
        reference.scaled([1.0, 2.0], [REFERENCE_SECONDS])


def test_a_phase_is_scaled_by_the_median_reference_around_it():
    references = [3 * REFERENCE_SECONDS, 2 * REFERENCE_SECONDS, 100 * REFERENCE_SECONDS]
    assert reference.scaled_seconds(4.0, references) == pytest.approx(4.0 / 3)


def test_host_factor_is_raw_over_scaled_time():
    raw = [20.0, 40.0]
    scaled = reference.scaled(raw, [2 * REFERENCE_SECONDS, 2 * REFERENCE_SECONDS])
    assert reference.host_factor(raw, scaled) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        reference.host_factor([], [])


def test_reference_computation_takes_time():
    assert 0 < reference.reference_seconds() < 1.0


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no CPU affinity here")
def test_pinning_leaves_one_allowed_cpu_for_the_process_and_its_children():
    allowed = sorted(os.sched_getaffinity(0))
    script = (
        "import json, os, subprocess, sys\n"
        "from crowdbench.reference import pin_to_one_cpu\n"
        "cpu = pin_to_one_cpu()\n"
        "child = subprocess.run([sys.executable, '-c', 'import os; "
        "print(sorted(os.sched_getaffinity(0)))'], capture_output=True, text=True)\n"
        "print(json.dumps([cpu, sorted(os.sched_getaffinity(0)), child.stdout.strip()]))\n"
    )
    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    completed = subprocess.run([sys.executable, "-c", script], cwd=root,
                               capture_output=True, text=True, timeout=60)
    assert completed.returncode == 0, completed.stderr
    cpu, own, child = json.loads(completed.stdout)
    assert cpu == allowed[-1]
    assert own == [cpu]
    assert child == str([cpu])
