"""Tiny end-to-end runs of every workload against a real server process."""

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

from crowdbench.run import END_TO_END, SETUPS
from crowdbench.workloads import WORKLOADS

ROOT = pathlib.Path(__file__).resolve().parents[2]


def _run(*args, cwd=ROOT, timeout=170):
    return subprocess.run(
        [sys.executable, "crowdbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout,
    )


def _result(completed):
    assert completed.returncode == 0, completed.stderr[-3000:]
    lines = completed.stdout.strip().splitlines()
    assert "checks passed" in lines, "\n".join(lines[-30:])
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    return result, lines


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_untraced_run_passes_every_check(workload):
    result, lines = _result(_run("--workload", workload, "--seed", "3", "--seconds", "10",
                                 "--trace", "0", "--tiny"))
    assert set(result["metrics"]) == {name for name, _unit in END_TO_END}
    for metric in result["metrics"].values():
        assert metric["value"] > 0
    assert any(line.startswith("inputs sha256:") for line in lines)
    assert any(line.startswith("phase timed ") for line in lines)
    setups = next(line for line in lines if line.startswith("setup_s samples "))
    assert len(setups.split()[2:]) == SETUPS
    raw_setups = next(line for line in lines if line.startswith("setup_s raw "))
    assert len(raw_setups.split()[2:]) == SETUPS
    assert lines[0].startswith("pinned to cpu ")
    assert any(line.startswith("host factor ") for line in lines)


def test_tiny_traced_run_reports_layers_and_budget():
    result, lines = _result(_run("--workload", "large-durable", "--seed", "4",
                                 "--seconds", "10", "--trace", "1", "--tiny"))
    metrics = result["metrics"]
    assert "trace.residual_share" in metrics and "trace.overhead_share" in metrics
    assert metrics["storage.appends"]["value"] > 0
    assert metrics["correlation.fits"]["value"] > 0
    # The blocking staleness bound: every select catches up on its own path.
    assert metrics["engine.blocking_refits"]["value"] > 0
    assert metrics["engine.background_refits"]["value"] == 0
    assert any(line.startswith("budget tasks ") for line in lines)
    assert not any(line.startswith("notice:") for line in lines)


def test_quality_repeats_exactly_for_a_synchronous_workload():
    first, _ = _result(_run("--workload", "paper-sync", "--seed", "5", "--seconds", "10",
                            "--trace", "0", "--tiny"))
    second, _ = _result(_run("--workload", "paper-sync", "--seed", "5", "--seconds", "10",
                             "--trace", "0", "--tiny"))
    for name in ("error_rate", "mnad"):
        assert first["metrics"][name] == second["metrics"][name]


def test_fails_without_a_result_when_the_program_is_absent(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "crowdbench", tmp_path / "crowdbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = _run("--workload", "paper-sync", "--seed", "1", "--seconds", "10",
                     "--trace", "0", cwd=tmp_path, timeout=60)
    assert completed.returncode != 0
    assert '"metrics"' not in completed.stdout
