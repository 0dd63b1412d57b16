"""The CI perf gate (``scripts/check_perf_regression.py``) on synthetic runs.

The gate's verdicts are pinned against small hand-built baseline and
candidate documents: a consistent pair passes, and each equivalence bit,
the async path's absolute floor and the baseline's own validation fail it.
"""

from __future__ import annotations

import importlib.util
import json
import pathlib

import pytest

GATE_PATH = (
    pathlib.Path(__file__).resolve().parent.parent
    / "scripts"
    / "check_perf_regression.py"
)


def _load_gate():
    spec = importlib.util.spec_from_file_location("check_perf_regression", GATE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(overrides: dict) -> dict:
    """A benchmark document with every gated field passing."""
    document = {
        "repeats": 5,
        "speedup": 1.7,
        "speedup_async": 1.9,
        "identical_assignments": True,
        "identical_assignments_async": True,
        "identical_estimates_async": True,
        "recovery_identical": True,
        "audit_replay_identical": True,
        "strategy_default_identical": True,
        "strategy_paper_dominates_clean": True,
        "audit_overhead_ratio": 0.04,
        "serve_requests_per_sec": 180.0,
        "scale_num_rows": 10_000,
        "profile_stages": {},
    }
    document.update(overrides)
    return document


@pytest.fixture()
def gate(tmp_path, capsys):
    module = _load_gate()

    def run(baseline=None, candidate=None, drop=()):
        cand = _run(candidate or {})
        for key in drop:
            del cand[key]
        base_path = tmp_path / "baseline.json"
        cand_path = tmp_path / "candidate.json"
        base_path.write_text(json.dumps(_run(baseline or {})), encoding="utf-8")
        cand_path.write_text(json.dumps(cand), encoding="utf-8")
        status = module.main(
            ["--baseline", str(base_path), "--candidate", str(cand_path)]
        )
        return status, capsys.readouterr().err

    return run


def test_consistent_runs_pass(gate):
    status, err = gate()
    assert status == 0, err


EQUIVALENCE_BITS = (
    "identical_assignments_async",
    "identical_estimates_async",
)


@pytest.mark.parametrize("bit", EQUIVALENCE_BITS)
def test_false_equivalence_bit_fails(gate, bit):
    status, err = gate(candidate={bit: False})
    assert status == 1
    assert f"{bit} is false" in err


@pytest.mark.parametrize("bit", EQUIVALENCE_BITS)
def test_missing_equivalence_bit_fails(gate, bit):
    status, err = gate(drop=(bit,))
    assert status == 1
    assert f"candidate has no {bit} field" in err


def test_async_floor_is_absolute(gate):
    """1.4x clears baseline * headroom but not the 1.5x async floor."""
    status, err = gate(candidate={"speedup_async": 1.4})
    assert status == 1
    assert "speedup_async 1.40x fell below the floor 1.50x" in err


def test_baseline_must_meet_the_async_floor(gate):
    status, err = gate(baseline={"speedup_async": 1.2})
    assert status == 1
    assert "baseline speedup_async" in err
