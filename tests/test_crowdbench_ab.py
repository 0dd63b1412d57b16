"""The parent/change benchmark comparison (``scripts/crowdbench_ab.py``).

Fed canned result lines through a fake runner: no server starts.
"""

from __future__ import annotations

import importlib.util
import json
import pathlib
import shutil

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _load_ab():
    spec = importlib.util.spec_from_file_location(
        "crowdbench_ab", ROOT / "scripts" / "crowdbench_ab.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ab = _load_ab()


@pytest.fixture()
def checkouts(tmp_path):
    """Two checkouts carrying the same benchmark files."""
    sides = {}
    for side in ("parent", "change"):
        root = tmp_path / side
        (root / "crowdbench").mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", root / "BENCHMARK.json")
        (root / "crowdbench" / "run.py").write_text("# the benchmark\n")
        sides[side] = root
    return sides


def _result_line(values, attempted=1000, failed=0, correct=True) -> str:
    metrics = {
        metric["name"]: {"value": values.get(metric["name"], 1.0), "unit": metric["unit"]}
        for metric in SPEC["end_to_end"]
    }
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": metrics})


class FakeRunner:
    """Answers each run with a report line and a canned result line."""

    def __init__(self, checkouts, values, status=0, **result):
        self.side_of = {str(path.resolve()): side for side, path in checkouts.items()}
        self.values = values
        self.status = status
        self.result = result
        self.calls = []

    def __call__(self, checkout, argv, timeout):
        side = self.side_of[str(checkout)]
        seed = int(argv[argv.index("--seed") + 1])
        self.calls.append((side, argv[argv.index("--workload") + 1], seed))
        assert argv[:2] == SPEC["command"]
        assert argv[argv.index("--seconds") + 1] == str(SPEC["run_seconds"])
        result = self.result.get(side, {})
        line = _result_line(self.values(side, seed), **result)
        return self.status if side == "change" else 0, f"checks passed\n{line}\n"


def _argv(checkouts, *extra):
    return ["--parent", str(checkouts["parent"]), "--change", str(checkouts["change"]),
            "--workload", "paper-sync", *extra]


def _faster_select(side, seed):
    base = 21.0 if side == "parent" else 13.0
    return {"select_p50_ms": base + 0.1 * seed, "answers_per_s": 60.0}


def test_a_faster_change_passes_and_the_order_alternates(checkouts, capsys, tmp_path):
    runner = FakeRunner(checkouts, _faster_select)
    log = tmp_path / "runs.jsonl"
    seeds = [str(seed) for seed in range(1, 11)]
    status = ab.main(_argv(checkouts, "--seeds", *seeds, "--log", str(log)), runner=runner)
    out = capsys.readouterr().out
    assert status == 0, out
    firsts = [runner.calls[i][0] for i in range(0, len(runner.calls), 2)]
    assert firsts == ["parent", "change"] * 5
    assert {call[1] for call in runner.calls} == {"paper-sync"}
    row = next(line for line in out.splitlines() if line.startswith("select_p50_ms"))
    assert "10/10" in row and "ok" in row and "-37.1%" in row
    assert "verdict: every metric within its bound" in out
    logged = [json.loads(line) for line in log.read_text().splitlines()]
    assert len(logged) == 20
    assert logged[0]["result"]["metrics"]["select_p50_ms"]["value"] == pytest.approx(21.1)


def test_a_metric_worse_than_its_bound_is_a_breach(checkouts, capsys):
    def slower_select(side, seed):
        return {"select_p90_ms": 10.0 if side == "parent" else 13.0}

    status = ab.main(_argv(checkouts), runner=FakeRunner(checkouts, slower_select))
    out = capsys.readouterr().out
    assert status == 1
    row = next(line for line in out.splitlines() if line.startswith("select_p90_ms"))
    assert row.endswith("BREACH")
    assert "select_p90_ms: +30.0% worse than the parent, bound 0.25" in out


def test_a_higher_is_better_metric_breaches_when_it_falls(checkouts, capsys):
    def fewer_answers(side, seed):
        return {"answers_per_s": 60.0 if side == "parent" else 40.0}

    assert ab.main(_argv(checkouts), runner=FakeRunner(checkouts, fewer_answers)) == 1
    assert "answers_per_s: +33.3% worse" in capsys.readouterr().out


def test_any_rise_from_a_parent_of_zero_is_a_breach(checkouts, capsys):
    def new_errors(side, seed):
        return {"error_rate": 0.0 if side == "parent" else 0.01}

    assert ab.main(_argv(checkouts), runner=FakeRunner(checkouts, new_errors)) == 1
    assert "error_rate: +inf% worse" in capsys.readouterr().out


def test_a_larger_failed_share_is_a_breach(checkouts, capsys):
    runner = FakeRunner(checkouts, _faster_select, change={"failed": 3})
    assert ab.main(_argv(checkouts), runner=runner) == 1
    assert "the change failed 0.3000% of its requests" in capsys.readouterr().out


@pytest.mark.parametrize("failure, message", [
    ({"status": 3}, "the change run printed no result (exit status 3)"),
    ({"change": {"correct": False}}, "the change run reported incorrect outputs"),
])
def test_a_failed_or_incorrect_run_is_a_breach(checkouts, capsys, failure, message):
    runner = FakeRunner(checkouts, _faster_select, **failure)
    assert ab.main(_argv(checkouts), runner=runner) == 1
    out = capsys.readouterr().out
    assert message in out
    assert "paper-sync: 0 pairs" in out


def test_different_benchmark_files_are_refused_before_any_run(checkouts, capsys):
    (checkouts["change"] / "crowdbench" / "run.py").write_text("# edited\n")
    runner = FakeRunner(checkouts, _faster_select)
    assert ab.main(_argv(checkouts), runner=runner) == 2
    assert runner.calls == []
    assert "crowdbench/run.py" in capsys.readouterr().err


def test_bytecode_caches_do_not_count_as_differences(checkouts):
    cache = checkouts["change"] / "crowdbench" / "__pycache__"
    cache.mkdir()
    (cache / "run.cpython-311.pyc").write_bytes(b"\0")
    assert ab.benchmark_differences(checkouts["parent"], checkouts["change"]) == []


def test_parse_result_reads_the_last_line():
    line = _result_line({})
    assert ab.parse_result(f"report\n{line}\n\n")["attempted"] == 1000
    assert ab.parse_result("report only\n") is None
    assert ab.parse_result("") is None
