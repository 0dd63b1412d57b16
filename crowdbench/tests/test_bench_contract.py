"""``BENCHMARK.json`` matches the runner: names, units, bounds, workloads."""

import json
import pathlib
import re

from crowdbench import layers, run
from crowdbench.workloads import WORKLOADS

ROOT = pathlib.Path(__file__).resolve().parents[2]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_keys_and_command():
    benchmark = _benchmark()
    assert set(benchmark) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert benchmark["command"] == ["python3", "crowdbench/run.py"]
    assert benchmark["paths"] == ["crowdbench"]
    assert 1 <= benchmark["run_seconds"] <= 60


def test_metric_and_workload_names_are_valid_and_unique():
    benchmark = _benchmark()
    names = [w["name"] for w in benchmark["workloads"]]
    names += [m["name"] for m in benchmark["end_to_end"] + benchmark["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for metric in benchmark["end_to_end"] + benchmark["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    for workload in benchmark["workloads"]:
        assert set(workload) == {"name", "why"} and len(workload["why"]) <= 200
        assert workload["name"] in WORKLOADS


def test_end_to_end_metrics_match_the_runner():
    benchmark = _benchmark()
    declared = {m["name"]: m["unit"] for m in benchmark["end_to_end"]}
    assert declared == dict(run.END_TO_END)
    assert declared["setup_s"] == "s"
    for metric in benchmark["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in benchmark["end_to_end"] if m["name"] == "setup_s")
    assert setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in benchmark["end_to_end"])


def test_per_layer_metrics_match_the_runner():
    benchmark = _benchmark()
    declared = {m["name"]: m["unit"] for m in benchmark["per_layer"]}
    assert declared == {name: unit for name, unit, _seams in layers.METRICS}
    for metric in benchmark["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
