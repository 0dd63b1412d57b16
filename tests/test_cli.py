"""Tests for the tcrowd-experiments command-line interface."""

import pytest

from repro.experiments.cli import EXPERIMENTS, build_parser, main


class TestParser:
    def test_known_experiments_registered(self):
        for name in ("table7", "figure2", "figure5", "figure10", "efficiency"):
            assert name in EXPERIMENTS

    def test_parser_defaults(self):
        args = build_parser().parse_args(["table7"])
        assert args.experiment == "table7"
        assert args.seed == 7
        assert not args.quick

    def test_parser_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["not-an-experiment"])

    def test_parser_dataset_choice(self):
        args = build_parser().parse_args(["figure2", "--dataset", "Emotion"])
        assert args.dataset == "Emotion"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure2", "--dataset", "Unknown"])


class TestMain:
    def test_quick_table7_to_file(self, tmp_path, capsys):
        output = tmp_path / "report.txt"
        code = main(["table7", "--quick", "--seed", "3", "--output", str(output)])
        assert code == 0
        text = output.read_text()
        assert "table7" in text
        assert "T-Crowd" in text
        printed = capsys.readouterr().out
        assert "T-Crowd" in printed

    def test_quick_synthetic_runs_all_three_sweeps(self, capsys):
        code = main(["synthetic", "--quick", "--seed", "3"])
        assert code == 0
        printed = capsys.readouterr().out
        assert "figure7" in printed
        assert "figure8" in printed
        assert "figure9" in printed


class StubReport:
    """Minimal stand-in for ExperimentReport in dispatch tests."""

    def __init__(self, name):
        self.name = name

    def to_text(self):
        return f"[report:{self.name}]"


class TestMainDispatch:
    """Dispatch logic of main() exercised against stubbed experiments, so
    the 'all' fan-out and the output plumbing are covered without running
    the (slow) real harnesses."""

    @pytest.fixture()
    def stubbed(self, monkeypatch):
        import repro.experiments.cli as cli

        calls = []

        def make(name):
            def runner(args):
                calls.append((name, args.seed, args.quick))
                return [StubReport(name)]

            return runner

        monkeypatch.setattr(
            cli, "EXPERIMENTS", {name: make(name) for name in cli.EXPERIMENTS}
        )
        return calls

    def test_all_runs_every_registered_experiment(self, stubbed, tmp_path, capsys):
        from repro.experiments.cli import EXPERIMENTS, main

        output = tmp_path / "all.txt"
        assert main(["all", "--output", str(output)]) == 0
        ran = [name for name, _seed, _quick in stubbed]
        assert ran == sorted(EXPERIMENTS)
        text = output.read_text()
        for name in EXPERIMENTS:
            assert f"[report:{name}]" in text
        capsys.readouterr()

    def test_single_experiment_runs_only_itself(self, stubbed, capsys):
        from repro.experiments.cli import main

        assert main(["efficiency", "--seed", "11", "--quick"]) == 0
        assert stubbed == [("efficiency", 11, True)]
        assert "[report:efficiency]" in capsys.readouterr().out

    def test_output_file_not_written_on_parse_error(self, tmp_path):
        from repro.experiments.cli import main

        output = tmp_path / "never.txt"
        with pytest.raises(SystemExit):
            main(["nonsense", "--output", str(output)])
        assert not output.exists()
