"""Smoke tests for every experiment harness (at reduced scale).

These tests check that each table/figure harness runs end-to-end and produces
a structurally valid report; ``scripts/run_all_experiments.py`` writes the
full-scale reports.
"""

import pytest

from repro.experiments import (
    run_figure2,
    run_figure3_worker_consistency,
    run_figure4_quality_calibration,
    run_figure5,
    run_figure6_attribute_correlation,
    run_figure7,
    run_figure8,
    run_figure9,
    run_figure10,
    run_figure11_assignment_time,
    run_figure12_convergence,
    run_figure12_runtime,
    run_table7,
)
from repro.experiments.reporting import ExperimentReport

FAST_MODEL = {"max_iterations": 8, "m_step_iterations": 12}


@pytest.fixture(scope="module")
def table7_report():
    return run_table7(seed=3, trials=1, num_rows=30, model_kwargs=FAST_MODEL)


class TestTable7:
    def test_report_structure(self, table7_report):
        assert isinstance(table7_report, ExperimentReport)
        assert table7_report.headers[0] == "Method"
        assert len(table7_report.rows) == 11  # all compared methods

    def test_every_dataset_column_present(self, table7_report):
        joined = " ".join(table7_report.headers)
        for name in ("Celebrity", "Restaurant", "Emotion"):
            assert name in joined

    def test_tcrowd_row_fully_populated(self, table7_report):
        tcrowd = next(row for row in table7_report.rows if row[0] == "T-Crowd")
        assert all(value is not None for value in tcrowd[1:])

    def test_single_datatype_methods_have_gaps(self, table7_report):
        mv = next(row for row in table7_report.rows if row[0] == "Maj. Voting")
        assert any(value is None for value in mv[1:])

    def test_tcrowd_competitive_with_mv(self, table7_report):
        headers = table7_report.headers
        col = headers.index("Celebrity ErrorRate")
        tcrowd = next(row for row in table7_report.rows if row[0] == "T-Crowd")[col]
        mv = next(row for row in table7_report.rows if row[0] == "Maj. Voting")[col]
        assert tcrowd <= mv + 0.02

    def test_restricted_to_one_dataset(self):
        report = run_table7(dataset_names=["Emotion"], seed=3, trials=1, num_rows=25,
                            model_kwargs=FAST_MODEL)
        assert report.headers == ["Method", "Emotion MNAD"]


class TestFigure2And5:
    @pytest.mark.slow
    def test_figure2_structure(self):
        report = run_figure2(
            dataset_name="Restaurant", seed=3, num_rows=15, eval_every=1.0,
            model_kwargs=FAST_MODEL,
        )
        assert len(report.rows) == 5  # five compared systems
        assert any("T-Crowd" in name for name in report.series)
        for _name, points in report.series.items():
            xs = [x for x, _y in points]
            assert xs == sorted(xs)

    def test_figure2_unknown_dataset(self):
        from repro.utils.exceptions import ConfigurationError

        with pytest.raises(ConfigurationError):
            run_figure2(dataset_name="Nope")

    @pytest.mark.slow
    def test_figure5_structure(self):
        report = run_figure5(seed=3, num_rows=15, eval_every=1.0, model_kwargs=FAST_MODEL)
        names = [row[0] for row in report.rows]
        assert "Structure-Aware Information Gain" in names
        assert "Random" in names
        assert len(report.rows) == 5


class TestCaseStudies:
    def test_figure3_heatmap_rows(self):
        report = run_figure3_worker_consistency(seed=3, num_rows=40, top_workers=10)
        assert len(report.rows) <= 10
        assert report.headers[0] == "Worker"
        # Every error statistic is a float or None.
        for row in report.rows:
            for value in row[1:]:
                assert value is None or isinstance(value, float)

    def test_figure4_calibration_positive(self):
        report = run_figure4_quality_calibration(seed=3, num_rows=60, model_kwargs=FAST_MODEL)
        correlations = {row[0]: row[2] for row in report.rows}
        assert correlations, "expected at least one datatype row"
        for value in correlations.values():
            assert value > 0.2

    def test_figure6_contingency_table(self):
        report = run_figure6_attribute_correlation(seed=3, num_rows=60, model_kwargs=FAST_MODEL)
        assert len(report.rows) == 2
        total = sum(v for row in report.rows for v in row[1:])
        assert total > 0


class TestSyntheticSweeps:
    def test_figure7_columns_sweep(self):
        report = run_figure7(column_counts=(4, 8), num_rows=15, trials=1, seed=3,
                             model_kwargs=FAST_MODEL)
        assert [row[0] for row in report.rows] == [4, 8]
        assert "T-Crowd error" in report.series

    def test_figure8_ratio_sweep_handles_extremes(self):
        report = run_figure8(ratios=(0.0, 1.0), num_rows=15, num_columns=6, trials=1,
                             seed=3, model_kwargs=FAST_MODEL)
        first, last = report.rows
        assert first[0] == 0.0 and last[0] == 1.0
        # Ratio 0 has no categorical metrics; ratio 1 has no continuous metrics.
        headers = report.headers
        assert first[headers.index("T-Crowd error")] is None
        assert last[headers.index("T-Crowd MNAD")] is None

    def test_figure9_difficulty_hurts_quality(self):
        report = run_figure9(difficulties=(0.5, 3.0), num_rows=20, num_columns=6,
                             trials=1, seed=3, model_kwargs=FAST_MODEL)
        headers = report.headers
        easy, hard = report.rows
        col = headers.index("T-Crowd error")
        assert easy[col] <= hard[col] + 1e-9


class TestNoiseAndEfficiency:
    def test_figure10_noise_increases_error(self):
        report = run_figure10(gammas=(0.1, 0.4), seed=3, trials=1, num_rows=25,
                              model_kwargs=FAST_MODEL)
        headers = report.headers
        col = headers.index("MV error")
        low, high = report.rows
        assert low[col] <= high[col] + 0.05

    def test_figure11_reports_positive_times(self):
        report = run_figure11_assignment_time(answers_per_task_levels=(2,), seed=3,
                                              num_rows=15, model_kwargs=FAST_MODEL)
        assert report.rows[0][2] > 0

    def test_figure12_convergence_monotone(self):
        report = run_figure12_convergence(seed=3, num_rows=30, max_iterations=10,
                                          model_kwargs=FAST_MODEL)
        values = [value for _iteration, value in report.series["objective"]]
        assert values[-1] >= values[0]

    def test_figure12_runtime_scaling(self):
        report = run_figure12_runtime(answer_counts=(300, 900), seed=3,
                                      model_kwargs=FAST_MODEL)
        answers = [row[0] for row in report.rows]
        seconds = [row[2] for row in report.rows]
        assert answers[1] > answers[0]
        assert all(value > 0 for value in seconds)
