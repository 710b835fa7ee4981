"""The `python -m repro` CLI and the EXPERIMENTS.md report summaries."""

import pytest

from repro.__main__ import EXPERIMENTS, main
from repro.experiments.harness import FigureResult
from repro.experiments import report


class TestCli:
    def test_list_prints_catalogue(self, capsys):
        assert main(["repro", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("fig1", "fig7", "table2", "ablation-threshold"):
            assert name in out

    def test_no_args_is_usage_error(self, capsys):
        assert main(["repro"]) == 2

    @pytest.mark.parametrize(
        "argv", [["--help"], ["-h"], ["arena", "--help"], ["fig1", "-h"]]
    )
    def test_help_prints_usage_and_succeeds(self, capsys, argv):
        assert main(["repro", *argv]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("usage: python -m repro")
        assert captured.err == ""

    def test_unknown_name_is_error(self, capsys):
        assert main(["repro", "fig99"]) == 2
        assert "fig99" in capsys.readouterr().err

    def test_catalogue_covers_all_figures_tables_ablations(self):
        expected = {
            "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
            "mac-available", "table1", "table2",
            "ablation-probe-placement", "ablation-threshold",
            "ablation-mac-increment", "ablation-refresh-policy",
            "extension-lfs", "robustness",
            "robustness-latency", "robustness-faults",
            "robustness-sched", "robustness-background",
        }
        assert set(EXPERIMENTS) == expected

    def test_running_a_cheap_experiment_prints_its_table(self, capsys):
        assert main(["repro", "table2"]) == 0
        out = capsys.readouterr().out
        assert "FCCD" in out and "Knowledge" in out


class TestReportSummaries:
    """Each summary function reads the columns its driver produces."""

    def test_fig2_summary_formats_ratios(self):
        result = FigureResult("fig2", "t", columns=[
            "size_mb", "linear_s", "gray_s", "model_worst_s", "model_ideal_s"
        ])
        result.add(size_mb=128, linear_s=7.5, gray_s=1.7,
                   model_worst_s=7.5, model_ideal_s=1.2)
        lines = report.fig2_summary(result)
        assert any("worst-case" in line for line in lines)
        assert any("4.4x" in line for line in lines)

    def test_fig3_summary_reads_normalized_times(self):
        result = FigureResult("fig3", "t", columns=["app", "variant", "time_s", "normalized"])
        for app, variant, norm in (
            ("grep", "unmodified", 1.0), ("grep", "gb-grep", 0.5),
            ("grep", "gbp-grep", 0.51), ("fastsort", "unmodified", 1.0),
            ("fastsort", "gb-fastsort", 0.6), ("fastsort", "gbp-fastsort", 0.62),
        ):
            result.add(app=app, variant=variant, time_s=norm, normalized=norm)
        lines = report.fig3_summary(result)
        assert any("0.50" in line for line in lines)

    def test_fig7_summary_identifies_cliff_and_mac(self):
        result = FigureResult("fig7", "t", columns=[
            "variant", "pass_mb", "time_s", "time_s_std",
            "mean_pass_mb", "overhead_s", "swapped_mb",
        ])
        result.add(variant="static", pass_mb=60, time_s=50.0, time_s_std=0,
                   mean_pass_mb=60, overhead_s=0, swapped_mb=0)
        result.add(variant="static", pass_mb=110, time_s=300.0, time_s_std=0,
                   mean_pass_mb=80, overhead_s=0, swapped_mb=1500)
        result.add(variant="gb-fastsort", pass_mb=0, time_s=75.0, time_s_std=0,
                   mean_pass_mb=85, overhead_s=2.0, swapped_mb=60)
        lines = report.fig7_summary(result)
        assert any("cliff" in line for line in lines)
        assert any("+50%" in line for line in lines)

    def test_mac_summary_one_line_per_row(self):
        result = FigureResult("mac", "t", columns=[
            "competitor_mb", "expected_mb", "granted_mb"
        ])
        result.add(competitor_mb=0, expected_mb=830, granted_mb=830.0)
        result.add(competitor_mb=300, expected_mb=530, granted_mb=504.0)
        assert len(report.mac_summary(result)) == 2

    def test_sections_cover_every_experiment(self):
        titles = [title for title, _d, _s in report.SECTIONS]
        assert len(titles) == 16
        assert any("Robustness" in t for t in titles)
        assert any("Figure 7" in t for t in titles)
        assert any("Table 1" in t for t in titles)
